"""Error bounds checked against mpmath at 20 digits, an oracle that shares no
code with zetakit.  The module is skipped when mpmath is not installed.

Every bound checked here is at least 1e-15 of the value (the smallest, for
peeled near r = 1e-10), so 20 digits leave five to spare, at 40 % of the
cost of 40 digits.
"""

import math

import pytest

from zetakit.specfun import CL2_METHODS, clausen_cl2, dirichlet_beta, riemann_zeta, zeta_e_weighted

mp = pytest.importorskip("mpmath")

DPS = 20


def _cl2_ref(theta: float):
    with mp.workdps(DPS):
        return mp.clsin(2, mp.mpf(theta))


def _within_bound(res, ref) -> bool:
    with mp.workdps(DPS):
        return abs(mp.mpf(res.value) - ref) <= mp.mpf(res.error_bound)


def test_peeled_bound_holds_near_zero_and_across_the_range():
    # the 2pi log((2pi + r)/(2pi - r)) head cancelled to ~2pi eps absolute
    grid = [10.0 ** (-10 + i / 4) for i in range(41)]
    grid += [j * math.pi / 512 for j in range(1, 513)]
    for theta in grid:
        res = clausen_cl2(theta, "peeled")
        assert _within_bound(res, _cl2_ref(theta)), theta


@pytest.mark.parametrize("theta", [6.2455, 1e4, 1e6, -0.0011])
@pytest.mark.parametrize("method", CL2_METHODS)
def test_cl2_bound_covers_the_reduction(theta, method):
    # near 2pi, at large |theta| and for small negative theta the float 2pi
    # of the reduction moves the argument; the bound must carry that
    res = clausen_cl2(theta, method)
    assert _within_bound(res, _cl2_ref(theta))


@pytest.mark.parametrize("theta", [2 * math.pi, -2 * math.pi, 4 * math.pi, 1e300])
def test_cl2_bound_at_exact_float_multiples_of_two_pi(theta):
    # fmod gives r = 0 (or, at 1e300, an r that says nothing), but the true
    # reduced angle is not r
    for method in CL2_METHODS:
        res = clausen_cl2(theta, method)
        assert _within_bound(res, _cl2_ref(theta)), method


@pytest.mark.parametrize(
    "r, n",
    [(0.05, 1_000), (0.05, 100_000), (1.0, 10), (2.0, 31), (3.1, 1_000),
     (math.pi - 1e-9, 99_999), (1e-4, 50_000), (1e-5, 1_000)],
)
def test_direct_oracle_bound(r, n):
    res = clausen_cl2(r, "direct", n_terms=n)
    assert res.terms_used == n
    assert _within_bound(res, _cl2_ref(r))


def test_direct_default_depth_bound():
    # below r ~ 2e-6 (here 1e-7) the 10^6-term cap binds
    for theta in (1e-7, 0.0011, 0.05, 1.0, 2.0, math.pi - 1e-9, 4.0, 6.2455, -0.0011):
        res = clausen_cl2(theta, "direct")
        assert res.error_bound <= 1e-6 and res.terms_used <= 1_000_000
        assert _within_bound(res, _cl2_ref(theta)), theta


@pytest.mark.parametrize("theta", [1e300, 1e12])
def test_direct_default_depth_past_a_large_allowance(theta):
    # the reduction allowance alone is above 1e-6, so no depth meets 1e-6;
    # the default depth is the least whose own bound is at most the allowance
    res = clausen_cl2(theta, "direct")
    assert res.terms_used <= 1_000
    assert _within_bound(res, _cl2_ref(theta))


@pytest.mark.parametrize("s", [0.00055, 0.1, 0.985, 0.999, 0.9999, 1 - 1e-8])
def test_zeta_bound_on_the_critical_strip(s):
    # near 1 the scale 1 - 2^(1-s) cancelled; near 0 the bound left out the
    # rounding of the accelerated eta sum
    res = riemann_zeta(s)
    with mp.workdps(50):
        assert abs(mp.mpf(res.value) - mp.zeta(mp.mpf(s))) <= mp.mpf(res.error_bound)


def test_quarter_pi_bound_covers_the_rounding():
    for res in (dirichlet_beta(1.0), zeta_e_weighted(0)):
        assert res.error_bound > 0.0
        with mp.workdps(DPS):
            assert _within_bound(res, mp.pi / 4)
