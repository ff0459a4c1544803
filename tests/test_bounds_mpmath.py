"""Error bounds checked against mpmath at 20 digits, an oracle that shares no
code with zetakit.  The module is skipped when mpmath is not installed.

Every bound checked here is at least 1e-15 of the value (the smallest, for
peeled near r = 1e-10), so 20 digits leave five to spare, at 40 % of the
cost of 40 digits.
"""

import math
import random
import sys

import pytest

from zetakit import catalog, specfun
from zetakit.catalog import CatalogKey
from zetakit.specfun import (CL2_METHODS, cl2_drift, clausen_cl2, dirichlet_beta, polygamma,
                             riemann_zeta, zeta_e_weighted)

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


def _near_two_pi_multiples():
    # the floats nearest 2 pi k and their neighbours
    with mp.workdps(40):
        nearest = [float(2 * k * mp.pi) for k in (1, 7, 1000, 100_000)]
    return [math.nextafter(x, d) for x in nearest for d in (0.0, x, math.inf)]


DRIFT_THETAS = [0.0, 1e-300, math.pi, -math.pi, 6.2455, -0.0011, 1e4, -1e4, 1e6, 1e10,
                *_near_two_pi_multiples(), *(random.Random(7).uniform(-20.0, 20.0) for _ in range(6))]


@pytest.mark.parametrize("theta", DRIFT_THETAS)
def test_cl2_drift_bounds_the_move_of_cl2(theta):
    # |Cl2(y) - Cl2(theta)| <= cl2_drift(theta, delta) for y = theta +- f delta,
    # and the same allowance on top of clausen_cl2's bound covers Cl2(y); at
    # theta = math.pi, delta = 1e-13 the unrounded delta log 2 falls short
    res = clausen_cl2(theta)
    assert cl2_drift(theta, 0.0) == 0.0
    with mp.workdps(40):
        at_theta = mp.clsin(2, mp.mpf(theta))
        for delta in (1e-16, 1e-13, 1e-10, 1e-6, 1e-3, 0.1, 1.0):
            drift = mp.mpf(cl2_drift(theta, delta))
            for f in (1, -1, 0.5):
                at_y = mp.clsin(2, mp.mpf(theta) + f * mp.mpf(delta))
                assert abs(at_y - at_theta) <= drift, (delta, f)
                assert abs(at_y - mp.mpf(res.value)) <= mp.mpf(res.error_bound) + drift, (delta, f)


@pytest.mark.parametrize(
    "r, n",
    [(0.05, 1_000), (0.05, 100_000), (1.0, 10), (2.0, 31), (3.1, 1_000),
     (math.pi - 1e-9, 99_999), (1e-4, 50_000), (1e-5, 1_000)],
)
def test_direct_oracle_bound(r, n):
    res = specfun._cl2_direct(r, n)  # r in (0, pi]: no reduction
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


def _beta(s):
    """beta(s) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4)) for s > 1."""
    return (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4)) / mp.mpf(4) ** s


def test_zeta_e_weighted_bound_at_every_k_to_400():
    # zeta_E(2k)(1 - 4^-k) = beta(2k+1).  math.pi**(2k+1) carries 2k+1 times
    # the relative error of math.pi, past 16 eps from k = 45; the exact
    # coefficient is subnormal from k = 309 and pi**621 overflows
    with mp.workdps(40):
        for k in range(401):
            res = zeta_e_weighted(k)
            truth = mp.pi / 4 if k == 0 else _beta(mp.mpf(2 * k + 1))
            assert abs(mp.mpf(res.value) - truth) <= mp.mpf(res.error_bound), k


@pytest.mark.parametrize("s", [511.0, 511.99, 512.0, 513.0, 600.0, 1e6])
def test_beta_bound_where_four_to_the_s_overflows(s):
    # the Hurwitz route's head term 0.25^-s overflows from s = 512
    res = dirichlet_beta(s)
    with mp.workdps(40):
        assert abs(mp.mpf(res.value) - _beta(mp.mpf(s))) <= mp.mpf(res.error_bound)


def test_beta_bound_over_its_whole_domain():
    # s - 1 drawn log-uniformly over [2^-45, 511], plus s = 1 + 2^-k down to
    # the float next to 1: each Hurwitz zeta there is near 1/(s - 1), so 40
    # digits keep over 80 bits after the difference cancels
    rng = random.Random(36)
    lo, hi = math.log(2.0 ** -45), math.log(511.0)
    grid = [1.0 + math.exp(rng.uniform(lo, hi)) for _ in range(150)]
    grid += [1.0 + 2.0 ** -k for k in range(1, 53)]
    with mp.workdps(40):
        for s in grid:
            res = dirichlet_beta(s)
            assert abs(mp.mpf(res.value) - _beta(mp.mpf(s))) <= mp.mpf(res.error_bound), s


def _excess(m: int):
    """lambda(m) - 1 for even m, where lambda(m) = zeta(m)(1 - 2^-m), and
    beta(m) - 1 for odd m, from Hurwitz zetas so that nothing cancels:
    lambda(m) - 1 = 2^-m zeta(m, 3/2), beta(m) - 1 = 4^-m (zeta(m, 5/4) - zeta(m, 3/4))."""
    if m == 1:
        return mp.pi / 4 - 1
    if m % 2 == 0:
        return mp.zeta(m, mp.mpf(3) / 2) / mp.mpf(2) ** m
    return (mp.zeta(m, mp.mpf(5) / 4) - mp.zeta(m, mp.mpf(3) / 4)) / mp.mpf(4) ** m


# family id -> (pi power m of the closed form, its true value) per parameter;
# SUM_28 also has its published variant, with the minus sign
_FAMILY_TRUTH = {
    "THM_21": lambda m: (m, mp.mpf(1) / m if m % 2 else (1 + 2 * _excess(m)) / m),
    "THM_29": lambda m: (m, (1 if m % 2 == 0 else -1) * _excess(m) / m),
    "SUM_28": lambda k: (2 * k, (1 + _excess(2 * k)) / k + mp.mpf(1) / (2 * k * (2 * k - 1))),
    "SUM_37": lambda k: (2 * k, (1 + _excess(2 * k)) / (2 * k)),
    "SUM_38": lambda k: (2 * k + 1, (1 + _excess(2 * k + 1)) / (2 * k + 1)),
}


def test_family_closed_forms_at_every_parameter():
    # the float closed form carries pi^m, whose relative error grows like m eps
    # while the pi^m term's size falls like 1/m, plus a few roundings of
    # values below 1: (m + 4) eps / m absolute covers both
    eps = sys.float_info.epsilon
    families = [e for e in catalog.registry().values() if e.is_family and e.verifiable]
    assert {e.id for e in families} == set(_FAMILY_TRUTH)
    with mp.workdps(DPS):
        for entry in families:
            for p in range(entry.param_min, catalog.PARAM_CAP + 1):
                key = CatalogKey(entry.id, p)
                m, truth = _FAMILY_TRUTH[entry.id](p)
                bound = (m + 4) * eps / m
                assert abs(mp.mpf(catalog.closed_form(key)) - truth) <= bound, key
                if entry.id == "SUM_28":
                    printed = truth - mp.mpf(1) / (p * (2 * p - 1))
                    assert abs(mp.mpf(catalog.printed_closed_form(key)) - printed) <= bound, key


@pytest.mark.parametrize("order, z", [(171, 50.0), (175, 40.0), (180, 30.0), (171, 3.0)])
def test_polygamma_bound_past_order_170(order, z):
    # order! leaves the float range from 171 on, while psi_n(z) stays in it
    # (polygamma(171, 50) = 7.68e16)
    res = polygamma(order, z)
    with mp.workdps(DPS):
        assert _within_bound(res, mp.polygamma(order, mp.mpf(z)))
