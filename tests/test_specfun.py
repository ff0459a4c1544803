import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetakit
from zetakit import catalog, specfun, verifier
from zetakit.exact import beta_odd_exact, bernoulli, zeta_e_exact, zeta_even_exact
from zetakit.quadrature import QuadratureResult
from zetakit.specfun import (
    CL2_METHODS,
    EvalResult,
    ZETA_EVEN_LEN,
    catalan,
    cl2_drift,
    clausen_cl2,
    dirichlet_beta,
    euler_gamma,
    hurwitz_zeta,
    polygamma,
    riemann_zeta,
    zeta_e_weighted,
    zeta_even_float,
    zeta_even_m1_float,
    zeta_even_table,
    zeta_m1_float,
    zeta_minus_one,
)
from zetakit.summation import CompensatedSum

PI = math.pi


# --- independent oracles -----------------------------------------------------

def apery_zeta3():
    """zeta(3) from the central-binomial alternating series; 40 terms leave
    a tail below 1e-27."""
    total = 0.0
    for n in range(1, 41):
        term = 1.0 / (n ** 3 * math.comb(2 * n, n))
        total += term if n % 2 == 1 else -term
    return 2.5 * total


def alternating_midpoint(terms):
    """Midpoint of the last two partial sums of an alternating series with
    decreasing convex magnitudes: error <= (a_{N+1} - a_{N+2})/2."""
    partial = np.cumsum(terms)
    return 0.5 * (partial[-1] + partial[-2])


def catalan_oracle():
    n = np.arange(0, 1_000_001, dtype=np.float64)
    return alternating_midpoint((-1.0) ** n / (2 * n + 1) ** 2)


def beta4_oracle():
    n = np.arange(0, 200_001, dtype=np.float64)
    return alternating_midpoint((-1.0) ** n / (2 * n + 1) ** 4)


def gamma_oracle():
    n = 100_000
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n)


# --- riemann zeta -------------------------------------------------------------

def test_zeta_two_matches_pi_squared_over_six():
    z2 = riemann_zeta(2.0)
    assert abs(z2.value - PI ** 2 / 6) <= 1e-13 * (PI ** 2 / 6)


def test_zeta_zero_is_exact():
    res = riemann_zeta(0.0)
    assert res.value == -0.5
    assert res.terms_used == 0
    assert res.error_bound == 0.0


def test_zeta_three_vs_apery_oracle():
    assert abs(riemann_zeta(3.0).value - apery_zeta3()) <= 1e-12


def test_zeta_even_agreement():
    for n in range(1, 11):
        exact = zeta_even_exact(n).numeric()
        assert abs(riemann_zeta(2.0 * n).value - exact) <= 1e-12 * exact


def test_zeta_errors():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(-2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            riemann_zeta(bad)
        with pytest.raises(ValueError):
            dirichlet_beta(bad)
        with pytest.raises(ValueError):
            hurwitz_zeta(bad, 1.0)


def test_zeta_alternating_region():
    # brute alternating oracle: midpoint of bracketing partials of eta(s)
    s = 0.5
    n = np.arange(1, 1_000_001, dtype=np.float64)
    eta = alternating_midpoint((-1.0) ** (n - 1) * n ** (-s))
    oracle = eta / (1.0 - 2.0 ** (1.0 - s))
    res = riemann_zeta(s)
    assert abs(res.value - oracle) <= 1e-9
    assert res.error_bound < 1e-13


def test_zeta_unit_interval_keeps_its_bits():
    # the 0 < s < 1 branch (accelerated eta): a 1/4096 grid, s near the pole
    # and s = 2^-k from 2^-13 down to the least subnormal
    grid = [j / 4096 for j in range(1, 4096)] + [0.999, 0.9999]
    grid += [1.0 - 2.0 ** -k for k in range(10, 53)]
    grid += [2.0 ** -k for k in range(13, 1075)]
    digest = hashlib.sha256()
    for s in grid:
        r = riemann_zeta(s)
        digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
    assert grid[-1] == math.ulp(0.0)
    assert digest.hexdigest() == "befea08d4562e16ecdc2a56510654f2563fe2861c9b214fb420ce7102e23c538"


def test_zeta_minus_one_full_precision():
    # at s = 60 the value is dominated by 2^-60; relative agreement must hold
    direct = sum(float(k) ** -60.0 for k in range(2, 40))
    res = zeta_minus_one(60.0)
    assert abs(res.value - direct) <= 1e-15 * direct
    with pytest.raises(ValueError):
        zeta_minus_one(1.0)


def test_zeta_even_float_views():
    assert zeta_even_float(0) == -0.5
    assert abs(zeta_even_float(1) - PI ** 2 / 6) < 1e-15
    # past the table the constant 1.0 is the float 1 + (zeta - 1)
    assert zeta_even_float(40) == 1.0 + zeta_even_m1_float(40)
    # the subtraction on the oracle side costs ~1 ulp of zeta(4) itself
    assert abs(zeta_even_m1_float(2) - (PI ** 4 / 90 - 1.0)) < 1e-15
    with pytest.raises(ValueError):
        zeta_even_float(-1)
    with pytest.raises(ValueError):
        zeta_even_m1_float(0)


def test_zeta_even_float_is_one_past_the_table():
    # for n >= 27, 0 < zeta(2n) - 1 < 2^-53, half an ulp of 1.0: the constant
    # past the table is the float 1 + zeta_minus_one(2n), bit for bit
    assert len(zeta_even_table()) == ZETA_EVEN_LEN
    for n in (*range(ZETA_EVEN_LEN, 5001), 10 ** 6):
        assert zeta_even_float(n) == 1.0 == 1.0 + zeta_minus_one(2.0 * n).value, n


def test_zeta_even_m1_float_is_zero_from_538_and_caches_no_more():
    # zeta(2n) - 1 < 2^-2n (1 + 2/(2n-1)) rounds to +0.0 from n = 538 on; the
    # view returns it without a zeta_minus_one call, so a deep stream leaves
    # at most 537 even m in the zeta(m) - 1 table
    assert zeta_minus_one(2 * 537.0).value > 0.0
    assert zeta_minus_one(2 * 538.0).value == 0.0
    for n in (*range(1, 3001), 10 ** 6, 10 ** 15):
        assert zeta_even_m1_float(n).hex() == zeta_minus_one(2.0 * n).value.hex(), n
    for _ in itertools.islice(catalog.partial_sums(catalog.CatalogKey("RZS_LOG2")), 5000):
        pass
    assert sum(1 for m in specfun._ZETA_M1 if m % 2 == 0) <= 537


def test_zeta_m1_float_is_zeta_minus_one_and_stays_bounded():
    # one function serves zeta(m) - 1 at every integer m: the rational zeta
    # series read it at m = n + 1, and zeta_even_m1_float and the catalogue's
    # zeta(2n) - 1 terms read its table at m = 2n.  Each value is
    # zeta_minus_one's, bit for bit; from m = 1075 on that is +0.0 (each head
    # term is at most 2^-1075, a tie that rounds to 0.0), returned unkept
    assert zeta_minus_one(1074.0).value == math.ldexp(1.0, -1074)
    assert zeta_minus_one(1075.0).value == 0.0
    rng = random.Random(1075)
    sampled = [rng.randrange(1101, 10 ** k) for k in range(4, 16) for _ in range(20)]
    for m in (*range(2, 1101), *sampled, 10 ** 15):
        assert zeta_m1_float(m).hex() == zeta_minus_one(float(m)).value.hex(), m
    for _ in itertools.islice(catalog.partial_sums(catalog.CatalogKey("RZS_ONE")), 5000):
        pass
    for _ in itertools.islice(catalog.partial_sums(catalog.CatalogKey("RZS_GAMMA")), 5000):
        pass
    assert set(specfun._ZETA_M1) <= set(range(2, 1075))


@pytest.mark.parametrize("bad", [1, 0, -4, 2.5, 3.0, True, "2"], ids=repr)
def test_zeta_m1_float_takes_only_an_int_from_2(bad):
    # m is checked on every read, whatever the table holds: 3.0 is refused
    # with m = 3 kept
    assert zeta_m1_float(3).hex() == zeta_minus_one(3.0).value.hex()
    with pytest.raises(ValueError):
        zeta_m1_float(bad)


@pytest.mark.parametrize("n", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("view", [zeta_even_float, zeta_even_m1_float], ids=lambda f: f.__name__)
def test_zeta_even_views_take_only_an_int(view, n):
    # the package's int-not-bool rule (exact.check_int): no zeta(5) - 1 for
    # n = 2.5, no zeta(2) for True, and a ValueError rather than a TypeError
    with pytest.raises(ValueError, match="must be an int"):
        view(n)


# --- hurwitz zeta ---------------------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 6.0, 8.0])
def test_hurwitz_interrelations(s):
    z = riemann_zeta(s).value
    assert abs(hurwitz_zeta(s, 1.0).value - z) <= 1e-11 * z
    assert abs(hurwitz_zeta(s, 0.5).value / (2.0 ** s - 1.0) - z) <= 1e-11 * z
    assert abs(1.0 + hurwitz_zeta(s, 2.0).value - z) <= 1e-11 * z


def test_hurwitz_vs_brute_sum():
    s, a, n = 2.5, 0.75, 100_000
    k = np.arange(0, n, dtype=np.float64)
    brute = float(np.sum((k + a) ** (-s))) + (n + a) ** (1 - s) / (s - 1)
    # integral-test slack for replacing the tail by its integral
    assert abs(hurwitz_zeta(s, a).value - brute) <= (n + a) ** (-s)


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 40.0), st.floats(0.25, 2.0))
def test_hurwitz_defining_sum_head(s, a):
    # removing the first term shifts the parameter by one; for large s and
    # small a the subtraction cancels ~a^-s, so the slack must see that size
    h = hurwitz_zeta(s, a).value
    lhs = h - a ** (-s)
    rhs = hurwitz_zeta(s, a + 1.0).value
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs)) + 1e-14 * h


def test_power_sums_keep_their_bits():
    # zeta_minus_one (18 head terms from a = 2) and hurwitz_zeta share one
    # power-sum routine; the digest was taken when each had its own loop
    rng = random.Random(1605)
    grid = [(2.0 * n, None) for n in range(1, 800)]
    grid += [(rng.uniform(1.0001, 4.0), None) for _ in range(400)]
    grid += [(rng.uniform(4.0, 400.0), None) for _ in range(400)]
    grid += [(rng.uniform(1.0001, 60.0), rng.uniform(0.05, 50.0)) for _ in range(1200)]
    digest = hashlib.sha256()
    for s, a in grid:
        r = zeta_minus_one(s) if a is None else hurwitz_zeta(s, a)
        digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
    assert digest.hexdigest() == "11cda12d62b7b97c177097e0881d19ab5b4d12cb6ea269bda7cbcd5d840e1662"
    for bad in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="zeta_minus_one requires finite s > 1"):
            zeta_minus_one(bad)
        with pytest.raises(ValueError, match="hurwitz_zeta requires finite s > 1"):
            hurwitz_zeta(bad, 1.0)


def test_power_sum_edges_keep_their_bits():
    # the edges the grid above misses: a below 0.05, s within 1e-4 of the
    # pole, head terms past the float range (recorded as their ValueError),
    # zeta and beta on a 1/256 grid, and the two constants
    rng = random.Random(2387)
    rows = [(rng.uniform(1.0001, 60.0), rng.uniform(1e-3, 0.05)) for _ in range(600)]
    rows += [(rng.uniform(60.0, 400.0), rng.uniform(1e-3, 0.05)) for _ in range(300)]
    rows += [(1.0 + 10.0 ** -rng.uniform(4.0, 15.0), rng.uniform(1e-3, 50.0)) for _ in range(300)]
    rows += [(1.0 + 2.0 ** -k, None) for k in range(14, 53)]
    digest = hashlib.sha256()

    def record(fn, *args):
        try:
            r = fn(*args)
        except ValueError as exc:
            digest.update(f"ValueError {exc}\n".encode())
            return 1
        digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
        return 0

    failed = sum(record(zeta_minus_one, s) if a is None else record(hurwitz_zeta, s, a) for s, a in rows)
    assert 0 < failed < 300  # some, not all, of the large-s rows overflow a head term
    for j in range(282, 40 * 256 + 1):  # s = j/256 over [1.1, 40]
        record(riemann_zeta, j / 256)
        record(dirichlet_beta, j / 256)
    record(catalan)
    record(euler_gamma)
    assert digest.hexdigest() == "6e718a1d7048ec0c9a0147a8344aaf772267b679c49de45af24fbaaeb3d63349"


def test_zeta_past_the_rising_factorial_range():
    # from s ~ 4.77e14 the rising factorial of the corrections overflows to
    # inf while x^(-s-1) is 0.0; the corrections are +-0.0 there, not NaN
    eps16 = 16 * sys.float_info.epsilon
    for s in (4e14, 4.77e14, 1e15, 1e300):
        assert riemann_zeta(s) == (1.0, 28, eps16), s
        assert zeta_minus_one(s) == (0.0, 28, 0.0), s
        assert hurwitz_zeta(s, 3.0) == (0.0, 30, 0.0), s
    assert riemann_zeta(sys.float_info.max) == (1.0, 28, eps16)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, allow_infinity=False) | st.floats(0.0, 1e-300), max_size=40))
def test_inline_neumaier_on_nonnegative_terms_equals_compensated_sum(terms):
    # the power-sum head (_power_sum), the Cl2 series loop (_cl2_series) and
    # the catalogue's family scans inline the Neumaier update with hi >= t in
    # place of abs(hi) >= abs(t): on terms >= +0.0 both running sums are
    # >= +0.0, so the two tests pick the same branch
    ref = CompensatedSum()
    hi = lo = 0.0
    for t in terms:
        ref.add(t)
        u = hi + t
        lo += (hi - u) + t if hi >= t else (t - u) + hi
        hi = u
    assert (hi + lo).hex() == ref.value.hex()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-300, 1e-300), max_size=40))
def test_inline_neumaier_on_terms_of_either_sign_equals_compensated_sum(terms):
    # the eta loop of riemann_zeta on (0, 1) inlines the update with the
    # general test abs(hi) >= abs(t), as its weighted terms alternate in sign
    ref = CompensatedSum()
    hi = lo = 0.0
    for t in terms:
        ref.add(t)
        u = hi + t
        lo += (hi - u) + t if abs(hi) >= abs(t) else (t - u) + hi
        hi = u
    assert (hi + lo).hex() == ref.value.hex()


# --- dirichlet beta / catalan ----------------------------------------------------

def test_beta_three():
    exact = beta_odd_exact(1).numeric()  # pi^3/32
    assert abs(dirichlet_beta(3.0).value - exact) <= 1e-13 * exact
    assert exact == pytest.approx(PI ** 3 / 32, rel=1e-15)


def test_beta_one_and_domain():
    assert dirichlet_beta(1.0).value == PI / 4
    with pytest.raises(ValueError):
        dirichlet_beta(0.5)


def _beta_two_hurwitz_calls(s):
    """The two-call route that dirichlet_beta's one pass replaced, kept as its reference."""
    h14 = hurwitz_zeta(s, 0.25)
    h34 = hurwitz_zeta(s, 0.75)
    scale = 4.0 ** (-s)
    value = scale * (h14.value - h34.value)
    bound = scale * (h14.error_bound + h34.error_bound) + 16 * sys.float_info.epsilon * abs(value)
    return value, h14.terms_used + h34.terms_used, bound


def test_beta_one_pass_equals_two_hurwitz_calls():
    # where test_power_sum_edges_keep_their_bits does not look: s past 40; the
    # band where x^(-s-1) is 0.0 at x = 20.75 (from s = 244.712) but not yet at
    # x = 20.25 (until s = 246.704); s next to the pole; the last s below 512
    grid = [40.0 + j / 16 for j in range(472 * 16)]
    grid += [511.99, math.nextafter(512.0, 0.0)]
    grid += [244.70 + j / 4096 for j in range(round(2.01 * 4096) + 1)]
    grid += [1.0 + 2.0 ** -k for k in range(1, 53)]
    for s in grid:
        got = dirichlet_beta(s)
        want = _beta_two_hurwitz_calls(s)
        assert (got.value.hex(), got.terms_used, got.error_bound.hex()) == (
            want[0].hex(), want[1], want[2].hex()), s


def test_beta_four_vs_oracle():
    assert abs(dirichlet_beta(4.0).value - beta4_oracle()) <= 1e-13


def test_catalan_digits_and_oracle():
    g = catalan()
    assert abs(g.value - catalan_oracle()) <= 1e-12
    assert abs(g.value - 0.91596559417721901) <= 1e-13 * 0.916
    assert f"{g.value:.16g}".startswith("0.9159")
    assert g.value == dirichlet_beta(2.0).value


def test_catalan_matches_clausen_quarter_turn():
    assert abs(catalan().value - clausen_cl2(PI / 2).value) <= 1e-11


def test_beta_odd_matches_exact_forms():
    for n in range(0, 5):
        exact = beta_odd_exact(n).numeric()
        value = dirichlet_beta(2.0 * n + 1.0).value
        assert abs(value - exact) <= 1e-11 * abs(exact)


# --- gamma / polygamma ------------------------------------------------------------

def test_euler_gamma():
    res = euler_gamma()
    assert 0.57 < res.value < 0.58
    assert abs(res.value - gamma_oracle()) <= 1e-13


def test_gamma_vs_rational_zeta_series():
    # 1 - gamma = sum_{m>=2} (zeta(m) - 1)/m
    total = sum(zeta_minus_one(float(m)).value / m for m in range(2, 60))
    assert abs((1.0 - euler_gamma().value) - total) <= 1e-10


def test_polygamma_values():
    assert abs(polygamma(1, 1.0).value - PI ** 2 / 6) <= 1e-12
    assert abs(polygamma(3, 1.0).value - PI ** 4 / 15) <= 1e-11
    diff = polygamma(3, 0.25).value - polygamma(3, 0.75).value
    assert abs(diff - 1536.0 * dirichlet_beta(4.0).value) <= 1e-9
    with pytest.raises(ValueError):
        polygamma(0, 1.0)
    with pytest.raises(ValueError):
        polygamma(1, -1.0)


@pytest.mark.parametrize("call", [lambda: hurwitz_zeta(1600.0, 0.01), lambda: polygamma(300, 0.01),
                                  lambda: polygamma(170, 0.1), lambda: polygamma(171, 1.0)],
                         ids=["hurwitz(1600, 0.01)", "polygamma(300, 0.01)", "polygamma(170, 0.1)",
                              "polygamma(171, 1.0)"])
def test_values_past_the_float_range_are_value_errors(call):
    # the head term (n + a)^-s, n!, or the product of the two overflows; at
    # order 171 the ldexp that restores n!'s scale raises OverflowError
    with pytest.raises(ValueError, match="exceeds the float range"):
        call()


@pytest.mark.parametrize("order, z", [(150, 1000.0), (60, 1e6), (40, 1e9), (200, 1000.0)])
def test_polygamma_raises_where_the_hurwitz_zeta_underflows(order, z):
    # psi is a normal float at each (-4.10e-190 at (150, 1000)), but
    # zeta(order + 1, z) is below the least normal float: no digits are left
    with pytest.raises(ValueError, match="underflows the float range"):
        polygamma(order, z)


def test_polygamma_keeps_its_bits_through_order_170():
    # every order whose n! is a float, at z where zeta(n + 1, z) is a normal
    # float; a ValueError (the product overflows) is part of the digest
    rng = random.Random(171)
    zs = [0.1, 0.5, 1.0, 3.0, 12.5, 50.0] + [rng.uniform(0.05, 50.0) for _ in range(6)]
    digest, raised = hashlib.sha256(), 0
    for order in range(1, 171):
        for z in zs:
            try:
                r = polygamma(order, z)
            except ValueError:
                raised += 1
                digest.update(b"ValueError\n")
                continue
            digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
    assert raised == 74
    assert digest.hexdigest() == "79ccc0314b03d71bf1dcd2d50cc3f07a992ddf414b3c900da7a82749a56790a2"


@pytest.mark.parametrize("order, z, message", [
    (1, 1e-200, r"^polygamma\(1, 1e-200\) exceeds the float range$"),  # z^-2 past the float range
    (1, math.inf, "^polygamma requires finite z > 0$"),
    (1, math.nan, "^polygamma requires finite z > 0$"),
    (10**400, 1.0, "^polygamma: the order exceeds the float range$"),  # order + 1.0 overflows
    (10**5000, 1.0, "^polygamma: the order exceeds the float range$"),  # past str()'s digit limit too
], ids=["z=1e-200", "z=inf", "z=nan", "order=10**400", "order=10**5000"])
def test_polygamma_errors_name_polygamma(order, z, message):
    # these once carried hurwitz_zeta's messages, or an OverflowError from int to float
    with pytest.raises(ValueError, match=message):
        polygamma(order, z)


@pytest.mark.parametrize("order, z", [(301, 1.0), (400, 0.9), (10**5, 1.0), (10**20, 1.0), (2**1000, 1.0)],
                         ids=["301", "400", "10**5", "10**20", "2**1000"])
def test_polygamma_past_order_300_builds_no_factorial(order, z, monkeypatch):
    # 301! 2^-1022, n! times the least normal zeta(n + 1, z), exceeds the
    # largest float (an integer), and 300! 2^-1022 does not
    largest = int(sys.float_info.max)
    assert math.factorial(301) > largest << 1022 > math.factorial(300)
    sizes, factorial = [], math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: sizes.append(n) or factorial(n))
    with pytest.raises(ValueError, match=rf"^polygamma\({order}, {z!r}\) exceeds the float range$"):
        polygamma(order, z)
    assert all(n <= 300 for n in sizes)


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("call", [lambda k: polygamma(k, 1.0), zeta_e_weighted],
                         ids=["polygamma", "zeta_e_weighted"])
def test_integer_orders_must_be_ints(call, bad):
    # polygamma(True, 1.0) used to return psi_1(1) and zeta_e_weighted(True)
    # a value, while 2.0 raised TypeError from math.factorial or a list index
    with pytest.raises(ValueError, match="must be an int"):
        call(bad)


# --- zeta_E weights -----------------------------------------------------------------

def test_zeta_e_weighted():
    assert zeta_e_weighted(0).value == PI / 4
    assert abs(zeta_e_weighted(1).value - PI ** 3 / 32) <= 1e-14
    assert abs(zeta_e_weighted(2).value - (PI ** 5 / 288) * (15.0 / 16.0)) <= 1e-13
    with pytest.raises(ValueError):
        zeta_e_weighted(-1)


def test_floats_equal_the_fraction_route_bit_for_bit():
    # the integer quotients round exactly as float(Fraction) of the exact
    # closed forms did, in the same operation order
    from zetakit import specfun

    for n in range(1, 31):
        assert zeta_even_float(n) == zeta_even_exact(n).numeric(), n
    for k in range(1, 309):
        assert zeta_e_weighted(k).value == zeta_e_exact(k).numeric() * (1.0 - 4.0 ** (-k)), k
    for k in range(1, 12):  # the Euler-Maclaurin coefficients B_2k / (2k)! and euler_gamma's B_2k / (2k)
        assert specfun._em_coefficients()[k - 1] == float(bernoulli(2 * k)) / math.factorial(2 * k), k
        assert specfun._gamma_coefficients()[k - 1] == float(bernoulli(2 * k)) / (2 * k), k


def test_zeta_e_weight_limit_consistency():
    # the k = 0 weight pi/4 is pinned by sum 2 zeta(2n)(4^-n - 16^-n)
    total = sum(2.0 * zeta_even_float(n) * (4.0 ** -n - 16.0 ** -n) for n in range(1, 60))
    assert abs(total - PI / 4) <= 1e-12


# --- Clausen function ----------------------------------------------------------------

def _direct_unreduced(theta, n):
    k = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(np.sin(k * theta) / (k * k)))


def test_cl2_zero_at_integer_pi():
    for mult in (1, 2, 3, -1):
        for method in ("accel", "peeled", "wzl", "auto"):
            assert abs(clausen_cl2(mult * PI, method).value) <= 1e-11


def test_cl2_quarter_turn_is_catalan():
    g = catalan().value
    for method in ("accel", "peeled", "wzl", "auto"):
        assert abs(clausen_cl2(PI / 2, method).value - g) <= 1e-11
    assert abs(clausen_cl2(3 * PI / 2).value + g) <= 1e-11


def test_cl2_zero_argument():
    res = clausen_cl2(0.0)
    assert res.value == 0.0


def test_cl2_least_subnormal_argument():
    # 0.5 * 5e-324 underflows to 0; wzl took log(2 sin(0)) there
    tiny = 5e-324
    for method in ("accel", "peeled", "wzl", "auto"):
        res = clausen_cl2(tiny, method)
        # Cl2(r) = r(1 - log r) + O(r^3) = 3.6813e-321, a subnormal
        assert abs(res.value - 3.6813e-321) <= res.error_bound
        assert clausen_cl2(-tiny, method).value == -res.value


def test_cl2_periodic_reduction():
    # 5 pi/2 reduces to pi/2; oracle is the unreduced direct sum
    oracle = _direct_unreduced(2.5 * PI, 1_000_000)
    assert abs(clausen_cl2(2.5 * PI).value - oracle) <= 1.1e-6
    assert abs(clausen_cl2(2.5 * PI).value - catalan().value) <= 1e-11


def test_cl2_odd_symmetry():
    for theta in (0.3, 1.0, 2.2, 4.0, 6.1):
        a = clausen_cl2(theta).value
        b = clausen_cl2(-theta).value
        assert abs(a + b) <= 1e-9


def test_cl2_methods_agree_on_grid():
    for i in range(64):
        theta = 0.05 + i * (2 * PI - 0.1) / 63
        vals = [clausen_cl2(theta, m).value for m in ("accel", "peeled", "wzl")]
        assert max(vals) - min(vals) <= 1e-9
        direct = clausen_cl2(theta, "direct").value
        assert abs(direct - vals[0]) <= 1e-6


def test_cl2_error_bounds_cover_true_error():
    # truth proxy: median of the three accelerated methods
    for i in range(32):
        theta = 0.05 + i * (2 * PI - 0.1) / 31
        res = {m: clausen_cl2(theta, m) for m in ("accel", "peeled", "wzl")}
        med = sorted(r.value for r in res.values())[1]
        for r in res.values():
            assert abs(r.value - med) <= r.error_bound
    d = clausen_cl2(2.0, "direct")
    d_hi = specfun._cl2_direct(2.0, 10_000_000)
    assert abs(d.value - d_hi.value) <= d.error_bound


def test_cl2_odd_symmetry_is_exact():
    # oddness is applied before the 2 pi reduction, so it costs nothing
    for theta in (0.0011, 1.0, 4.0, 6.2455, 1e4):
        for method in CL2_METHODS:
            pos, neg = clausen_cl2(theta, method), clausen_cl2(-theta, method)
            assert neg.value == -pos.value
            assert neg.error_bound == pos.error_bound


def test_cl2_float_two_pi_is_not_an_exact_zero():
    # fmod(TWO_PI, TWO_PI) = 0, but Cl2 at the true reduced angle is ~1e-14
    res = clausen_cl2(2 * PI)
    assert res.value == 0.0
    assert 1e-14 <= res.error_bound <= 1e-13


def test_cl2_keeps_its_bits():
    # the series methods on a 1/256 grid over |theta| <= 4 pi, at 2^-k down to
    # the least subnormal, close to the zeros c pi and 2 pi k, and at +-10^k;
    # then the direct sum at 16 angles and the cross-check report
    grid = [j / 256 for j in range(-int(4 * PI * 256), int(4 * PI * 256) + 1)]
    grid += [2.0 ** -k for k in range(1075)]
    grid += [c * PI + d * 10.0 ** (-j / 16) for c in (-3, -1, 1, 3) for d in (-1, 1) for j in range(257)]
    grid += [2 * PI * k + d * 10.0 ** (-j / 8) for k in (-1000, -1, 1, 2, 3, 1000, 10 ** 6)
             for d in (-1, 1) for j in range(129)]
    grid += [d * 10.0 ** k for k in range(3, 301) for d in (-1, 1)]
    digest = hashlib.sha256()
    for theta in grid:
        for method in ("accel", "wzl", "peeled", "auto"):
            r = clausen_cl2(theta, method)
            digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
    for i in range(16):
        r = clausen_cl2(0.05 + i * (2 * PI - 0.1) / 15, "direct")
        digest.update(f"{r.value.hex()} {r.terms_used} {r.error_bound.hex()}\n".encode())
    digest.update(repr(verifier.cross_check_clausen()).encode())
    assert math.ulp(0.0) in grid
    assert digest.hexdigest() == "ec1f6df584abbdc12f7a6ba636442af93362e6608f4d7f3db5884e16d6d62db4"


@pytest.mark.parametrize("method, depth", [("accel", 24), ("wzl", 27), ("peeled", 12)])
def test_cl2_series_stops_before_its_table_ends(method, depth):
    # the series loop runs over its 64-entry coefficient table: on every
    # reduced angle r in (0, pi] its stop rule fires first, so the table's
    # length sets no output.  The deepest r is pi, where q = 1/4.
    specfun._cl2_coefficients.cache_clear()
    specfun._ZETA_M1.clear()
    table = specfun._cl2_coefficients(method)
    assert len(table) == 64
    # the peeled table reads zeta(m) - 1 at m = 2n <= 128 and keeps no more
    assert set(specfun._ZETA_M1) == (set(range(2, 129, 2)) if method == "peeled" else set())
    grid = [PI * j / 8192 for j in range(1, 8192)] + [2.0 ** -k for k in range(1, 1075)] + [PI]
    assert max(specfun._cl2_series(r, method).terms_used for r in grid) == depth < len(table)
    assert specfun._cl2_series(PI, method).terms_used == depth


def test_cl2_direct_default_depth():
    grid = [0.05 + i * (2 * PI - 0.1) / 15 for i in range(16)]
    grid += [1e-3, -0.0011, 6.2455, 3 * PI + 1e-9, 1e4, 1e6]
    for theta in grid:
        res = clausen_cl2(theta, "direct")
        assert res.error_bound <= 1e-6
        assert 1 <= res.terms_used < 1_000_000
        # the least depth: one term fewer misses 1e-6, reduction allowance included
        r, _, spread = specfun._cl2_reduce(theta)
        assert specfun._direct_bound(r, res.terms_used - 1) + spread > 1e-6


@pytest.mark.parametrize("theta, depth", [(104719755115.47098, 5418), (1e12, 338), (1e300, 1)])
def test_cl2_direct_depth_past_the_allowance(monkeypatch, theta, depth):
    # the reduction allowance is 1e-6 or more, so the depth meets the
    # allowance itself; at the first theta r is 2.5e-6 and the Abel estimate
    # alone is 65248 terms, which the search once walked down one at a time
    r, _, spread = specfun._cl2_reduce(theta)
    bound, calls = specfun._direct_bound, []
    monkeypatch.setattr(specfun, "_direct_bound", lambda r, n: calls.append(n) or bound(r, n))
    res = clausen_cl2(theta, "direct")
    assert res.terms_used == depth
    assert bound(r, depth) <= spread and (depth == 1 or bound(r, depth - 1) > spread)
    assert len(calls) <= 8


def test_import_leaves_numpy_unloaded():
    # a fresh interpreter that imports the zetakit under test, from its own path
    src = os.path.dirname(os.path.dirname(zetakit.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import zetakit; "
            "zetakit.clausen_cl2(1.0, 'direct'); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cl2_rejects_bad_input():
    with pytest.raises(ValueError):
        clausen_cl2(float("inf"))
    with pytest.raises(ValueError):
        clausen_cl2(1.0, "newton")
    assert "auto" in CL2_METHODS


def test_cl2_drift_rejects_bad_input():
    for theta, delta in ((1.0, -1e-16), (1.0, math.nan), (math.inf, 1e-16), (math.nan, 1e-16)):
        with pytest.raises(ValueError):
            cl2_drift(theta, delta)
    assert cl2_drift(1.0, math.inf) == cl2_drift(1.0, 4.0) > 2.03  # the range of Cl2


@settings(max_examples=40, deadline=None)
@given(st.floats(-20.0, 20.0, allow_nan=False), st.sampled_from(["accel", "peeled", "wzl", "auto"]))
def test_cl2_result_invariants(theta, method):
    res = clausen_cl2(theta, method)
    assert math.isfinite(res.value)
    assert res.error_bound >= 0.0 and math.isfinite(res.error_bound)
    assert res.terms_used >= 0


# --- records ------------------------------------------------------------------

def test_result_records_validate_and_stay_frozen():
    for args, message in [
        ((1.0, 3, -1.0), "error_bound must be finite and >= 0"),
        ((1.0, 3, math.inf), "error_bound must be finite and >= 0"),
        ((1.0, 3, math.nan), "error_bound must be finite and >= 0"),
        ((1.0, -1, 0.0), "terms_used must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            EvalResult(*args)
    with pytest.raises(ValueError, match="^error_bound must be finite and >= 0$"):
        EvalResult(1.0, 3, 0.0)._replace(error_bound=-1.0)
    with pytest.raises(ValueError, match="^error_estimate must be >= 0$"):
        QuadratureResult(0.0, math.nan, 1)
    with pytest.raises(ValueError, match="^evaluations must be > 0$"):
        QuadratureResult(0.0, 0.0, 0)
    for record in (EvalResult(1.0, 3, 0.0), QuadratureResult(0.0, 0.0, 1)):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def test_eval_result_is_a_named_tuple():
    res = EvalResult(1.0, 3, 0.0)
    assert repr(res) == "EvalResult(value=1.0, terms_used=3, error_bound=0.0)"
    value, terms, bound = res
    assert (value, terms, bound) == res == (1.0, 3, 0.0)
    assert EvalResult._fields == ("value", "terms_used", "error_bound")
