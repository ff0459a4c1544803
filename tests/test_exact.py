import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit.exact import (
    PI_ERR,
    PI_REL_ERR,
    LaurentCoeff,
    PiPower,
    bernoulli,
    bernoulli_pair,
    beta_odd_exact,
    binomial,
    euler_number,
    pi_poly,
    pi_ratio,
    taylor_coeff,
    zeta_e_exact,
    zeta_even_exact,
    zigzag,
)


# --- binomial ----------------------------------------------------------------

def test_binomial_basics():
    assert binomial(4, 2) == 6
    assert binomial(7, 9) == 0
    for n in (0, 1, 5, 40):
        assert binomial(n, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 200), st.integers(0, 220))
def test_binomial_pascal(n, k):
    if n >= 1 and k >= 1:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# --- Bernoulli / Euler -------------------------------------------------------

def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(7) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_akiyama_tanigawa(bernoulli_ref):
    for n in range(41):
        assert bernoulli(n) == bernoulli_ref[n]


@settings(max_examples=30)
@given(st.integers(1, 40))
def test_bernoulli_recurrence(n):
    assert sum(binomial(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_euler_frozen_values():
    assert euler_number(0) == 1
    assert euler_number(2) == -1
    assert euler_number(5) == 0
    assert euler_number(10) == -50521


def test_euler_matches_sech_series(euler_ref):
    for n in range(31):
        assert euler_number(n) == euler_ref[n]


@settings(max_examples=30)
@given(st.integers(1, 20))
def test_euler_recurrence(m):
    n = 2 * m
    assert sum(binomial(n, 2 * k) * euler_number(2 * k) for k in range(m + 1)) == 0


def test_rationals_are_normalized():
    for n in range(0, 30):
        b = bernoulli(n)
        assert b.denominator > 0
        assert math.gcd(abs(b.numerator), b.denominator) == 1


def test_memo_tables_survive_concurrent_growth():
    import concurrent.futures

    def job(_):
        return bernoulli(80), euler_number(60)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(16)))
    assert len(set(results)) == 1
    assert results[0][0] == bernoulli(80)


# --- the zigzag table ----------------------------------------------------------

def test_zigzag_opens_like_a000111():
    assert [zigzag(k) for k in range(12)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792]
    with pytest.raises(ValueError):
        zigzag(-1)
    with pytest.raises(ValueError, match="^bernoulli requires n >= 0$"):
        bernoulli_pair(-1)


def test_tables_match_textbook_references_to_512(bernoulli_ref, euler_ref):
    assert len(bernoulli_ref) == len(euler_ref) == 513
    for n in range(513):
        b = bernoulli_ref[n]
        assert bernoulli_pair(n) == (b.numerator, b.denominator), n
        assert bernoulli(n) == b, n
        assert euler_number(n) == euler_ref[n], n


def test_table_grown_from_four_threads_equals_the_serial_table(monkeypatch):
    import threading

    from zetakit import exact

    def fresh_tables():
        monkeypatch.setattr(exact, "_zigzag", [1])
        monkeypatch.setattr(exact, "_row", [1])
        bernoulli_pair.cache_clear()

    fresh_tables()
    serial = [zigzag(k) for k in range(301)]
    serial_pairs = [bernoulli_pair(n) for n in range(301)]

    fresh_tables()
    tops = (300, 211, 150, 77)  # four threads, each to its own index
    barrier = threading.Barrier(len(tops), timeout=30)
    results = {}

    def grow(top):
        barrier.wait()
        results[top] = (zigzag(top), bernoulli_pair(top), bernoulli_pair(top - 1))

    threads = [threading.Thread(target=grow, args=(top,)) for top in tops]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert exact._zigzag == serial
    for top in tops:
        assert results[top] == (serial[top], serial_pairs[top], serial_pairs[top - 1]), top
    assert [bernoulli_pair(n) for n in range(301)] == serial_pairs


# --- pi-power closed forms ---------------------------------------------------

def test_zeta_even_exact_coefficients():
    assert zeta_even_exact(1) == PiPower(Fraction(1, 6), 2)
    assert zeta_even_exact(2) == PiPower(Fraction(1, 90), 4)
    assert zeta_even_exact(3) == PiPower(Fraction(1, 945), 6)
    with pytest.raises(ValueError):
        zeta_even_exact(0)


def test_zeta_even_exact_vs_direct_summation():
    # direct sum to 10^6 with the integral tail bound N^(1-2n)/(2n-1)
    m = np.arange(1, 1_000_001, dtype=np.float64)
    for n in range(1, 6):
        direct = float(np.sum(m ** (-2.0 * n)))
        bound = 1_000_000.0 ** (1 - 2 * n) / (2 * n - 1)
        assert abs(zeta_even_exact(n).numeric() - direct) <= bound + 1e-12


def test_beta_odd_exact_coefficients():
    assert beta_odd_exact(0) == PiPower(Fraction(1, 4), 1)
    assert beta_odd_exact(1) == PiPower(Fraction(1, 32), 3)
    assert beta_odd_exact(2) == PiPower(Fraction(5, 1536), 5)


def test_zeta_e_exact_coefficients():
    assert zeta_e_exact(1) == PiPower(Fraction(1, 24), 3)
    assert zeta_e_exact(2) == PiPower(Fraction(1, 288), 5)
    with pytest.raises(ValueError):
        zeta_e_exact(0)  # the 1 - 4^k factor vanishes


def test_numeric_is_the_rounded_coefficient_times_the_power():
    # pi_poly's one term is float(coeff) * math.pi**p: an integer quotient is
    # the correctly rounded Fraction, and 0.0 plus a float is that float
    for n in range(1, 200):
        for f in (zeta_even_exact, beta_odd_exact, zeta_e_exact):
            c = f(n)
            assert c.numeric() == float(c.coeff) * math.pi ** c.power, (f.__name__, n)
    assert pi_poly({3: (-1, 32), 0: (1, 1)}) == 1.0 + -1 / 32 * math.pi ** 3  # ascending order


def test_pi_ratio_matches_the_textbook_lambda_beta(lambda_beta_ref):
    # every m the family closed forms read at PARAM_CAP = 256
    for m in range(1, 514):
        assert Fraction(*pi_ratio(m)) == lambda_beta_ref[m], m
    for m in (0, -1):
        with pytest.raises(ValueError, match="^pi_ratio requires m >= 1$"):
            pi_ratio(m)


# --- integer arguments ----------------------------------------------------------

_INT_TAKERS = {  # test id: (a call of one argument, that argument's name)
    "binomial_n": (lambda v: binomial(v, 1), "n"),
    "binomial_k": (lambda v: binomial(3, v), "k"),
    "zigzag": (zigzag, "k"),
    "bernoulli_pair": (bernoulli_pair, "n"),
    "bernoulli": (bernoulli, "n"),
    "euler_number": (euler_number, "n"),
    "taylor_coeff": (lambda v: taylor_coeff("tan", v), "k"),
    "zeta_even_exact": (zeta_even_exact, "n"),
    "beta_odd_exact": (beta_odd_exact, "n"),
    "zeta_e_exact": (zeta_e_exact, "k"),
    "pi_ratio": (pi_ratio, "m"),
}


@pytest.mark.parametrize("bad", [True, 2.0, 1.5], ids=repr)
@pytest.mark.parametrize("call, name", _INT_TAKERS.values(), ids=_INT_TAKERS)
def test_integer_arguments_must_be_ints(call, name, bad):
    call(round(bad))  # a memoised entry at the same int must not let bad through
    with pytest.raises(ValueError, match=f"^{name} must be an int, not {bad!r}$"):
        call(bad)


# --- pi and its float math.pi ---------------------------------------------------

def _machin_pi(bits):
    """(lo, hi), integers with lo <= pi 2^bits <= hi, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    def arctan_inv(x):
        # 2^bits arctan(1/x) and its error bound: each term
        # floor(2^bits / ((2k+1) x^(2k+1))) is short by less than 1, and the
        # alternating terms left once that floor is 0 add up to less than 1
        total, power, k = 0, (1 << bits) // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total, k + 1

    a5, err5 = arctan_inv(5)
    a239, err239 = arctan_inv(239)
    mid, err = 16 * a5 - 4 * a239, 16 * err5 + 4 * err239
    return mid - err, mid + err


def test_pi_err_bounds_the_shortfall_of_math_pi():
    bits = 300
    lo, hi = _machin_pi(bits)
    assert hi - lo < 1 << 16  # pi to 284 bits
    shortfall = Fraction(hi, 1 << bits) - Fraction(math.pi)  # at least pi - math.pi
    assert 0 < shortfall <= Fraction(PI_ERR)
    assert shortfall / Fraction(lo, 1 << bits) <= Fraction(PI_REL_ERR)
    # Cl2's reduction error per period; printed error bounds depend on its bits
    assert 2 * PI_ERR == 2.44929359829471e-16


def test_pow_of_math_pi_is_within_an_ulp_up_to_overflow():
    # every power pi_poly can reach, against the exact (num/den)^p, in integers
    num, den = math.pi.as_integer_ratio()
    exact_num, exact_den = 1, 1
    for p in range(621):
        v = math.pi ** p
        a, b = v.as_integer_ratio()
        u, w = math.ulp(v).as_integer_ratio()
        # |a/b - exact_num/exact_den| <= u/w
        assert abs(a * exact_den - exact_num * b) * w <= u * b * exact_den, p
        exact_num, exact_den = exact_num * num, exact_den * den
    with pytest.raises(OverflowError):
        math.pi ** 621


# --- trig Laurent coefficients -------------------------------------------------

def test_taylor_coeff_examples():
    assert taylor_coeff("tan", 1) == LaurentCoeff(Fraction(1), 1)
    assert taylor_coeff("cot", -1) == LaurentCoeff(Fraction(1), -1)
    assert taylor_coeff("sec", 0) == LaurentCoeff(Fraction(1), 0)
    assert taylor_coeff("csc", -1) == LaurentCoeff(Fraction(1), -1)
    assert taylor_coeff("csc", 3).value == Fraction(7, 360)
    # parity-excluded powers vanish
    assert taylor_coeff("tan", 2).value == 0
    assert taylor_coeff("sec", 5).value == 0
    assert taylor_coeff("cot", 4).value == 0


def test_negative_indices_are_value_errors():
    with pytest.raises(ValueError):
        euler_number(-1)
    with pytest.raises(ValueError):
        beta_odd_exact(-1)


def test_taylor_coeff_errors():
    with pytest.raises(ValueError):
        taylor_coeff("tan", -1)
    with pytest.raises(ValueError):
        taylor_coeff("sec", -1)
    with pytest.raises(ValueError):
        taylor_coeff("sinh", 1)
    with pytest.raises(ValueError):
        taylor_coeff("tan", -2)


def _partial(function_id, x, n_nonzero):
    total = 0.0
    k = -1 if function_id in ("cot", "csc") else 0
    found = 0
    while found < n_nonzero:
        c = taylor_coeff(function_id, k)
        if c.value != 0:
            total += float(c.value) * x ** k
            found += 1
        k += 1
    return total


# 30 nonzero terms: at x = 1.0 the tan/sec tails are ~ (4/pi^2)^30 ~ 1e-12;
# 20 terms would sit near 2e-8 there, far outside the target.
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
def test_taylor_partial_sums(x):
    assert abs(_partial("tan", x, 30) - math.tan(x)) <= 1e-10
    assert abs(_partial("sec", x, 30) - 1.0 / math.cos(x)) <= 1e-10
    assert abs(_partial("cot", x, 30) - math.cos(x) / math.sin(x)) <= 1e-10
    assert abs(_partial("csc", x, 30) - 1.0 / math.sin(x)) <= 1e-10


# --- the textbook Bernoulli/Euler formulas, kept as the reference -------------
# The library derives tan and csc from cot, and zeta(2n), beta(2n+1) and
# zeta_E(2k) from cot and sec; these are the sign-power-factorial formulas it
# used to write out for each.  The ranges are every index the catalogue
# reaches at PARAM_CAP = 256: tan up to x^511, sec up to x^512.

_TOP = 512


def _textbook_taylor(function_id, k):
    if (k % 2 == 0) != (function_id == "sec"):
        return Fraction(0)
    if function_id == "sec":
        n = k // 2
        return Fraction((-1) ** n * euler_number(2 * n), math.factorial(2 * n))
    n = (k + 1) // 2
    b = bernoulli(2 * n) / math.factorial(2 * n)
    if function_id == "tan":
        return (-1) ** (n + 1) * 2 ** (2 * n) * (2 ** (2 * n) - 1) * b
    if function_id == "cot":
        return (-1) ** n * 2 ** (2 * n) * b
    return (-1) ** (n + 1) * 2 * (Fraction(2) ** (2 * n - 1) - 1) * b  # csc


@pytest.mark.parametrize("function_id", ["tan", "cot", "sec", "csc"])
def test_taylor_coeff_matches_textbook_formula(function_id):
    first = -1 if function_id in ("cot", "csc") else 0
    last = _TOP if function_id == "sec" else _TOP - 1
    for k in range(first, last + 1):
        assert taylor_coeff(function_id, k) == LaurentCoeff(_textbook_taylor(function_id, k), k), k


def test_closed_forms_match_textbook_formulas():
    for n in range(1, _TOP // 2 + 1):
        coeff = (-1) ** (n + 1) * bernoulli(2 * n) * Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
        assert zeta_even_exact(n) == PiPower(coeff, 2 * n), n
    for n in range(0, _TOP // 2 + 1):
        coeff = Fraction((-1) ** n * euler_number(2 * n), 4 ** (n + 1) * math.factorial(2 * n))
        assert beta_odd_exact(n) == PiPower(coeff, 2 * n + 1), n
    for k in range(1, _TOP // 2 + 1):
        coeff = Fraction((-1) ** (k + 1) * euler_number(2 * k), 4 * (1 - 4 ** k) * math.factorial(2 * k))
        assert zeta_e_exact(k) == PiPower(coeff, 2 * k + 1), k


# --- records ------------------------------------------------------------------

def test_exact_records_validate_and_stay_frozen():
    with pytest.raises(ValueError, match=r"^power must be >= 0$"):
        PiPower(Fraction(1), -1)
    with pytest.raises(ValueError, match=r"^exponent must be >= -1$"):
        LaurentCoeff(Fraction(1), -2)
    # _replace builds a new record through the same check
    with pytest.raises(ValueError, match=r"^power must be >= 0$"):
        PiPower(Fraction(1), 2)._replace(power=-1)
    for record in (PiPower(Fraction(1, 6), 2), LaurentCoeff(Fraction(1), -1)):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def test_exact_records_are_named_tuples():
    p = PiPower(Fraction(1, 6), 2)
    assert repr(p) == "PiPower(coeff=Fraction(1, 6), power=2)"
    assert p == (Fraction(1, 6), 2) and tuple(p) == (p.coeff, p.power)
    assert p._asdict() == {"coeff": Fraction(1, 6), "power": 2}
    assert repr(LaurentCoeff(Fraction(-1, 3), 1)) == "LaurentCoeff(value=Fraction(-1, 3), exponent=1)"
