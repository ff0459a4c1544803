"""Known bound breaks, one case each, checked against oracles that share no
code with zetakit.  Each case is marked xfail(strict=True) and names the
CHANGES.md FOUND line (or ROADMAP item) that records it, so a mend turns it
into an XPASS, which fails the run until the mark goes.

The module is the first slice of the bound-soundness suite (ROADMAP item
17) and is skipped when mpmath is not installed.
"""

import math

import pytest

from zetakit import verifier
from zetakit.specfun import hurwitz_zeta, polygamma, zeta_minus_one

mp = pytest.importorskip("mpmath")


def _hurwitz_sum(s: float, a: float, n: int = 2000):
    """sum_{k>=0} (k + a)^-s at 40 digits: n terms, then the integral tail
    x^(1-s)/(s-1) + x^-s/2 from x = n + a.  The next Euler-Maclaurin term,
    s x^(-s-1)/12, is below 1e-40 of the sum for the cases here (a = 1000,
    s >= 102).  mpmath.zeta(102, 1000) itself is off by 1.1e-9 relative at
    40 digits."""
    with mp.workdps(40):
        s, a = mp.mpf(s), mp.mpf(a)
        x = n + a
        return mp.fsum((k + a) ** -s for k in range(n)) + x ** (1 - s) / (s - 1) + x ** -s / 2


def _mpmath_hurwitz(s: float, a: float, dps: int):
    # at a = 2 it is zeta(s) - 1, without the cancellation
    with mp.workdps(dps):
        return mp.zeta(mp.mpf(s), a)


def _log_sin_integral(a: float, b: float):
    # int_a^b log|sin x| dx = -(Cl2(2b) - Cl2(2a))/2 - (b - a) log 2, at the float ends
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        return -(mp.clsin(2, 2 * b) - mp.clsin(2, 2 * a)) / 2 - (b - a) * mp.log(2)


def _holds(value: float, bound: float, exact) -> bool:
    with mp.workdps(40):
        return abs(mp.mpf(value) - exact) <= bound


def _known_break(reason: str):
    # only the bound check may fail: an exception is a failure of its own
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize("case", [
    # error/bound 17: the Euler-Maclaurin bound's x^(-s-1) is subnormal
    pytest.param(lambda: (hurwitz_zeta(102.0, 1000.0), _hurwitz_sum(102.0, 1000.0)),
                 marks=_known_break("CHANGES.md FOUND line 46"), id="hurwitz_zeta(102, 1000)"),
    # error/bound 1 367: a subnormal value, whose _ULPS * |value| underflows
    pytest.param(lambda: (hurwitz_zeta(103.0, 1000.0), _hurwitz_sum(103.0, 1000.0)),
                 marks=_known_break("CHANGES.md FOUND line 44"), id="hurwitz_zeta(103, 1000)"),
    # error/bound 8.5: 101! times the Hurwitz sum at (102, 1000)
    pytest.param(lambda: (polygamma(101, 1000.0), math.factorial(101) * _hurwitz_sum(102.0, 1000.0)),
                 marks=_known_break("CHANGES.md FOUND line 46"), id="polygamma(101, 1000)"),
    # bound 0.0 at the subnormal 2^-1060, off by about 3^-1060, 1e-187 of it: hence 220 digits
    pytest.param(lambda: (zeta_minus_one(1060.0), _mpmath_hurwitz(1060.0, 2, 220)),
                 marks=_known_break("ROADMAP item 5; CHANGES.md FOUND line 67"), id="zeta_minus_one(1060)"),
    # bound 0.0 at the value 0.0, off by 2^-1075
    pytest.param(lambda: (zeta_minus_one(1075.0), _mpmath_hurwitz(1075.0, 2, 40)),
                 marks=_known_break("CHANGES.md FOUND line 67"), id="zeta_minus_one(1075)"),
    # bound 0.0 at the value 0.0, off by 8.7e-603
    pytest.param(lambda: (hurwitz_zeta(2000.0, 2.0), _mpmath_hurwitz(2000.0, 2, 40)),
                 marks=_known_break("CHANGES.md FOUND line 67"), id="hurwitz_zeta(2000, 2)"),
])
def test_eval_result_bound_holds(case):
    res, exact = case()
    assert _holds(res.value, res.error_bound, exact)


@_known_break("CHANGES.md FOUND line 62; ROADMAP item 14")
def test_quadrature_estimate_holds_far_from_zero():
    # error/estimate 11: the cut points drift from the true singular points
    a, b = 1e5, 1e5 + 10
    res = verifier.quadrature("log_sin", a, b)
    assert _holds(res.value, res.error_estimate, _log_sin_integral(a, b))
