"""Exact integer/rational core: Bernoulli and Euler numbers, binomials,
the Laurent coefficients of tan/cot/sec/csc, and pi-power closed forms.

Every constant is a cot or sec coefficient: zeta(2n), beta(2n+1) and
zeta_E(2k) are read off them by exact identities, and tan and csc rescale cot.

Everything here is exact `fractions.Fraction` / `int` arithmetic.  The
Bernoulli convention is B_1 = -1/2 (the z/(e^z - 1) generating function);
the rival B_1 = +1/2 convention is deliberately not used anywhere.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "Rational",
    "PiPower",
    "LaurentCoeff",
    "binomial",
    "bernoulli",
    "euler_number",
    "zeta_even_exact",
    "beta_odd_exact",
    "zeta_e_exact",
    "taylor_coeff",
    "TRIG_FUNCTIONS",
]

# Exact rationals are stdlib fractions: always lowest terms, denominator > 0.
Rational = Fraction


class PiPower(namedtuple("PiPower", "coeff power")):
    """Exact constant of the form ``coeff * pi**power``."""

    __slots__ = ()

    def __new__(cls, coeff: Fraction, power: int) -> PiPower:
        if power < 0:
            raise ValueError("power must be >= 0")
        return super().__new__(cls, coeff, power)

    @classmethod
    def _make(cls, iterable) -> PiPower:  # _replace builds through _make: keep the check
        return cls(*iterable)

    def numeric(self) -> float:
        return float(self.coeff) * math.pi ** self.power


class LaurentCoeff(namedtuple("LaurentCoeff", "value exponent")):
    """Exact coefficient of x**exponent in a trig Laurent expansion.

    exponent may be -1 (the leading term of cot and csc); nothing lower
    occurs.
    """

    __slots__ = ()

    def __new__(cls, value: Fraction, exponent: int) -> LaurentCoeff:
        if exponent < -1:
            raise ValueError("exponent must be >= -1")
        return super().__new__(cls, value, exponent)

    @classmethod
    def _make(cls, iterable) -> LaurentCoeff:  # _replace builds through _make: keep the check
        return cls(*iterable)


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n, k >= 0")
    return math.comb(n, k)


# Memo tables grow monotonically under a lock; completed prefixes are
# immutable, so concurrent readers are safe.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()

_euler_cache: list[int] = [1]
_euler_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2).

    Generated by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0, which pins
    the same sequence as the z/(e^z - 1) generating function.
    """
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            while len(_bernoulli_cache) <= n:
                m = len(_bernoulli_cache)
                acc = Fraction(0)
                for k in range(m):
                    acc += math.comb(m + 1, k) * _bernoulli_cache[k]
                _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def euler_number(n: int) -> int:
    """Exact Euler number E_n (secant numbers; E_n = 0 for odd n).

    Generated by sum_{k=0}^{m} C(2m, 2k) E_{2k} = 0 for m >= 1.
    """
    if n < 0:
        raise ValueError("euler_number requires n >= 0")
    if n % 2 == 1:
        return 0
    half = n // 2
    if half >= len(_euler_cache):
        with _euler_lock:
            while len(_euler_cache) <= half:
                m = len(_euler_cache)
                acc = 0
                for k in range(m):
                    acc += math.comb(2 * m, 2 * k) * _euler_cache[k]
                _euler_cache.append(-acc)
    return _euler_cache[half]


TRIG_FUNCTIONS = ("tan", "cot", "sec", "csc")


def taylor_coeff(function_id: str, k: int) -> LaurentCoeff:
    """Exact coefficient of x**k in the expansion of tan, cot, sec or csc.

    cot comes from the Bernoulli numbers and sec from the Euler numbers;
    tan x = cot x - 2 cot 2x and csc x = cot(x/2) - cot x rescale the cot
    coefficient.  cot and csc carry a genuine x**-1 leading term, kept at
    exponent -1 instead of clearing denominators.  Parity-excluded powers
    return 0.
    """
    if function_id not in TRIG_FUNCTIONS:
        raise ValueError(f"unknown function id {function_id!r}")
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1 and function_id in ("tan", "sec"):
        raise ValueError(f"{function_id} has no x**-1 term")
    odd = function_id != "sec"  # sec is even; tan, cot and csc are odd
    if k % 2 != odd:
        return LaurentCoeff(Fraction(0), k)
    if function_id == "sec":
        return LaurentCoeff(Fraction((-1) ** (k // 2) * euler_number(k), math.factorial(k)), k)
    # cot: x^(2n-1) for n >= 0 (x^-1 at n = 0)
    n = (k + 1) // 2
    value = (-1) ** n * 2 ** (2 * n) * bernoulli(2 * n) / math.factorial(2 * n)
    if function_id == "tan":  # tan x = cot x - 2 cot 2x
        value *= 1 - 2 ** (k + 1)
    elif function_id == "csc":  # csc x = cot(x/2) - cot x; 2^-k is 2 at k = -1
        value *= Fraction(2) ** -k - 1
    return LaurentCoeff(value, k)


def zeta_even_exact(n: int) -> PiPower:
    """zeta(2n) as an exact rational multiple of pi**(2n), n >= 1.

    Read off pi x cot(pi x) = 1 - 2 sum_{n>=1} zeta(2n) x^(2n).
    """
    if n < 1:
        raise ValueError("zeta_even_exact requires n >= 1")
    return PiPower(-taylor_coeff("cot", 2 * n - 1).value / 2, 2 * n)


def beta_odd_exact(n: int) -> PiPower:
    """beta(2n+1) as an exact rational multiple of pi**(2n+1), n >= 0.

    Read off (pi/4) sec(pi x/2) = sum_{n>=0} beta(2n+1) x^(2n).
    """
    if n < 0:
        raise ValueError("beta_odd_exact requires n >= 0")
    return PiPower(taylor_coeff("sec", 2 * n).value / 4 ** (n + 1), 2 * n + 1)


def zeta_e_exact(k: int) -> PiPower:
    """Euler-number analogue of the even-zeta closed form, k >= 1.

    zeta_E(2k) (1 - 4^-k) = beta(2k+1).  k = 0 is rejected: the 1 - 4^-k
    factor vanishes there (zeta_e_weighted(0) is beta(1) = pi/4).
    """
    if k < 1:
        raise ValueError("zeta_e_exact requires k >= 1 (k = 0 is singular)")
    return PiPower(beta_odd_exact(k).coeff / (1 - Fraction(1, 4 ** k)), 2 * k + 1)
