"""Exact core: zigzag, Bernoulli, Euler and binomial numbers, the Laurent
coefficients of tan/cot/sec/csc, and pi-power closed forms.

Exactness is one integer table, the zigzag numbers A_k = 1, 1, 1, 2, 5, 16,
61, 272, ... of sec x + tan x = sum A_k x^k/k! (Andre), grown one
Seidel-Entringer boustrophedon row per number.  Every coefficient is A_k/k!
times a small factor: tan and sec at x^k are A_k/k!; cot is
-A_k/((2^(k+1) - 1) k!), and 1 at k = -1; csc is cot times 2^-k - 1;
B_2n = (-1)^(n-1) 2n A_(2n-1)/(4^n (4^n - 1)) and E_2n = (-1)^n A_2n.
zeta(2n), beta(2n+1) and zeta_E(2k) are read off cot and sec, so each of
their floats is one correctly rounded integer quotient times a power of pi,
which pi_poly evaluates; PI_ERR is how far math.pi falls short of pi.
`fractions.Fraction` appears only at the API boundary: the functions that
return one import it when called.  check_int, the package's one rule that an
integer argument is an int and not a bool, lives here because specfun,
catalog and verifier all import this module.

B_1 = -1/2 (the z/(e^z - 1) generating function); the rival B_1 = +1/2
convention is deliberately not used anywhere.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "PI_ERR",
    "PI_REL_ERR",
    "check_int",
    "pi_poly",
    "PiPower",
    "LaurentCoeff",
    "binomial",
    "zigzag",
    "bernoulli_pair",
    "bernoulli",
    "euler_number",
    "zeta_even_exact",
    "beta_odd_exact",
    "zeta_e_exact",
    "taylor_coeff",
    "TRIG_FUNCTIONS",
]


PI_ERR = 1.224646799147355e-16  # pi - math.pi = 1.2246467991473532e-16, rounded up
PI_REL_ERR = 3.9e-17  # (pi - math.pi)/pi = 3.8982e-17, rounded up


def check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {value!r}")


def pi_poly(coeffs: dict[int, tuple[int, int]]) -> float:
    """The sum of num/den * math.pi**power over the map, in ascending power order.

    num/den is the correctly rounded float of the exact coefficient, and one
    evaluation path makes equal maps give bit-equal floats.
    """
    acc = 0.0
    for power in sorted(coeffs):
        num, den = coeffs[power]
        acc += num / den * math.pi ** power
    return acc


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
        return pi_poly({self.power: self.coeff.as_integer_ratio()})


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


# The table grows under the lock, one boustrophedon row (_row, the newest)
# per number; a completed prefix is immutable, so readers need no lock.
_zigzag: list[int] = [1]
_row: list[int] = [1]
_lock = threading.Lock()


def zigzag(k: int) -> int:
    """The zigzag number A_k, the coefficient of x^k/k! in sec x + tan x.

    Boustrophedon row n is the running sums, from 0, of row n - 1 read
    backwards; its last entry is A_n.
    """
    if k < 0:
        raise ValueError("zigzag requires k >= 0")
    if k >= len(_zigzag):
        with _lock:
            while len(_zigzag) <= k:
                # slice assignment reads the whole iterator before it writes
                _row[:] = accumulate(reversed(_row), initial=0)
                _zigzag.append(_row[-1])
    return _zigzag[k]


@lru_cache(maxsize=None)
def bernoulli_pair(n: int) -> tuple[int, int]:
    """B_n (B_1 = -1/2) as (numerator, denominator) in lowest terms.  Memoised."""
    if n < 0:
        raise ValueError("bernoulli requires n >= 0")
    if n < 2:
        return ((1, 1), (-1, 2))[n]
    if n % 2:
        return 0, 1
    num = (-1) ** (n // 2 - 1) * n * zigzag(n - 1)
    den = 4 ** (n // 2) * (4 ** (n // 2) - 1)
    g = math.gcd(num, den)
    return num // g, den // g


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    from fractions import Fraction

    return Fraction(*bernoulli_pair(n))


def euler_number(n: int) -> int:
    """Exact Euler number E_n (secant numbers): E_2m = (-1)^m A_2m, odd E_n = 0."""
    if n < 0:
        raise ValueError("euler_number requires n >= 0")
    if n % 2 == 1:
        return 0
    return -zigzag(n) if n % 4 else zigzag(n)


TRIG_FUNCTIONS = ("tan", "cot", "sec", "csc")


def taylor_coeff(function_id: str, k: int) -> LaurentCoeff:
    """Exact coefficient of x**k in the expansion of tan, cot, sec or csc.

    tan and sec read A_k/k! directly; tan x = cot x - 2 cot 2x and
    csc x = cot(x/2) - cot x rescale it for cot and csc.  cot and csc carry
    a genuine x**-1 leading term, kept at exponent -1 instead of clearing
    denominators.  Parity-excluded powers return 0.
    """
    from fractions import Fraction

    if function_id not in TRIG_FUNCTIONS:
        raise ValueError(f"unknown function id {function_id!r}")
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1 and function_id in ("tan", "sec"):
        raise ValueError(f"{function_id} has no x**-1 term")
    odd = function_id != "sec"  # sec is even; tan, cot and csc are odd
    if k % 2 != odd:
        return LaurentCoeff(Fraction(0), k)
    if k == -1:  # cot and csc both open with 1/x
        return LaurentCoeff(Fraction(1), k)
    value = Fraction(zigzag(k), math.factorial(k))
    if function_id in ("cot", "csc"):
        value /= 1 - 2 ** (k + 1)
    if function_id == "csc":
        value *= Fraction(1, 2 ** k) - 1
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
    return PiPower(beta_odd_exact(k).coeff * 4 ** k / (4 ** k - 1), 2 * k + 1)
