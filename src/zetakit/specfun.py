"""Floating-point evaluation of zeta, Hurwitz zeta, Dirichlet beta, Catalan's
constant, the Euler-Mascheroni constant, polygamma, and the Clausen function
Cl2 by four independent methods.

All series loops use compensated summation; the direct Cl2 oracle uses
math.fsum.  Every EvalResult carries a rigorous truncation bound (padded by
a few ulps of the result so that it also covers the accumulation noise
actually observed in 64-bit arithmetic).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import lru_cache

from .exact import PI_ERR, PI_REL_ERR, bernoulli_pair, check_int, pi_poly, zigzag
from .summation import CompensatedSum

__all__ = [
    "EvalResult",
    "CL2_METHODS",
    "riemann_zeta",
    "zeta_minus_one",
    "hurwitz_zeta",
    "dirichlet_beta",
    "catalan",
    "euler_gamma",
    "polygamma",
    "zeta_e_weighted",
    "clausen_cl2",
    "cl2_drift",
    "DIRECT_CL2_TARGET",
    "zeta_even_float",
    "zeta_even_m1_float",
    "zeta_even_table",
    "ZETA_EVEN_LEN",
]

TWO_PI = 2.0 * math.pi
ZETA2 = math.pi ** 2 / 6.0

# Euler-Maclaurin defaults: 20 direct head terms, 10 Bernoulli corrections.
# Chosen so the first omitted correction is far below 1e-12 relative on the
# whole supported (s, a) range, with the head cost still trivial.
_EM_HEAD = 20
_EM_DEPTH = 10

_ULPS = 16 * sys.float_info.epsilon  # rounding allowance folded into bounds

_CVZ_TERMS = 48  # alternating-series acceleration depth for 0 < s < 1

# Rounding of the accelerated eta sum, absolute; it holds for every s >= 0.
# The float weights c_k/d differ from the exact ones, and the partial sums
# of those differences stay below 1.237e-15 (measured once at 60 digits);
# by Abel summation against the non-increasing (k+1)^-s <= 1 that bounds
# their whole effect.  Each product c_k (k+1)^-s is within 1.5 eps of its
# size (a pow within 1 ulp, then one rounding), and sum |c_k|/d = 33.95.
# The compensated sum and the division by d add 2 eps |eta| <= 2 eps.
_CVZ_ROUNDING = 1.237e-15 + (1.5 * 33.95 + 2.0) * sys.float_info.epsilon

_DIRECT_CL2_TERMS = 1_000_000
DIRECT_CL2_TARGET = 1.0 / _DIRECT_CL2_TERMS  # the bound the direct Cl2's depth meets

_CL2_RANGE = 2.03  # max Cl2 - min Cl2 = 2 Cl2(pi/3) = 2.0298832...
_LOG2 = math.log(2.0)
_SUBNORMAL_PAD = 16 * math.ulp(0.0)  # a few roundings of subnormal results

CL2_METHODS = ("direct", "accel", "peeled", "wzl", "auto")


class EvalResult(namedtuple("EvalResult", "value terms_used error_bound")):
    """A float value plus the work done and a rigorous truncation bound."""

    __slots__ = ()

    def __new__(cls, value: float, terms_used: int, error_bound: float) -> EvalResult:
        if not (error_bound >= 0.0 and math.isfinite(error_bound)):
            raise ValueError("error_bound must be finite and >= 0")
        if terms_used < 0:
            raise ValueError("terms_used must be >= 0")
        return super().__new__(cls, value, terms_used, error_bound)

    @classmethod
    def _make(cls, iterable) -> EvalResult:  # _replace builds through _make: keep the check
        return cls(*iterable)


def _bern_over_fact(k: int) -> float:
    # B_{2k} / (2k)! as a float: the correctly rounded B_{2k}, then the division
    num, den = bernoulli_pair(2 * k)
    return num / den / math.factorial(2 * k)


@lru_cache(maxsize=None)
def _em_coefficients() -> tuple[float, ...]:
    """B_2k / (2k)! for k = 1 .. _EM_DEPTH + 1, built on first use."""
    return tuple(_bern_over_fact(k) for k in range(1, _EM_DEPTH + 2))


def _power_sum(s: float, a: float, head: int) -> tuple[float, float]:
    """Value and truncation bound for sum_{n>=0} (n+a)^-s, s > 1, a > 0.

    The first `head` terms are summed directly, by a CompensatedSum inlined
    (each term is +0.0 or above, so its test |hi| >= |t| is hi >= t), the rest
    by Euler-Maclaurin from x = head + a.  The bound is the magnitude of the
    first omitted correction term, which dominates the remainder for real
    s > 0.  Once x^(-s-1) is 0.0, every correction is +-0.0 and the bound 0.0:
    they are skipped, as the rising factorial may have overflowed to inf.
    """
    hi = lo = 0.0
    neg_s = -s
    for n in range(head):
        t = (n + a) ** neg_s
        u = hi + t
        lo += (hi - u) + t if hi >= t else (t - u) + hi
        hi = u
    x = head + a
    acc = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** neg_s
    power = x ** (neg_s - 1.0)
    if not power:
        return hi + lo + acc, 0.0
    coefs = _em_coefficients()
    rising = s  # (s)(s+1)...(s+2k-2), built incrementally
    inv_x2 = 1.0 / (x * x)
    for k in range(1, _EM_DEPTH + 1):
        acc += coefs[k - 1] * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power *= inv_x2
    return hi + lo + acc, abs(coefs[_EM_DEPTH] * rising * power)


def zeta_minus_one(s: float) -> EvalResult:
    """zeta(s) - 1 for real s > 1, at full relative precision.

    Summing from the k = 2 head avoids the cancellation that computing
    zeta(s) first and subtracting 1 would cost for large s.
    """
    if not (s > 1.0 and math.isfinite(s)):
        raise ValueError("zeta_minus_one requires finite s > 1")
    value, trunc = _power_sum(s, 2.0, _EM_HEAD - 2)
    return EvalResult(value, _EM_HEAD - 2 + _EM_DEPTH, trunc + _ULPS * abs(value))


def _alternating_zeta(s: float) -> tuple[float, float]:
    """eta(s) = sum (-1)^(n-1) n^-s by Chebyshev-weighted acceleration.

    The weights are the classic (3+sqrt(8))-geometry acceleration for
    alternating series of totally monotone terms; the error after n terms is
    below 2 (3+sqrt(8))^-n, and the bound adds the rounding of the sum.
    """
    n = _CVZ_TERMS
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    acc = CompensatedSum()
    for k in range(n):
        c = b - c
        acc.add(c * float(k + 1) ** (-s))
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    bound = 2.0 / (3.0 + math.sqrt(8.0)) ** n + _CVZ_ROUNDING
    return acc.value / d, bound


def riemann_zeta(s: float) -> EvalResult:
    """zeta(s) for real s > 0 (s != 1), plus the continuation value at s = 0.

    s > 1 goes through the Euler-Maclaurin corrected direct sum; 0 < s < 1
    through the accelerated alternating form; s = 0 returns exactly -1/2,
    the continuation value the n = 0 catalog summands rely on.
    """
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    if s == 0.0:
        return EvalResult(-0.5, 0, 0.0)
    if s < 0.0:
        raise ValueError("s < 0 is not supported")
    if s > 1.0:
        zm1 = zeta_minus_one(s)
        value = 1.0 + zm1.value
        return EvalResult(value, zm1.terms_used, zm1.error_bound + _ULPS * abs(value))
    eta, eta_bound = _alternating_zeta(s)
    # 1 - 2^(1-s), negative on (0, 1), without cancellation as s -> 1
    scale = -math.expm1((1.0 - s) * _LOG2)
    value = eta / scale
    bound = eta_bound / abs(scale) + _ULPS * abs(value)
    return EvalResult(value, _CVZ_TERMS, bound)


def hurwitz_zeta(s: float, a: float) -> EvalResult:
    """Hurwitz zeta(s, a) = sum_{n>=0} (n+a)^-s for s > 1, a > 0."""
    if not (s > 1.0 and math.isfinite(s)):
        raise ValueError("hurwitz_zeta requires finite s > 1")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("hurwitz_zeta requires finite a > 0")
    try:
        value, trunc = _power_sum(s, a, _EM_HEAD)
    except OverflowError:  # a head term (n + a)^-s past the float range
        raise ValueError(f"hurwitz_zeta({s!r}, {a!r}) exceeds the float range") from None
    return EvalResult(value, _EM_HEAD + _EM_DEPTH, trunc + _ULPS * abs(value))


def dirichlet_beta(s: float) -> EvalResult:
    """Dirichlet beta(s) for s >= 1, via 4^-s (zeta(s,1/4) - zeta(s,3/4)).

    s = 1 returns pi/4 (the alternating-odd series limit).  From s = 512, where
    4^s overflows, it returns 1.0: beta(s) = 1 - 3^-s + 5^-s - ... is within 3^-s.
    """
    if not (s >= 1.0 and math.isfinite(s)):
        raise ValueError("dirichlet_beta requires finite s >= 1")
    if s == 1.0:
        return EvalResult(math.pi / 4.0, 0, _ULPS * math.pi / 4.0)
    if s >= 512.0:
        return EvalResult(1.0, 1, _ULPS)
    h14 = hurwitz_zeta(s, 0.25)
    h34 = hurwitz_zeta(s, 0.75)
    scale = 4.0 ** (-s)
    value = scale * (h14.value - h34.value)
    bound = scale * (h14.error_bound + h34.error_bound) + _ULPS * abs(value)
    return EvalResult(value, h14.terms_used + h34.terms_used, bound)


def catalan() -> EvalResult:
    """Catalan's constant G = beta(2)."""
    return dirichlet_beta(2.0)


def euler_gamma() -> EvalResult:
    """Euler-Mascheroni constant via the corrected H_N - log N at N = 100."""
    n = 100
    harmonic = CompensatedSum()
    for k in range(1, n + 1):
        harmonic.add(1.0 / k)
    value = harmonic.value - math.log(n) - 0.5 / n
    power = 1.0 / (n * n)
    for k in range(1, _EM_DEPTH + 1):
        num, den = bernoulli_pair(2 * k)
        value += num / den / (2 * k) * power
        power /= n * n
    num, den = bernoulli_pair(2 * _EM_DEPTH + 2)
    trunc = abs(num / den / (2 * _EM_DEPTH + 2) * power)
    return EvalResult(value, n, trunc + _ULPS * abs(value))


def polygamma(order: int, z: float) -> EvalResult:
    """psi_n(z) for integer order >= 1, finite z > 0, through the Hurwitz zeta.

    psi_n(z) = (-1)^(n+1) n! zeta(n+1, z).  From order 171, whose n! is past the
    float range, the product takes n! >> e and ldexp restores the factor 2^e.
    From order 301 no value is left to compute: 301! 2^-1022, n! times the
    least normal zeta, already exceeds the float range.
    """
    check_int("order", order)
    if order < 1:
        raise ValueError("polygamma requires order >= 1")
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError("polygamma requires finite z > 0")
    try:
        h = hurwitz_zeta(order + 1.0, z)
    except OverflowError:  # order + 1.0: the order itself is past the float range
        raise ValueError("polygamma: the order exceeds the float range") from None
    except ValueError:  # the one left: a head term z^-(n+1), so psi_n(z) too, past the float range
        h = EvalResult(math.inf, 0, 0.0)
    if h.value < sys.float_info.min:  # a subnormal or zero zeta has lost its digits
        raise ValueError(f"polygamma({order}, {z!r}): zeta({order + 1}, {z!r}) underflows the float range")
    value = math.inf
    if order <= 300:
        f = math.factorial(order)
        e = max(0, f.bit_length() - 1020)  # 0 through order 170
        fact, sign = float(f >> e), 1.0 if order % 2 == 1 else -1.0
        try:
            value = math.ldexp(sign * fact * h.value, e)
            bound = math.ldexp(fact * h.error_bound, e) + _ULPS * abs(value)
        except OverflowError:
            value = math.inf
    if math.isinf(value):
        raise ValueError(f"polygamma({order}, {z!r}) exceeds the float range")
    return EvalResult(value, h.terms_used, bound)


def zeta_e_weighted(k: int) -> EvalResult:
    """zeta_E(2k) (1 - 4^-k) = beta(2k+1) for k >= 0; pi/4 at k = 0.

    For 1 <= k <= 308 it is the exact A_2k / ((2k)! 4 (4^k - 1)), A the
    zigzag numbers, times math.pi**(2k+1) (1 - 4^-k); the bound charges 2k+1
    times math.pi's relative error, and 4 eps for pow and four roundings.
    Otherwise it is dirichlet_beta(2k+1): pi/4, or 1.0 once that coefficient
    turns subnormal.
    """
    check_int("k", k)
    if k < 0:
        raise ValueError("zeta_e_weighted requires k >= 0")
    if k == 0 or k > 308:
        return dirichlet_beta(2.0 * k + 1.0)
    zeta_e = pi_poly({2 * k + 1: (zigzag(2 * k), math.factorial(2 * k) * 4 * (4 ** k - 1))})
    value = zeta_e * (1.0 - 4.0 ** (-k))
    rounding = (2 * k + 1) * PI_REL_ERR + 4 * sys.float_info.epsilon
    return EvalResult(value, 0, max(_ULPS, rounding) * abs(value))


# --- float views of zeta at even integers ------------------------------------

# zeta_even_table()'s length.  From n = ZETA_EVEN_LEN on, zeta_even_float(n) is
# 1.0, the rounding of both zeta(2n) and 1 + zeta_minus_one(2n): zeta(2n) - 1 =
# 2^-2n + 3^-2n + ... < 2^-2n (1 + 2/(2n-1)), so for n >= 27, 0 < zeta(2n) - 1 <
# 2^-53, half an ulp of 1.0.  The table keeps n = 25..30 at their pi_poly bits,
# below 1.0.
ZETA_EVEN_LEN = 31


@lru_cache(maxsize=None)
def zeta_even_table() -> tuple[float, ...]:
    """zeta(0) = -1/2, zeta(2), ..., zeta(2 ZETA_EVEN_LEN - 2) as floats, built on first use;
    entry n is the pi_poly of the exact A_(2n-1) / (2 (4^n - 1) (2n-1)!), A the zigzag numbers."""
    return (-0.5, *(pi_poly({2 * n: (zigzag(2 * n - 1), 2 * (4 ** n - 1) * math.factorial(2 * n - 1))})
                    for n in range(1, ZETA_EVEN_LEN)))


def zeta_even_float(n: int) -> float:
    """zeta(2n) as a float, with zeta(0) = -1/2 at n = 0: zeta_even_table()[n], then 1.0."""
    if n < 0:
        raise ValueError("zeta_even_float requires n >= 0")
    return zeta_even_table()[n] if n < ZETA_EVEN_LEN else 1.0


@lru_cache(maxsize=None)
def zeta_even_m1_float(n: int) -> float:
    """zeta(2n) - 1 as a float at full relative precision, n >= 1."""
    if n < 1:
        raise ValueError("zeta_even_m1_float requires n >= 1")
    return zeta_minus_one(2.0 * n).value


# --- Clausen function Cl2 ---------------------------------------------------


def _cl2_reduce(theta: float, delta: float = 0.0) -> tuple[float, float, float]:
    """Reduce theta by oddness, then 2 pi periodicity, onto [0, pi].

    Returns (r, sign, spread) with |Cl2(y) - sign * Cl2(r)| <= spread for
    |y - theta| <= delta.  fmod and the reflection 2pi - r are exact (the
    latter by Sterbenz's lemma), but each period the float TWO_PI removes
    misses 2 pi by up to 2 PI_ERR (whose margin covers this spread's
    roundings), so y's true reduced angle is within d = delta + periods
    2 PI_ERR of r, and spread bounds |Cl2(x) - Cl2(r)| over |x - r| <= d.

    log(2 sin(x/2)) = -Cl2'(x) is concave on (0, 2pi) and symmetric about
    pi, where it peaks at log 2.  With r <= pi the end r - d lies farther
    from pi, so away from 0 the slope's size peaks there or is at most
    log 2.  An interval reaching 0 takes twice the integral of |log x| + 1
    from 0 to r + d; a wider one, the range of Cl2.
    """
    sign = 1.0
    if theta < 0.0:
        theta, sign = -theta, -1.0
    r = math.fmod(theta, TWO_PI)
    periods = (theta - r) / TWO_PI
    if r > math.pi:
        r, sign, periods = TWO_PI - r, -sign, periods + 1.0
    d = delta + periods * (2 * PI_ERR)
    if not d:
        return r, sign, 0.0
    if d < r:  # then r + d < 2r <= 2pi as well
        slope = -math.log(2.0 * math.sin(0.5 * (r - d)))
        return r, sign, d * (slope if slope > _LOG2 else _LOG2)
    hi = r + d
    return r, sign, 2.0 * hi * (2.0 - math.log(hi)) if hi < 1.0 else _CL2_RANGE


def cl2_drift(theta: float, delta: float) -> float:
    """A bound on |Cl2(y) - Cl2(theta)| over |y - theta| <= delta; 0.0 at delta = 0.

    The reduction's spread at delta, so it also bounds how far Cl2(y) is from
    the reduced value clausen_cl2(theta) evaluates.  delta has no margin, so
    the spread is scaled by 1 + 8 eps, past its roundings (about 4.5 eps).
    """
    if not (math.isfinite(theta) and delta >= 0.0):
        raise ValueError("cl2_drift requires finite theta and delta >= 0")
    return _cl2_reduce(theta, delta)[2] * (1.0 + 8 * sys.float_info.epsilon) if delta else 0.0


def _accel_head(r: float) -> tuple[float, float]:
    h = r * (1.0 - math.log(r))
    return h, abs(h)


def _wzl_head(r: float) -> tuple[float, float]:
    # 2 sin(r/2) rounds to r for tiny r; at the least subnormal r the half
    # angle underflows to 0, so take r itself there
    h = r - r * math.log(2.0 * math.sin(0.5 * r) or r)
    return h, abs(h)


def _peeled_head(r: float) -> tuple[float, float]:
    t1 = r * (3.0 - math.log(r * (1.0 - r * r / (TWO_PI * TWO_PI))))
    # 2pi log((2pi + r)/(2pi - r)), without the cancellation of the log near r = 0
    t2 = 2.0 * TWO_PI * math.atanh(r / TWO_PI)
    # t1 and t2 cancel heavily near r = pi; the floor must see their size
    return t1 - t2, abs(t1) + abs(t2)


# Eqs. (8), (11) and (10) are one power series in q = (r/2pi)^2:
#   Cl2(r) = head(r) + r sum_{n>=1} c z(n) q^n / ((a n + 1 - a)(2n + 1)),
# z(n) = zeta(2n), or zeta(2n) - 1 for the peeled form, whose coefficients
# decay like 4^-n.  The tail after term n is majorised by
#   major q^(n+1) / rho^(n+1) / ((a n + 1)(2n + 3)(1 - q/rho)) r,
# from zeta(2n) <= zeta(2) and zeta(2n) - 1 <= 2 * 4^-n (n >= 2).
# Row: (c, a, peeled coefficients, rho, major, min_n, head).
_CL2_SERIES = {
    "accel": (1.0, 1, False, 1.0, ZETA2, 1, _accel_head),
    "wzl": (-2.0, 0, False, 1.0, 2.0 * ZETA2, 1, _wzl_head),
    "peeled": (1.0, 1, True, 4.0, 2.0, 2, _peeled_head),
}


def _cl2_series(r: float, method: str) -> EvalResult:
    c, a, peeled, rho, major, min_n, head_fn = _CL2_SERIES[method]
    coef = zeta_even_m1_float if peeled else zeta_even_float
    q = (r / TWO_PI) ** 2
    ratio = 1.0 - q / rho
    step = 1.0 / rho  # exact: rho is 1 or 4
    major *= step  # major / rho^(n+1), exact
    acc = CompensatedSum()
    qpow = 1.0
    weight = 3  # (a n + 1 - a)(2n + 1) at n = 1
    for n in range(1, 401):
        qpow *= q
        major *= step
        acc.add(coef(n) / weight * qpow)
        weight = (a * n + 1) * (2 * n + 3)  # the weight of term n + 1
        tail = major * qpow * q / (weight * ratio) * r
        if tail <= 1e-17 and n >= min_n:
            break
    head, head_mag = head_fn(r)
    # c is 1 or -2: scaling the sum by it is exact, as it would be term by term
    series = c * r * acc.value
    # rounding floor scales with the assembled pieces, not the (smaller) result;
    # below ~1e-307 it underflows, and a subnormal result's rounding is absolute
    return EvalResult(head + series, n, tail + _ULPS * (head_mag + abs(series)) + _SUBNORMAL_PAD)


def _direct_bound(r: float, n: int) -> float:
    """Bound on |Cl2(r) - sum_{k<=n} sin(k r)/k^2| for the float fsum, 0 < r <= pi.

    Truncation: the k^-2 tail is below 1/(n + 1/2), and, by Abel summation
    against the partial sums of sin(k r), below 1/((n+1)^2 sin(r/2)).
    Rounding: each argument k r is off by up to k r eps/2, which moves its
    term by r eps/(2k); each term is within a few ulps of its size, and the
    terms' sizes add up to at most zeta(2).
    """
    half = math.sin(0.5 * r)
    abel = 1.0 / ((n + 1) ** 2 * half) if half > 0.0 else math.inf
    args = 0.5 * sys.float_info.epsilon * r * (1.0 + math.log(n))
    return min(1.0 / (n + 0.5), abel) + args + _ULPS * ZETA2


def _direct_depth(r: float, target: float) -> int:
    """The least n with _direct_bound(r, n) <= target, capped at _DIRECT_CL2_TERMS."""
    cap = _DIRECT_CL2_TERMS
    scale = target * math.sin(0.5 * r)
    if scale <= 1.0 / cap ** 2:  # with target <= 1/cap, no n below the cap meets it
        return cap
    # the least n at which either truncation bound alone (Abel's or
    # 1/(n + 1/2)) meets target; the rounding pads move it a step or two
    n = max(1, min(math.ceil(1.0 / math.sqrt(scale)) - 1, math.ceil(1.0 / target - 0.5)))
    while n < cap and _direct_bound(r, n) > target:
        n += 1
    while n > 1 and _direct_bound(r, n - 1) <= target:
        n -= 1
    return n


def _cl2_direct(r: float, n_terms: int) -> EvalResult:
    # Oracle path: the plain partial sum of sin(k r)/k^2, correctly rounded by
    # fsum.  Terms come in list chunks, which run faster than one generator.
    sin = math.sin
    step = 1 << 14
    chunks = ([sin(k * r) / (k * k) for k in range(lo, min(lo + step, n_terms + 1))]
              for lo in range(1, n_terms + 1, step))
    value = math.fsum(itertools.chain.from_iterable(chunks))
    return EvalResult(value, n_terms, _direct_bound(r, n_terms))


def clausen_cl2(theta: float, method: str = "auto") -> EvalResult:
    """Clausen function Cl2(theta) = sum sin(k theta)/k^2.

    The argument is first reduced by oddness and 2 pi periodicity onto
    [0, pi]; the requested method then runs on the reduced argument, and
    the error bound adds what the float 2 pi of the reduction can move
    Cl2 by (nothing for theta in [0, pi]).
    Methods: "accel" (log-peeled power series in (theta/2pi)^2), "wzl"
    (variant with the log(2 sin(theta/2)) term), "peeled" (zeta(2n) - 1
    coefficients, fastest ratio), "direct" (plain partial sum, oracle
    quality only), and "auto" (accel below pi/2, wzl above).  The direct
    method sums the least term count whose bound, reduction allowance
    included, is at most DIRECT_CL2_TARGET (1e-6), and never more than
    _DIRECT_CL2_TERMS.  An allowance of 1e-6 or more (|theta| beyond about
    1e10) leaves no such count; it then sums the least count whose own
    bound is at most the allowance.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if method not in CL2_METHODS:
        raise ValueError(f"unknown Cl2 method {method!r}")
    r, sign, spread = _cl2_reduce(theta)
    if method == "auto":
        method = "accel" if r <= 0.5 * math.pi else "wzl"
    if r == 0.0:
        res = EvalResult(0.0, 0, 0.0)
    elif method == "direct":
        # past an allowance of 1e-6 no depth meets 1e-6; match the allowance
        target = DIRECT_CL2_TARGET - spread if spread < DIRECT_CL2_TARGET else spread
        res = _cl2_direct(r, _direct_depth(r, target))
    else:
        res = _cl2_series(r, method)
    return EvalResult(sign * res.value, res.terms_used, res.error_bound + spread)
