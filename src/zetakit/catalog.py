"""Machine-readable registry of the catalogued series identities.

Every summable entry carries a term generator, a closed form, and one stream
of (term, rigorous tail bound) pairs, from which every catalogued sum here is
taken.  Identities whose sum only yields the target constant after an affine
step (the zeta(3) family) also carry offset/scale, which `assembly` returns,
so callers can assemble `offset + scale * partial_sum`.

Status semantics: "as-printed" entries verify against their published right
hand side; "corrected" entries store both the published variant (which fails,
by a documented margin) and the corrected one consistent with the derivation
chain; "representation" entries list the paper's Cl2 expansions only (the
Clausen evaluator keeps its own table); they are not scalar identities.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, Iterator, Optional

from .exact import check_int, pi_poly, zigzag
from .specfun import (
    EvalResult,
    ZETA2,
    ZETA_EVEN_LEN,
    catalan,
    dirichlet_beta,
    euler_gamma,
    riemann_zeta,
    zeta_even_float,
    zeta_even_m1_float,
    zeta_even_table,
    zeta_m1_float,
)
from .summation import CompensatedSum

__all__ = [
    "CatalogKey",
    "IdentityDescriptor",
    "IdentitySummary",
    "registry",
    "list_identities",
    "get",
    "term",
    "closed_form",
    "printed_closed_form",
    "partial_sum",
    "partial_sums",
    "assembly",
    "assembled_sum",
    "tail_bound",
    "depth_for",
    "evaluate",
    "check_tolerance",
    "MAX_TERMS",
    "MIN_TOLERANCE",
    "PARAM_CAP",
    "InconclusiveError",
]

TermFn = Callable[[Optional[int], int], float]
ClosedFn = Callable[[Optional[int]], float]


class CatalogKey(namedtuple("CatalogKey", "id param", defaults=(None,))):
    __slots__ = ()

    def label(self) -> str:
        if self.param is None:
            return self.id
        return f"{self.id}({self.param})"


class IdentityDescriptor(namedtuple(
    "IdentityDescriptor",
    "id paper_eq description start_index param_name param_min param_domain targets"
    " term_fn closed_fn printed_closed_fn scan_fn offset_fn scale_fn",
    defaults=(1, None, 1, "", (), None, None, None, None, None, None),
)):
    """One registry entry.

    param_name is None for scalar entries.  term_fn is a TermFn; closed_fn,
    printed_closed_fn, offset_fn and scale_fn are ClosedFns, and the
    assembled value is offset + scale * series.  scan_fn is the entry's one
    summation loop: the generator scan_fn(param, N, size, limit, last) adds
    term_fn(param, n) for n = N, ..., last (an int) to a compensated sum and
    yields (n, term, sum, tail(n)) wherever size * (tail(n) + TAIL_FLOOR) <=
    limit; tail(n) bounds |sum_{j>n} term_fn(param, j)|.
    """

    __slots__ = ()

    # vars(entry) maps each field to its value, as for any plain object
    __dict__ = property(lambda self: self._asdict())

    @property
    def verifiable(self) -> bool:
        return self.term_fn is not None and self.closed_fn is not None

    @property
    def is_family(self) -> bool:
        return self.param_name is not None

    @property
    def status(self) -> str:
        """Derived: "corrected" when the published variant is kept apart,
        "representation" when the entry is not summable, else "as-printed"."""
        if self.printed_closed_fn is not None:
            return "corrected"
        return "as-printed" if self.verifiable else "representation"

    def stream(self, param: int | None, N: int) -> Iterator[tuple[int, float, float, float]]:
        """scan_fn from N, yielding at every n (last is sys.maxsize: no cap)."""
        return self.scan_fn(param, N, 1.0, math.inf, sys.maxsize)


IdentitySummary = namedtuple("IdentitySummary", "id paper_eq status params description")


# --- shared constants (computed once, lazily) -------------------------------


@lru_cache(maxsize=None)
def _const(name: str) -> float:
    """Catalan's G, zeta(3), beta(4) or Euler's gamma, by name."""
    return {"G": catalan, "zeta3": lambda: riemann_zeta(3.0), "beta4": lambda: dirichlet_beta(4.0),
            "gamma": euler_gamma}[name]().value


# --- tail-bound constructions ------------------------------------------------


def _poly_geom_tail(p: Callable[[int], float], ratio: float, major: float) -> Callable[[int], float]:
    """Bound for tails of major-bounded-coefficient sums c(n) p(n) ratio^n.

    Valid when c(n) <= major on the tail and p has nonincreasing successive
    ratios (true for every polynomial factor used here): then
    p(n) <= p(N+1) rho^(n-N-1) with rho = max(1, p(N+2)/p(N+1)).
    """

    def tail(N: int) -> float:
        p_next = p(N + 1)
        rho = max(1.0, p(N + 2) / p_next)
        if rho * ratio >= 1.0:
            raise ValueError("tail bound needs rho * ratio < 1")
        return major * p_next * ratio ** (N + 1) / (1.0 - rho * ratio)

    return tail


# --- registry construction ---------------------------------------------------

_MIN_NORMAL = math.ldexp(1.0, -1022)  # the least normal float

# The weighted families' cap factor (1 - 4^-n/4) / (1 - 4^-n) for n below
# ZETA_EVEN_LEN; index 0 is unused (streams start at 1).  Past the tuple it
# is 1.0: for n >= 27, 4^-n <= 2^-54, half an ulp below 1.0, so 1 - 4^-n and
# 1 - 4^-n/4 both round to 1.0 (2^-54 itself is a tie, which goes to 1.0).
_WEIGHT = (math.nan, *((1.0 - 0.25 ** (n + 1)) / (1.0 - 0.25 ** n) for n in range(1, ZETA_EVEN_LEN)))


def _f(x: float) -> ClosedFn:
    return lambda _param: x


def _zeta3(scale: float, offset: ClosedFn | None = None) -> dict:
    """The fields of a zeta(3) representation, zeta(3) = offset + scale * series."""
    return dict(closed_fn=lambda _p: _const("zeta3"), offset_fn=offset, scale_fn=_f(scale), targets=("zeta3",))


def _series(id: str, paper_eq: str, description: str, term_fn: TermFn,
            tail: Callable[[int], float], **fields) -> IdentityDescriptor:
    """A scalar entry: each term from term_fn, each tail from the O(1) bound tail(N)."""

    def scan_fn(param, N, size, limit, last):
        total = CompensatedSum()
        for n in range(N, last + 1):
            t, tail_n = term_fn(param, n), tail(n)
            total.add(t)
            if size * (tail_n + TAIL_FLOOR) <= limit:
                yield n, t, total.value, tail_n

    return IdentityDescriptor(id=id, paper_eq=paper_eq, description=description,
                              term_fn=term_fn, scan_fn=scan_fn, **fields)


def _scalar_entry(id: str, paper_eq: str, description: str, *, p: Callable[[int], float],
                  ratio: float, minus_one: bool = False, **fields) -> IdentityDescriptor:
    """A scalar entry sum_n coeff(n) p(n) ratio^n, coeff(n) = zeta(2n), or zeta(2n) - 1 when minus_one."""
    if minus_one:
        coeff, tail = zeta_even_m1_float, _poly_geom_tail(p, ratio / 4.0, 2.0)
    else:
        coeff, tail = zeta_even_float, _poly_geom_tail(p, ratio, ZETA2)

    def term_fn(_param: int | None, n: int) -> float:
        return coeff(n) * p(n) * ratio ** n

    return _series(id, paper_eq, description, term_fn, tail, **fields)


def _wide_quotient(num: int, n: int, e: int) -> float:
    """num / (n << e) as the family scan needs it, for num too wide for num / n.

    Correctly rounded wherever the result is normal; a result at or below
    the least normal the scan recomputes by that full division.  Round to
    odd: with s = bits(num) - 64 - bits(n), X is num >> s with its last bit
    set when any dropped bit is set.  X / n >= 2^63, where every float and
    every midpoint between two floats is a multiple of 2^10, so n times each
    is an even integer.  num / 2^s is X itself or lies strictly between two
    integers, one of them the odd X; so no float or midpoint lies between
    num / (n 2^s) and X / n, and the two round alike.  Scaling the rounded
    X / n by 2^(s - e) is exact where the result is normal.
    """
    s = num.bit_length() - 64 - n.bit_length()
    top = num >> s
    if top << s != num:
        top |= 1
    return math.ldexp(top / n, s - e)


def _binom_family(id: str, paper_eq: str, description: str, *, top_offset: int, choose: Callable[[int], int],
                  inv_pow: int, weighted: bool, **fields) -> IdentityDescriptor:
    """A family sum_n zeta(2n) C(2n + top_offset, choose(param)) / (n inv_pow^n),
    times (1 - 4^-n) when weighted; inv_pow is 4 or 16."""
    ratio = 1.0 / inv_pow
    q_star = 0.5 if inv_pow == 4 else 0.2
    k_star = q_star / ratio  # cap(n) <= q_star where grow / shrink <= k_star (unweighted)
    # term_fn's denominator is n << (shift * n): n inv_pow^n, times 4^n when weighted
    shift = inv_pow.bit_length() - 1 + (2 if weighted else 0)

    def term_fn(param: int | None, n: int) -> float:
        m = choose(param)
        c = math.comb(2 * n + top_offset, m)
        if c == 0:
            return 0.0
        num, den = c, n * inv_pow ** n
        if weighted:
            num, den = c * (4 ** n - 1), den * 4 ** n
        # int / int is correctly rounded (OverflowError past float range)
        return zeta_even_float(n) * (num / den)

    def scan_fn(param, N, size, limit, last):
        """The one loop over n from first, the first n >= N with C(T, m) > 0.

        math.comb runs once; then C(T+2, m) = C(T, m) grow / shrink, with
        grow = (u+1) u and shrink = (v+1) v for u = T+1 and v = T+1-m.  The
        scale sc = 2^(-shift*n) is exact down to 2^-1074, and a float times a
        power of two is exact where the product is normal, so num / n * sc is
        term_fn's correctly rounded num / (n << shift*n) above the least
        normal (a subnormal can round up to it); at or below it, or when
        num / n overflows, term_fn's division runs.

        cap(n) = grow / shrink * ratio, times the weight when weighted, bounds
        t(j+1)/t(j) for j >= n.  It is the correctly rounded int quotient
        times a power of two (grow < 2^53 up to n = 4.7e7, past every nonzero
        term), and it never increases: grow / shrink and the weight tuple
        fall, and rounding is monotone.  So the closure point M, the first
        n > N with a nonzero binomial and cap(n) <= q_star, is the first n to
        pass that test from any start at or below M, and terms before the
        start enter the head untested.  The start is at least N + 1, first
        and the floor of the larger real root y = T + 3/2 of (y+1/2)(y-1/2) =
        k_star ((y-m)^2 - 1/4), where the unweighted cap (the weight is above
        1) is q_star; below it cap exceeds q_star by at least one step's fall,
        far more than a rounding.

        At M the head t(first)..t(M-1) is replayed with tail(M-1) =
        t(M)/(1 - cap(M)) and tail(n) = t(n+1) + tail(n+1) below; the zero
        binomials N..first-1 share tail(first-1) and sum to +0.0.  Past M each
        step closes the tail of t(n-1) at t(n); a term that underflows to 0.0
        closes with tail 0 (the true tail is below 1e-300).  Every term, tail
        and sum is +0.0 or above, so none takes abs(); zeta(2n) and the weight
        are 1.0 past their tables.  The term body stays inline: a call costs more.
        """
        m = choose(param)
        first = max(N, (m - top_offset + 1) // 2)  # first n >= N with 2n + top_offset >= m
        y = (k_star * m + math.sqrt(k_star * m * m + (k_star - 1.0) ** 2 / 4.0)) / (k_star - 1.0)
        start = max(N + 1, first, int((y - 1.5 - top_offset) / 2.0))
        u = 2 * first + top_offset + 1
        v = u - m
        c = math.comb(u - 1, m)
        zetas, weights, known = zeta_even_table(), _WEIGHT, ZETA_EVEN_LEN
        tiny, floor = _MIN_NORMAL, TAIL_FLOOR
        sc, step = math.ldexp(1.0, -shift * first), 0.5 ** shift
        head, M, stop = [], sys.maxsize, last + 1  # head: t(first)..t(M-1); M is sys.maxsize until found
        hi = lo = 0.0  # a CompensatedSum, inlined: this loop is nearly all of a deep verify_all
        for n in range(first, sys.maxsize):
            num = (c << 2 * n) - c if weighted else c  # c (4^n - 1)
            try:
                q = num / n * sc
            except OverflowError:  # num past about 1024 bits
                q = _wide_quotient(num, n, shift * n)
            if q <= tiny:
                q = num / (n << shift * n)
            x = zetas[n] * q if n < known else q
            grow, shrink = (u + 1) * u, (v + 1) * v
            c = c * grow // shrink
            u, v, sc = u + 2, v + 2, sc * step
            if n < start:
                head.append(x)
                continue
            cap = grow / shrink * ratio
            if weighted and n < known:
                cap *= weights[n]
            if n > M:  # yields n - 1
                if n > stop:
                    return
                s = hi + t
                lo += (hi - s) + t if hi >= t else (t - s) + hi
                hi = s
                tail = x / (1.0 - cap)
                if size * (tail + floor) <= limit:
                    yield n - 1, t, hi + lo, tail
            elif cap > q_star:
                head.append(x)
                continue
            else:
                M = n
                *tails, tail = accumulate(reversed(head), initial=x / (1.0 - cap))  # tail(M-1)..tail(first-1)
                if size * (tail + floor) <= limit:  # the zero block N..first-1 shares tail(first-1)
                    for j in range(N, min(first, stop)):
                        yield j, 0.0, 0.0, tail
                for j, t, tail in zip(range(first, stop), head, reversed(tails)):
                    s = hi + t
                    lo += (hi - s) + t if hi >= t else (t - s) + hi
                    hi = s
                    if size * (tail + floor) <= limit:
                        yield j, t, hi + lo, tail
            t = x

    return IdentityDescriptor(id=id, paper_eq=paper_eq, description=description,
                              term_fn=term_fn, scan_fn=scan_fn, **fields)


# lambda(m)/pi^m for even m (lambda(m) = zeta(m)(1 - 2^-m)) and beta(m)/pi^m
# for odd m (beta(1) = pi/4) are both A_(m-1) / (2^(m+1) (m-1)!), A the zigzag
# numbers, so each family closed form below is a sum of num/den * pi^power
# over integer pairs.  Each is exact.pi_poly's sum written out: the powers in
# ascending order, with its leading 0.0 + x dropped (x is never -0.0, so
# 0.0 + x is x), and math.pi ** 0 = 1.0 dropped from the power-0 term.
# _factorial keeps k! for each k read, k <= 2 * PARAM_CAP + 1.

_factorial = lru_cache(maxsize=None)(math.factorial)


def _thm21_closed(m: int) -> float:
    if m % 2 == 1:
        return 1 / m
    return -1 / m + zigzag(m - 1) / (_factorial(m) << m) * math.pi ** m


def _thm29_closed(m: int) -> float:
    sign = 1 if m % 2 == 0 else -1
    return -sign / m + sign * zigzag(m - 1) / (_factorial(m) << (m + 1)) * math.pi ** m


def _sum28_closed(k: int, corrected: bool) -> float:
    tail = (1 if corrected else -1) / (2 * k * (2 * k - 1))
    return tail + zigzag(2 * k - 1) / (_factorial(2 * k) << 2 * k) * math.pi ** (2 * k)


def _sum37_closed(k: int) -> float:
    return zigzag(2 * k - 1) / (_factorial(2 * k) << (2 * k + 1)) * math.pi ** (2 * k)


def _sum38_closed(k: int) -> float:
    return zigzag(2 * k) / (_factorial(2 * k + 1) << (2 * k + 2)) * math.pi ** (2 * k + 1)


def _apery_term(_param: int | None, n: int) -> float:
    value = 1 / (n ** 3 * math.comb(2 * n, n))
    return value if n % 2 == 1 else -value


def _representation(id: str, paper_eq: str, description: str) -> IdentityDescriptor:
    return IdentityDescriptor(id=id, paper_eq=paper_eq, description=description,
                              param_domain="theta in (-2pi, 2pi)")


def _build_registry() -> dict[str, IdentityDescriptor]:
    entries: list[IdentityDescriptor] = []

    entries.append(_representation(
        "CL2_ACCEL_8", "Eq. (8)",
        "Cl2(theta)/theta = 1 - log|theta| + sum_{n>=1} zeta(2n) theta^(2n) / ((2pi)^(2n) n (2n+1))",
    ))

    entries.append(_scalar_entry(
        "SUM_9", "Eq. (9)",
        "sum_{n>=1} zeta(2n)/(n (2n+1) 16^n) = 2G/pi - 1 + log(pi/2)",
        p=lambda n: 1.0 / (n * (2 * n + 1)), ratio=1 / 16,
        closed_fn=lambda _p: 2.0 * _const("G") / math.pi - 1.0 + math.log(math.pi / 2.0),
        targets=("catalan-relations",),
    ))

    entries.append(_representation(
        "CL2_PEELED_10", "Eq. (10)",
        "Cl2(theta)/theta = 3 - log(|theta|(1 - theta^2/4pi^2)) - (2pi/theta) log((2pi+theta)/(2pi-theta))"
        " + sum (zeta(2n)-1)/(n(2n+1)) (theta/2pi)^(2n)",
    ))
    entries.append(_representation(
        "CL2_WZL_11", "Eq. (11)",
        "Cl2(theta) = theta - theta log(2 sin(theta/2)) - sum_{n>=1} 2 zeta(2n) theta^(2n+1) / ((2n+1)(2pi)^(2n))",
    ))

    # zeta(3) representations: assembled = offset + scale * series
    entries.append(_scalar_entry(
        "ZETA3_12", "Eq. (12)",
        "zeta(3) = (4pi^2/35)(1/2 + 2G/pi - sum_{n>=1} zeta(2n)/((n+1)(2n+1) 16^n))",
        p=lambda n: 1.0 / ((n + 1) * (2 * n + 1)), ratio=1 / 16,
        **_zeta3(-4.0 * math.pi ** 2 / 35.0,
                 lambda _p: (4.0 * math.pi ** 2 / 35.0) * (0.5 + 2.0 * _const("G") / math.pi)),
    ))
    entries.append(_scalar_entry(
        "ZETA3_13", "Eq. (13)",
        "zeta(3) = (2pi^2/9)(log 2 + 2 sum_{n>=0} zeta(2n)/((2n+3) 4^n)), zeta(0) = -1/2",
        p=lambda n: 1.0 / (2 * n + 3), ratio=1 / 4, start_index=0,
        **_zeta3(4.0 * math.pi ** 2 / 9.0, lambda _p: (2.0 * math.pi ** 2 / 9.0) * math.log(2.0)),
    ))
    entries.append(_series(
        "ZETA3_APERY_14", "Eq. (14)",
        "zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 C(2n, n))",
        _apery_term,
        # alternating with strictly decreasing magnitudes: first omitted term
        lambda N: abs(_apery_term(None, N + 1)),
        **_zeta3(2.5),
    ))
    entries.append(_scalar_entry(
        "ZETA3_CK_15", "Eq. (15)",
        "zeta(3) = -(pi^2/3) sum_{n>=0} (2n+5) zeta(2n)/((2n+1)(2n+2)(2n+3) 4^n), zeta(0) = -1/2",
        p=lambda n: (2 * n + 5.0) / ((2 * n + 1) * (2 * n + 2) * (2 * n + 3)), ratio=1 / 4,
        start_index=0,
        **_zeta3(-math.pi ** 2 / 3.0),
    ))
    entries.append(_scalar_entry(
        "ZETA3_EWELL_16", "Eq. (16)",
        "zeta(3) = -(4pi^2/7) sum_{n>=0} zeta(2n)/((2n+1)(2n+2) 4^n), zeta(0) = -1/2",
        p=lambda n: 1.0 / ((2 * n + 1) * (2 * n + 2)), ratio=1 / 4, start_index=0,
        **_zeta3(-4.0 * math.pi ** 2 / 7.0),
    ))
    entries.append(_scalar_entry(
        "ZETA3_17", "Eq. (17)",
        "zeta(3) = (4pi^2/35)(3/2 - log(pi/2) + sum_{n>=1} zeta(2n)/(n(n+1)(2n+1) 16^n))",
        p=lambda n: 1.0 / (n * (n + 1) * (2 * n + 1)), ratio=1 / 16,
        **_zeta3(4.0 * math.pi ** 2 / 35.0,
                 lambda _p: (4.0 * math.pi ** 2 / 35.0) * (1.5 - math.log(math.pi / 2.0))),
    ))
    entries.append(_scalar_entry(
        "ZETA3_18", "Eq. (18)",
        "zeta(3) = -(64/3pi) beta(4) + (8pi^2/9)(4/3 - log(pi/2) + 3 sum_{n>=1} zeta(2n)/(n(2n+1)(2n+3) 16^n))",
        p=lambda n: 1.0 / (n * (2 * n + 1) * (2 * n + 3)), ratio=1 / 16,
        **_zeta3(8.0 * math.pi ** 2 / 3.0, lambda _p: (
            -64.0 / (3.0 * math.pi) * _const("beta4")
            + (8.0 * math.pi ** 2 / 9.0) * (4.0 / 3.0 - math.log(math.pi / 2.0))
        )),
    ))
    entries.append(_scalar_entry(
        "ZETA3_19", "Eq. (19)",
        "zeta(3) = -(64/3pi) beta(4) + (16pi^2/27)(1/2 + 3G/pi - 3 sum_{n>=1} zeta(2n)/((2n+1)(2n+3) 16^n))",
        p=lambda n: 1.0 / ((2 * n + 1) * (2 * n + 3)), ratio=1 / 16,
        **_zeta3(-16.0 * math.pi ** 2 / 9.0, lambda _p: (
            -64.0 / (3.0 * math.pi) * _const("beta4")
            + (16.0 * math.pi ** 2 / 27.0) * (0.5 + 3.0 * _const("G") / math.pi)
        )),
    ))
    entries.append(_scalar_entry(
        "ZETA3_20", "Eq. (20)",
        "zeta(3) = (2pi^2/35)(9 + 138 log 2 - 18 log 3 - 50 log 5 - 2 log pi"
        " + 2 sum_{n>=1} (zeta(2n)-1)/(n(2n+1)(n+1) 16^n))",
        p=lambda n: 1.0 / (n * (2 * n + 1) * (n + 1)), ratio=1 / 16, minus_one=True,
        **_zeta3(4.0 * math.pi ** 2 / 35.0, lambda _p: (2.0 * math.pi ** 2 / 35.0) * (
            9.0 + 138.0 * math.log(2.0) - 18.0 * math.log(3.0)
            - 50.0 * math.log(5.0) - 2.0 * math.log(math.pi)
        )),
    ))

    # rational zeta series over zeta(n, 2) = zeta(n) - 1 (reindexed to n >= 1)
    entries.append(_series(
        "RZS_ONE", "Sec. 2.2",
        "sum_{m>=2} (zeta(m) - 1) = 1",
        lambda _p, n: zeta_m1_float(n + 1),
        lambda N: 2.0 ** (-N),
        closed_fn=_f(1.0),
    ))
    entries.append(_series(
        "RZS_GAMMA", "Sec. 2.2",
        "sum_{m>=2} (zeta(m) - 1)/m = 1 - gamma",
        lambda _p, n: zeta_m1_float(n + 1) / (n + 1),
        lambda N: 2.0 ** (-N) / (N + 3),
        closed_fn=lambda _p: 1.0 - _const("gamma"),
    ))
    entries.append(_series(
        "RZS_LOG2", "Sec. 2.2",
        "sum_{n>=1} (zeta(2n) - 1)/n = log 2",
        lambda _p, n: zeta_even_m1_float(n) / n,
        lambda N: (2.0 / 3.0) * 4.0 ** (-N) / (N + 1),
        closed_fn=lambda _p: math.log(2.0),
    ))

    entries.append(_binom_family(
        "THM_21", "Eq. (21)",
        "sum_{n>=1} zeta(2n) C(2n, m)/(n 4^n) = 1/m (m odd), (2 zeta(m)(1 - 2^-m) - 1)/m (m even)",
        param_name="m", param_min=1, param_domain="integer m >= 1",
        top_offset=0, choose=lambda m: m, inv_pow=4, weighted=False,
        closed_fn=_thm21_closed,
    ))

    entries.append(_scalar_entry(
        "SUM_22", "Eq. (22)",
        "sum_{n>=1} zeta(2n)/(n (2n+1) 4^n) = log pi - 1",
        p=lambda n: 1.0 / (n * (2 * n + 1)), ratio=1 / 4,
        closed_fn=lambda _p: math.log(math.pi) - 1.0,
    ))
    entries.append(_scalar_entry(
        "SUM_23", "Eq. (23)",
        "sum_{n>=1} zeta(2n)/4^n = 1/2",
        p=lambda n: 1.0, ratio=1 / 4,
        closed_fn=lambda _p: pi_poly({0: (1, 2)}),
    ))
    entries.append(_scalar_entry(
        "SUM_24", "Eq. (24)",
        "sum_{n>=1} zeta(2n)(2n-1)(2n-2)/4^n = 1",
        p=lambda n: (2.0 * n - 1) * (2.0 * n - 2), ratio=1 / 4,
        closed_fn=lambda _p: pi_poly({0: (1, 1)}),
    ))
    entries.append(_scalar_entry(
        "SUM_25", "Eq. (25)",
        "sum_{n>=1} zeta(2n)(2n-1)/4^n = pi^2/8 - 1/2",
        p=lambda n: 2.0 * n - 1, ratio=1 / 4,
        closed_fn=lambda _p: pi_poly({0: (-1, 2), 2: (1, 8)}),
    ))
    entries.append(_scalar_entry(
        "SUM_26", "Eq. (26)",
        "sum_{n>=1} zeta(2n) n/4^n = pi^2/16",
        p=lambda n: float(n), ratio=1 / 4,
        closed_fn=lambda _p: pi_poly({2: (1, 16)}),
    ))
    entries.append(_scalar_entry(
        "SUM_27", "Eq. (27)",
        "sum_{n>=1} zeta(2n) n^2/4^n = 3pi^2/32",
        p=lambda n: float(n) ** 2, ratio=1 / 4,
        closed_fn=lambda _p: pi_poly({2: (3, 32)}),
    ))

    entries.append(_binom_family(
        "SUM_28", "Eq. (28)",
        "sum_{n>=1} zeta(2n) C(2n+1, 2k)/(n 4^n) = zeta(2k)(1 - 4^-k)/k + 1/(2k(2k-1))"
        " (published with a minus sign on the last term)",
        param_name="k", param_min=1, param_domain="integer k >= 1",
        top_offset=1, choose=lambda k: 2 * k, inv_pow=4, weighted=False,
        closed_fn=lambda k: _sum28_closed(k, corrected=True),
        printed_closed_fn=lambda k: _sum28_closed(k, corrected=False),
    ))

    entries.append(_binom_family(
        "THM_29", "Eq. (29)",
        "sum_{n>=1} zeta(2n) C(2n, m)/(n 16^n) = (1 - zeta_E(m-1)(1 - 2^(1-m)))/m (m odd),"
        " (zeta(m)(1 - 2^-m) - 1)/m (m even)",
        param_name="m", param_min=1, param_domain="integer m >= 1",
        top_offset=0, choose=lambda m: m, inv_pow=16, weighted=False,
        closed_fn=_thm29_closed,
    ))

    entries.append(_scalar_entry(
        "SUM_30", "Eq. (30)",
        "sum_{n>=1} zeta(2n)/(n 16^n) = log(pi/(2 sqrt 2))",
        p=lambda n: 1.0 / n, ratio=1 / 16,
        closed_fn=lambda _p: math.log(math.pi / (2.0 * math.sqrt(2.0))),
    ))
    entries.append(_scalar_entry(
        "SUM_31", "Eq. (31)",
        "sum_{n>=1} zeta(2n)/16^n = (4 - pi)/8",
        p=lambda n: 1.0, ratio=1 / 16,
        closed_fn=lambda _p: pi_poly({0: (1, 2), 1: (-1, 8)}),
    ))
    entries.append(_scalar_entry(
        "SUM_32", "Eq. (32)",
        "sum_{n>=1} zeta(2n)/(n 4^n) = log(pi/2)",
        p=lambda n: 1.0 / n, ratio=1 / 4,
        closed_fn=lambda _p: math.log(math.pi / 2.0),
    ))
    entries.append(_scalar_entry(
        "SUM_33", "Eq. (33)",
        "sum_{n>=1} zeta(2n)(2n-1)/16^n = pi^2/16 - 1/2",
        p=lambda n: 2.0 * n - 1, ratio=1 / 16,
        closed_fn=lambda _p: pi_poly({0: (-1, 2), 2: (1, 16)}),
    ))
    entries.append(_scalar_entry(
        "SUM_34", "Eq. (34)",
        "sum_{n>=1} zeta(2n)(2n-1)(2n-2)/16^n = 1 - pi^3/32 (published as 1 - pi^3/96)",
        p=lambda n: (2.0 * n - 1) * (2.0 * n - 2), ratio=1 / 16,
        closed_fn=lambda _p: pi_poly({0: (1, 1), 3: (-1, 32)}),
        printed_closed_fn=lambda _p: pi_poly({0: (1, 1), 3: (-1, 96)}),
    ))
    entries.append(_scalar_entry(
        "SUM_35", "Eq. (35)",
        "sum_{n>=1} zeta(2n) n/16^n = (pi/16)(pi/2 - 1)",
        p=lambda n: float(n), ratio=1 / 16,
        closed_fn=lambda _p: pi_poly({1: (-1, 16), 2: (1, 32)}),
    ))
    entries.append(_scalar_entry(
        "SUM_36", "Eq. (36)",
        "sum_{n>=1} zeta(2n) n^2/16^n = (pi/32)(3pi/2 - pi^2/4 - 1)",
        p=lambda n: float(n) ** 2, ratio=1 / 16,
        closed_fn=lambda _p: pi_poly({1: (-1, 32), 2: (3, 64), 3: (-1, 128)}),
    ))

    entries.append(_binom_family(
        "SUM_37", "Eq. (37)",
        "sum_{n>=1} zeta(2n)(1 - 4^-n) C(2n, 2k)/(n 4^n) = zeta(2k)(1 - 4^-k)/(2k)",
        param_name="k", param_min=1, param_domain="integer k >= 1",
        top_offset=0, choose=lambda k: 2 * k, inv_pow=4, weighted=True,
        closed_fn=_sum37_closed,
    ))
    entries.append(_binom_family(
        "SUM_38", "Eq. (38)",
        "sum_{n>=1} zeta(2n)(1 - 4^-n) C(2n, 2k+1)/(n 4^n) = zeta_E(2k)(1 - 4^-k)/(2k+1),"
        " pi/4 weight at k = 0",
        param_name="k", param_min=0, param_domain="integer k >= 0",
        top_offset=0, choose=lambda k: 2 * k + 1, inv_pow=4, weighted=True,
        closed_fn=_sum38_closed,
    ))

    return {e.id: e for e in entries}


_REGISTRY: dict[str, IdentityDescriptor] = _build_registry()


def registry() -> dict[str, IdentityDescriptor]:
    """The full identity registry (immutable after import), in citation order."""
    return _REGISTRY


def get(id: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[id]
    except KeyError:
        raise KeyError(f"unknown identity id {id!r}") from None


def list_identities() -> list[IdentitySummary]:
    """Summaries of every registry entry, in deterministic citation order."""
    return [IdentitySummary(e.id, e.paper_eq, e.status, e.param_domain, e.description) for e in _REGISTRY.values()]


PARAM_CAP = 256  # keeps binomial coefficients comfortably inside float range

MAX_TERMS = 1_000_000  # hang guard: the deepest check at MIN_TOLERANCE takes 629 terms
MIN_TOLERANCE = 1e-13  # the least tolerance a depth is chosen for; the CLI's --tol repeats it

# Published tail bounds carry this absolute pad so they also cover the
# last-place rounding of the compensated partial sums being compared; the
# worst observed fold noise is ~4e-16 for sums of magnitude ~2.
TAIL_FLOOR = 1e-15


class InconclusiveError(RuntimeError):
    """Raised when the term cap is hit before the tail bound meets tolerance."""


def check_tolerance(tolerance: float) -> None:
    """Raise ValueError unless tolerance is finite and >= MIN_TOLERANCE."""
    if not (math.isfinite(tolerance) and tolerance >= MIN_TOLERANCE):
        raise ValueError(f"tolerance must be finite and >= {MIN_TOLERANCE:g}")


def _resolve(key: CatalogKey, N: int | None = None) -> tuple[IdentityDescriptor, int | None]:
    """The key's entry and parameter; a depth N, when given, must be an int >= start_index."""
    entry = get(key.id)
    if not entry.verifiable:
        raise ValueError(f"{key.id} is a function representation, not a summable identity")
    if entry.is_family:
        if key.param is None:
            raise ValueError(f"{key.id} needs parameter {entry.param_name}")
        check_int(f"{key.id} parameter {entry.param_name}", key.param)
        if not (entry.param_min <= key.param <= PARAM_CAP):
            raise ValueError(
                f"{key.id} parameter {entry.param_name} must be in [{entry.param_min}, {PARAM_CAP}]"
            )
    elif key.param is not None:
        raise ValueError(f"{key.id} takes no parameter")
    if N is not None:
        check_int("N", N)
        if N < entry.start_index:
            raise ValueError(f"N must be >= start index {entry.start_index}")
    return entry, key.param


def term(key: CatalogKey, n: int) -> float:
    """The n-th summand of the identity (bare series, no offset/scale)."""
    entry, param = _resolve(key)
    check_int("n", n)
    if n < entry.start_index:
        raise ValueError(f"{key.id} starts at n = {entry.start_index}")
    return entry.term_fn(param, n)


def closed_form(key: CatalogKey) -> float:
    """The identity's right-hand side (the corrected value when status = corrected)."""
    entry, param = _resolve(key)
    return entry.closed_fn(param)


def printed_closed_form(key: CatalogKey) -> float:
    """The published right-hand side of a corrected entry."""
    entry, param = _resolve(key)
    if entry.printed_closed_fn is None:
        raise ValueError(f"{key.id} has no separate published variant")
    return entry.printed_closed_fn(param)


def tail_bound(key: CatalogKey, N: int) -> float:
    """Rigorous upper bound on |sum_{n>N} term(n)| for the bare series.

    Includes the TAIL_FLOOR pad, so the bound stays valid when the partial
    sums it brackets are themselves compared in 64-bit arithmetic.
    """
    entry, param = _resolve(key, N)
    return next(entry.stream(param, N))[3] + TAIL_FLOOR


def assembly(key: CatalogKey) -> tuple[float, float]:
    """(offset, scale) with assembled = offset + scale * bare series; (0, 1) for a bare series."""
    return _assembly(*_resolve(key))


def _assembly(entry: IdentityDescriptor, param: int | None) -> tuple[float, float]:
    offset = entry.offset_fn(param) if entry.offset_fn is not None else 0.0
    scale = entry.scale_fn(param) if entry.scale_fn is not None else 1.0
    return offset, scale


def partial_sums(key: CatalogKey) -> Iterator[tuple[int, float, float]]:
    """(N, compensated bare sum of terms start_index..N, tail_bound(key, N))
    for N = start_index, start_index + 1, ...; each term is evaluated once."""
    entry, param = _resolve(key)
    return ((n, value, tail + TAIL_FLOOR) for n, _, value, tail in entry.stream(param, entry.start_index))


def evaluate(key: CatalogKey, tolerance: float) -> EvalResult:
    """assembled_sum(key, depth_for(key, tolerance)), each term evaluated once.

    The first yield of the entry's scan from start_index, with size |scale|
    (the assembly factor, 1 for a bare series) and limit tolerance / 2: the
    least N with |scale| * tail_bound(key, N) <= tolerance / 2.  A tolerance that is not finite
    or is below MIN_TOLERANCE is a ValueError; InconclusiveError is raised
    when no N within the first MAX_TERMS terms qualifies.
    """
    check_tolerance(tolerance)
    entry, param = _resolve(key)
    offset, scale = _assembly(entry, param)
    size, start = abs(scale), entry.start_index
    hit = next(entry.scan_fn(param, start, size, 0.5 * tolerance, start + MAX_TERMS - 1), None)
    if hit is None:
        raise InconclusiveError(f"{key.label()}: tail bound still above {tolerance/2:g} at the {MAX_TERMS}-term cap")
    n, _, value, tail = hit
    return EvalResult(offset + scale * value, n - start + 1, size * (tail + TAIL_FLOOR))


def depth_for(key: CatalogKey, tolerance: float) -> int:
    """Least N >= start_index with |scale| * tail_bound(key, N) <= tolerance / 2.

    The depth evaluate() stops at; it raises what evaluate() raises.
    """
    res = evaluate(key, tolerance)
    return get(key.id).start_index + res.terms_used - 1


def partial_sum(key: CatalogKey, N: int) -> EvalResult:
    """Compensated bare-series sum of terms start_index..N with its tail bound."""
    entry, param = _resolve(key, N)
    start = entry.start_index
    _, _, value, tail = next(islice(entry.stream(param, start), N - start, None))
    return EvalResult(value, N - start + 1, tail + TAIL_FLOOR)


def assembled_sum(key: CatalogKey, N: int) -> EvalResult:
    """offset + scale * partial_sum(N): the identity's left-hand side at depth N."""
    bare = partial_sum(key, N)
    offset, scale = assembly(key)
    return EvalResult(offset + scale * bare.value, bare.terms_used, abs(scale) * bare.error_bound)
