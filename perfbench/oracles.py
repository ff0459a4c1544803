"""High-precision reference values computed apart from zetakit.

Everything here runs in mpmath at DPS decimal digits and imports nothing
from zetakit.  Catalogue closed forms are transcribed from the formula in
each entry's description (see `zetakit list`), not from zetakit's code.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

DPS = 40

mpf = mp.mpf


def _at_dps(fn):
    def wrapper(*args):
        with mp.workdps(DPS):
            return fn(*args)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# --- special functions ------------------------------------------------------------


@_at_dps
def cl2(theta: float):
    return mp.clsin(2, mpf(theta))


@_at_dps
def zeta(s: float):
    return mp.zeta(mpf(s))


@_at_dps
def zeta_minus_one(s: float):
    return mp.zeta(mpf(s)) - 1


def _extra_digits(s: float, a: float) -> int:
    # mpmath's Hurwitz zeta can lose about s*log10(a) digits to cancellation
    # (it does at integer a); work with that many more
    return DPS + int(s * math.log10(a + 1.0)) + 10


def hurwitz(s: float, a: float):
    with mp.workdps(_extra_digits(s, a)):
        return +mp.zeta(mpf(s), mpf(a))


@_at_dps
def beta(s):
    """Dirichlet beta(s) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4))."""
    s = mpf(s)
    return (mp.zeta(s, mpf(1) / 4) - mp.zeta(s, mpf(3) / 4)) / mpf(4) ** s


def polygamma(order: int, z: float):
    with mp.workdps(_extra_digits(order + 1, z)):
        return +mp.polygamma(order, mpf(z))


@_at_dps
def euler_gamma():
    return +mp.euler


@_at_dps
def catalan():
    return +mp.catalan


@_at_dps
def zeta3():
    return mp.zeta(3)


SPECFUN = {
    "cl2": lambda theta, _method: cl2(theta),
    "zeta": zeta,
    "zeta_minus_one": zeta_minus_one,
    "hurwitz": hurwitz,
    "beta": beta,
    "polygamma": polygamma,
    "euler_gamma": euler_gamma,
    "catalan": catalan,
}


def specfun_value(op: list):
    """Reference value for one specfun-mix library call."""
    return SPECFUN[op[0]](*op[1:])


# --- catalogue closed forms -----------------------------------------------------------


@_at_dps
def zeta_e_weighted(k: int):
    """zeta_E(2k) (1 - 4^-k), with the pi/4 weight at k = 0.

    This is the Euler-number closed form (-1)^k E_2k pi^(2k+1) / (4^(k+1) (2k)!),
    the odd Dirichlet beta value beta(2k+1); computed here as beta(2k+1)."""
    return mp.pi / 4 if k == 0 else beta(2 * k + 1)


def _thm21(m):
    return mpf(1) / m if m % 2 else (2 * mp.zeta(m) * (1 - mpf(2) ** -m) - 1) / m


def _sum28(k, corrected: bool):
    last = mpf(1) / (2 * k * (2 * k - 1))
    return mp.zeta(2 * k) * (1 - mpf(4) ** -k) / k + (last if corrected else -last)


def _thm29(m):
    if m % 2:
        return (1 - zeta_e_weighted((m - 1) // 2)) / m
    return (mp.zeta(m) * (1 - mpf(2) ** -m) - 1) / m


# id -> (closed form, published variant or None); each takes the family
# parameter (None for scalar entries).
_CLOSED = {
    "SUM_9": (lambda _p: 2 * mp.catalan / mp.pi - 1 + mp.log(mp.pi / 2), None),
    **{i: (lambda _p: mp.zeta(3), None) for i in (
        "ZETA3_12", "ZETA3_13", "ZETA3_APERY_14", "ZETA3_CK_15", "ZETA3_EWELL_16",
        "ZETA3_17", "ZETA3_18", "ZETA3_19", "ZETA3_20")},
    "RZS_ONE": (lambda _p: mpf(1), None),
    "RZS_GAMMA": (lambda _p: 1 - mp.euler, None),
    "RZS_LOG2": (lambda _p: mp.log(2), None),
    "THM_21": (_thm21, None),
    "SUM_22": (lambda _p: mp.log(mp.pi) - 1, None),
    "SUM_23": (lambda _p: mpf(1) / 2, None),
    "SUM_24": (lambda _p: mpf(1), None),
    "SUM_25": (lambda _p: mp.pi ** 2 / 8 - mpf(1) / 2, None),
    "SUM_26": (lambda _p: mp.pi ** 2 / 16, None),
    "SUM_27": (lambda _p: 3 * mp.pi ** 2 / 32, None),
    "SUM_28": (lambda k: _sum28(k, True), lambda k: _sum28(k, False)),
    "THM_29": (_thm29, None),
    "SUM_30": (lambda _p: mp.log(mp.pi / (2 * mp.sqrt(2))), None),
    "SUM_31": (lambda _p: (4 - mp.pi) / 8, None),
    "SUM_32": (lambda _p: mp.log(mp.pi / 2), None),
    "SUM_33": (lambda _p: mp.pi ** 2 / 16 - mpf(1) / 2, None),
    "SUM_34": (lambda _p: 1 - mp.pi ** 3 / 32, lambda _p: 1 - mp.pi ** 3 / 96),
    "SUM_35": (lambda _p: (mp.pi / 16) * (mp.pi / 2 - 1), None),
    "SUM_36": (lambda _p: (mp.pi / 32) * (3 * mp.pi / 2 - mp.pi ** 2 / 4 - 1), None),
    "SUM_37": (lambda k: mp.zeta(2 * k) * (1 - mpf(4) ** -k) / (2 * k), None),
    "SUM_38": (lambda k: zeta_e_weighted(k) / (2 * k + 1), None),
}

CORRECTED_IDS = tuple(i for i, (_c, printed) in _CLOSED.items() if printed is not None)


@_at_dps
def closed_form(ident: str, param: int | None, variant: str = "corrected"):
    corrected, printed = _CLOSED[ident]
    fn = corrected if variant == "corrected" else printed
    if fn is None:
        raise KeyError(f"{ident} has no {variant} variant")
    return fn(param)


# --- zeta(3) series ----------------------------------------------------------------


def _zeta_even(n: int):
    return mpf(-1) / 2 if n == 0 else mp.zeta(2 * n)


def _binom_c(n: int):
    return mp.binomial(2 * n, n)


# id -> (first index, term(n), assembled(partial sum)), from each description
_ZETA3_SERIES = {
    "ZETA3_12": (1, lambda n: _zeta_even(n) / ((n + 1) * (2 * n + 1) * mpf(16) ** n),
                 lambda S: 4 * mp.pi ** 2 / 35 * (mpf(1) / 2 + 2 * mp.catalan / mp.pi - S)),
    "ZETA3_13": (0, lambda n: _zeta_even(n) / ((2 * n + 3) * mpf(4) ** n),
                 lambda S: 2 * mp.pi ** 2 / 9 * (mp.log(2) + 2 * S)),
    "ZETA3_APERY_14": (1, lambda n: mpf(-1) ** (n - 1) / (mpf(n) ** 3 * _binom_c(n)),
                       lambda S: mpf(5) / 2 * S),
    "ZETA3_CK_15": (0, lambda n: (2 * n + 5) * _zeta_even(n)
                    / ((2 * n + 1) * (2 * n + 2) * (2 * n + 3) * mpf(4) ** n),
                    lambda S: -mp.pi ** 2 / 3 * S),
    "ZETA3_EWELL_16": (0, lambda n: _zeta_even(n) / ((2 * n + 1) * (2 * n + 2) * mpf(4) ** n),
                       lambda S: -4 * mp.pi ** 2 / 7 * S),
    "ZETA3_17": (1, lambda n: _zeta_even(n) / (n * (n + 1) * (2 * n + 1) * mpf(16) ** n),
                 lambda S: 4 * mp.pi ** 2 / 35 * (mpf(3) / 2 - mp.log(mp.pi / 2) + S)),
    "ZETA3_18": (1, lambda n: _zeta_even(n) / (n * (2 * n + 1) * (2 * n + 3) * mpf(16) ** n),
                 lambda S: -64 / (3 * mp.pi) * beta(4)
                 + 8 * mp.pi ** 2 / 9 * (mpf(4) / 3 - mp.log(mp.pi / 2) + 3 * S)),
    "ZETA3_19": (1, lambda n: _zeta_even(n) / ((2 * n + 1) * (2 * n + 3) * mpf(16) ** n),
                 lambda S: -64 / (3 * mp.pi) * beta(4)
                 + 16 * mp.pi ** 2 / 27 * (mpf(1) / 2 + 3 * mp.catalan / mp.pi - 3 * S)),
    "ZETA3_20": (1, lambda n: (_zeta_even(n) - 1) / (n * (2 * n + 1) * (n + 1) * mpf(16) ** n),
                 lambda S: 2 * mp.pi ** 2 / 35 * (9 + 138 * mp.log(2) - 18 * mp.log(3)
                                                  - 50 * mp.log(5) - 2 * mp.log(mp.pi) + 2 * S)),
}


@functools.lru_cache(maxsize=None)
@_at_dps
def zeta3_depth(ident: str, tol: float, max_terms: int = 1000) -> tuple[int, mp.mpf]:
    """Fewest terms of the zeta(3) series `ident` whose assembled partial sum
    lies within `tol` of zeta(3), and the error at that depth."""
    first, term, assembled = _ZETA3_SERIES[ident]
    target, S = mp.zeta(3), mpf(0)
    for count in range(1, max_terms + 1):
        S += term(first + count - 1)
        err = abs(assembled(S) - target)
        if err <= tol:
            return count, err
    raise ValueError(f"{ident}: tolerance {tol} not reached in {max_terms} terms")


# --- integral identities ------------------------------------------------------------

THETA_GRID = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4)

# id -> (integrand, singular points (offset, period), lhs sign, rhs(theta))
_INTEGRALS = {
    "INT_LOG_SIN": (lambda x: mp.log(abs(mp.sin(x))), (0, 1), 1,
                    lambda t: -mp.clsin(2, 2 * t) / 2 - t * mp.log(2)),
    "INT_LOG_COS": (lambda x: mp.log(abs(mp.cos(x))), (mpf(1) / 2, 1), 1,
                    lambda t: mp.clsin(2, mp.pi - 2 * t) / 2 - t * mp.log(2)),
    "INT_LOG_ONE_PLUS_COS": (lambda x: mp.log(1 + mp.cos(x)), (1, 2), 1,
                             lambda t: 2 * mp.clsin(2, mp.pi - t) - t * mp.log(2)),
    "INT_LOG_ONE_PLUS_SIN": (lambda x: mp.log(1 + mp.sin(x)), (-mpf(1) / 2, 2), 1,
                             lambda t: 2 * mp.catalan - 2 * mp.clsin(2, mp.pi / 2 + t) - t * mp.log(2)),
    "CL2_INTEGRAL": (lambda x: mp.log(2 * mp.sin(x / 2)), (0, 2), -1,
                     lambda t: mp.clsin(2, t)),
}


@_at_dps
def integral_identity(ident: str, theta: float):
    """(signed integral from 0 to theta, right-hand side), both at DPS digits.

    The integral is split at the integrand's interior singular points, which
    sit at (offset + k period) pi.
    """
    f, (offset, period), sign, rhs = _INTEGRALS[ident]
    t = mpf(theta)
    cuts = [mpf(0)]
    k = int(mp.ceil(-offset / period))
    while (offset + k * period) * mp.pi < t:
        x = (offset + k * period) * mp.pi
        if x > 0:
            cuts.append(x)
        k += 1
    cuts.append(t)
    return sign * mp.quad(f, cuts), rhs(t)
