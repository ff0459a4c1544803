"""Tolerance-driven verification: every catalogued identity, the exact
combinatorial lemmas behind them, the log-trig integral identities (by
singular quadrature against Cl2), and the four-way Clausen cross-check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from . import catalog
from .catalog import CatalogKey, InconclusiveError
from .quadrature import QuadratureResult, tanh_sinh
from .exact import PI_ERR, check_int
from .specfun import DIRECT_CL2_TARGET, catalan, cl2_drift, clausen_cl2
from .summation import CompensatedSum

__all__ = [
    "VerificationReport",
    "InconclusiveError",
    "verify",
    "verify_all",
    "inconclusive_report",
    "check_binomial_identity",
    "check_reciprocal_identity",
    "quadrature",
    "MAX_SINGULARITIES",
    "INTEGRAND_IDS",
    "verify_integral_identity",
    "integral_rhs",
    "INTEGRAL_IDENTITY_IDS",
    "THETA_GRID",
    "cross_check_clausen",
    "reports_to_json",
    "reports_to_text",
]

THETA_GRID = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


class VerificationReport(namedtuple(
    "VerificationReport",
    "key lhs rhs abs_err rel_err n_terms tolerance variant passed inconclusive",
    defaults=(False,),
)):
    """One identity check.

    variant is "corrected" for the authoritative right-hand side (which for
    most entries is simply the published one) and "printed" for the published
    variant of a corrected entry, kept so the discrepancy stays visible.
    passed follows abs_err <= tolerance + tail allowance at n_terms.
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        """Derived: "INCONCLUSIVE", "pass", "FAIL (expected-discrepancy)" for a
        failed printed variant, else "FAIL"; not a field, so to_dict omits it."""
        if self.inconclusive:
            return "INCONCLUSIVE"
        if self.passed:
            return "pass"
        return "FAIL (expected-discrepancy)" if self.variant == "printed" else "FAIL"

    def to_dict(self) -> dict:
        """The fields in order, passed named "pass" and key as {id, param}."""
        out = {"pass" if name == "passed" else name: value for name, value in zip(self._fields, self)}
        out["key"] = {"id": self.key.id, "param": self.key.param}
        return out


def _report(key: CatalogKey, lhs_value: float, lhs_bound: float, rhs: float,
            n_terms: int, tolerance: float, variant: str) -> VerificationReport:
    abs_err = abs(lhs_value - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0.0 else math.inf
    passed = abs_err <= tolerance + lhs_bound
    return VerificationReport(key, lhs_value, rhs, abs_err, rel_err,
                              n_terms, tolerance, variant, passed)


def verify(key: CatalogKey, tolerance: float, *, include_printed: bool = True) -> list[VerificationReport]:
    """Verify one identity; corrected entries yield a second, printed-variant report.

    The sum is catalog.evaluate: at the least depth N whose tail bound
    clears tolerance/2, so the pass criterion abs_err <= tolerance + tail(N)
    is decidable.  A sum that reaches the catalog.MAX_TERMS cap first raises
    nothing: verify returns [inconclusive_report(key, tolerance)].
    """
    try:
        lhs = catalog.evaluate(key, tolerance)
    except InconclusiveError:
        return [inconclusive_report(key, tolerance)]
    entry = catalog.get(key.id)  # evaluate has validated the key
    reports = [_report(key, lhs.value, lhs.error_bound, entry.closed_fn(key.param),
                       lhs.terms_used, tolerance, "corrected")]
    if include_printed and entry.printed_closed_fn is not None:
        reports.append(_report(key, lhs.value, lhs.error_bound, entry.printed_closed_fn(key.param),
                               lhs.terms_used, tolerance, "printed"))
    return reports


def inconclusive_report(key: CatalogKey, tolerance: float) -> VerificationReport:
    """The failed report, flagged inconclusive, of a check that hit the term cap."""
    return VerificationReport(key, 0.0, 0.0, 0.0, 0.0, catalog.MAX_TERMS, tolerance,
                              "corrected", False, inconclusive=True)


def verify_all(tolerance: float, param_limit: int) -> list[VerificationReport]:
    """Verify every summable identity; families run over params up to param_limit.

    The printed variant of a corrected family is reported once, at the
    family's smallest parameter (the published text has one discrepancy, not
    one per parameter).  Inconclusive entries become failed reports flagged
    inconclusive; the suite never aborts.  Entries are independent, so the
    order of this list is the citation order regardless of how callers
    schedule the work.
    """
    check_int("param_limit", param_limit)
    if not 1 <= param_limit <= catalog.PARAM_CAP:
        raise ValueError(f"param_limit must be an int in [1, {catalog.PARAM_CAP}], not {param_limit!r}")
    reports: list[VerificationReport] = []
    for entry in catalog.registry().values():
        if not entry.verifiable:
            continue
        params = range(entry.param_min, param_limit + 1) if entry.is_family else (None,)
        for i, p in enumerate(params):
            reports.extend(verify(CatalogKey(entry.id, p), tolerance, include_printed=i == 0))
    return reports


def check_binomial_identity(n_max: int, j_max: int) -> bool:
    """Exact check of C(2n,2j) - C(2n+1,2j+1)/(2n+1) = 2j/(2j+1) C(2n,2j).

    This is the reduction step behind the even binomial-sum family; checked
    in exact rational arithmetic over 1 <= n <= n_max, 1 <= j <= j_max.
    """
    from fractions import Fraction

    if n_max < 1 or j_max < 1:
        raise ValueError("bounds must be >= 1")
    for n in range(1, n_max + 1):
        for j in range(1, j_max + 1):
            lhs = math.comb(2 * n, 2 * j) - Fraction(math.comb(2 * n + 1, 2 * j + 1), 2 * n + 1)
            rhs = Fraction(2 * j, 2 * j + 1) * math.comb(2 * n, 2 * j)
            if lhs != rhs:
                return False
    return True


def check_reciprocal_identity(k_max: int) -> bool:
    """Exact check of 1/(2k-1) - 1/(2k) = 1/(2k(2k-1)) for 1 <= k <= k_max."""
    from fractions import Fraction

    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return all(
        Fraction(1, 2 * k - 1) - Fraction(1, 2 * k) == Fraction(1, 2 * k * (2 * k - 1))
        for k in range(1, k_max + 1)
    )


# --- singular quadrature over the registered log-trig integrands -------------

_LOG2 = math.log(2.0)

# integrand id -> (function, singularity lattice (offset, period))
_INTEGRANDS: dict[str, tuple[Callable[[float], float], tuple[float, float]]] = {
    "log_sin": (lambda x: math.log(abs(math.sin(x))), (0.0, math.pi)),
    "log_cos": (lambda x: math.log(abs(math.cos(x))), (math.pi / 2, math.pi)),
    # 1 + cos x = 2 cos^2(x/2) and 1 + sin x = 2 cos^2(x/2 - pi/4): these forms
    # keep full precision where log1p(cos x) would cancel near the singularity
    "log_one_plus_sin": (lambda x: _LOG2 + 2.0 * math.log(abs(math.cos(0.5 * x - 0.25 * math.pi))),
                         (-math.pi / 2, 2 * math.pi)),
    "log_one_plus_cos": (lambda x: _LOG2 + 2.0 * math.log(abs(math.cos(0.5 * x))), (math.pi, 2 * math.pi)),
    "log_two_sin_half": (lambda x: math.log(abs(2.0 * math.sin(0.5 * x))), (0.0, 2 * math.pi)),
    "x_log_sin": (lambda x: x * math.log(abs(math.sin(x))), (0.0, math.pi)),
    "x2_log_two_sin_half": (lambda x: x * x * math.log(abs(2.0 * math.sin(0.5 * x))), (0.0, 2 * math.pi)),
}

INTEGRAND_IDS = tuple(_INTEGRANDS)


# singular points of the integrand one quadrature interval may hold, endpoints
# included; the package's own callers integrate from 0 to a grid theta below
# pi, which meets at most one
MAX_SINGULARITIES = 1024


def _interior_singularities(lattice: tuple[float, float], a: float, b: float) -> list[float]:
    offset, period = lattice
    first = math.ceil((a - offset) / period)
    last = math.floor((b - offset) / period)
    if last - first >= MAX_SINGULARITIES:
        raise ValueError(f"[{a!r}, {b!r}] holds more than {MAX_SINGULARITIES} singular points of the integrand")
    # first and last come from rounded quotients, so k runs one past last and
    # only the points strictly inside (a, b) are kept
    points = [x for x in (offset + k * period for k in range(first, last + 2)) if a < x < b]
    # where the floats step by more than the period, two k can round to one point
    if len(set(points)) < len(points):
        raise ValueError(f"the floats of [{a!r}, {b!r}] cannot resolve the integrand's period {period!r}")
    return points


def quadrature(integrand_id: str, lower: float, upper: float) -> QuadratureResult:
    """Tanh-sinh integral of a registered log-trig integrand over [lower, upper].

    The interval is split at interior singular points of the integrand, so
    every piece has at worst endpoint log singularities, which the
    double-exponential transform absorbs.  An interval holding more than
    MAX_SINGULARITIES singular points is a ValueError, raised before any is
    listed; so is one whose floats are too coarse to tell two singular points
    apart, raised before any piece is integrated.
    """
    if integrand_id not in _INTEGRANDS:
        raise ValueError(f"unknown integrand {integrand_id!r}")
    if not -math.inf < lower < upper < math.inf:
        raise ValueError("quadrature requires finite lower < upper")
    f, lattice = _INTEGRANDS[integrand_id]
    cuts = [lower, *_interior_singularities(lattice, lower, upper), upper]
    total = CompensatedSum()
    err = 0.0
    evals = 0
    for left, right in zip(cuts, cuts[1:]):
        piece = tanh_sinh(f, left, right)
        total.add(piece.value)
        err += piece.error_estimate
        evals += piece.evaluations
    return QuadratureResult(total.value, err, evals)


# integral identity id -> (integrand id, sign, Cl2 term, rhs): sign * int_0^theta
# integrand = rhs(theta, c Cl2(x)), where the Cl2 term (c, m, s) gives the
# coefficient c and the argument x = m pi + s theta.
_INTEGRAL_IDENTITIES: dict[str, tuple[str, float, tuple[float, float, float],
                                      Callable[[float, float], float]]] = {
    # int_0^theta log sin = -Cl2(2 theta)/2 - theta log 2
    "INT_LOG_SIN": ("log_sin", 1.0, (-0.5, 0.0, 2.0), lambda t, cl2: cl2 - t * _LOG2),
    # int_0^theta log|cos| = +Cl2(pi - 2 theta)/2 - theta log 2.  The
    # published display carries a minus sign on the Cl2 term, which fails
    # numerically and contradicts d/dt Cl2(pi - 2t) = 2 log(2 cos t); the
    # corrected sign is used here.
    "INT_LOG_COS": ("log_cos", 1.0, (0.5, 1.0, -2.0), lambda t, cl2: cl2 - t * _LOG2),
    # int_0^theta log(1 + cos) = 2 Cl2(pi - theta) - theta log 2
    "INT_LOG_ONE_PLUS_COS": ("log_one_plus_cos", 1.0, (2.0, 1.0, -1.0), lambda t, cl2: cl2 - t * _LOG2),
    # int_0^theta log(1 + sin) = 2G - 2 Cl2(pi/2 + theta) - theta log 2
    "INT_LOG_ONE_PLUS_SIN": ("log_one_plus_sin", 1.0, (-2.0, 0.5, 1.0),
                             lambda t, cl2: 2.0 * catalan().value + cl2 - t * _LOG2),
    # Cl2(theta) = -int_0^theta log(2 sin(x/2))
    "CL2_INTEGRAL": ("log_two_sin_half", -1.0, (1.0, 0.0, 1.0), lambda t, cl2: cl2),
}

INTEGRAL_IDENTITY_IDS = tuple(_INTEGRAL_IDENTITIES)


def integral_rhs(id: str, theta: float) -> tuple[float, float]:
    """The right-hand side of an integral identity at theta, and its allowance.

    The Cl2 argument m pi + s theta is computed as the float
    m * math.pi + s * theta: s theta is exact (|s| is 1 or 2), math.pi is
    short of pi by less than exact.PI_ERR, and the sum rounds once.  Where
    Cl2 is steep, near its argument 0, that moves the value well past
    rounding.  The allowance is |c| times the Cl2 value's own error bound
    plus the most Cl2 can change over that distance (specfun.cl2_drift).
    """
    if id not in _INTEGRAL_IDENTITIES:
        raise ValueError(f"unknown integral identity {id!r}")
    _, _, (coeff, pi_multiple, scale), rhs = _INTEGRAL_IDENTITIES[id]
    x = pi_multiple * math.pi + scale * theta
    delta = pi_multiple * PI_ERR + 0.5 * math.ulp(x) if pi_multiple else 0.0
    cl2 = clausen_cl2(x, "auto")
    return rhs(theta, coeff * cl2.value), abs(coeff) * (cl2.error_bound + cl2_drift(x, delta))


def verify_integral_identity(id: str, tolerance: float) -> VerificationReport:
    """Check one log-trig integral identity on THETA_GRID.

    The report carries the worst grid point: lhs is the quadrature value
    times the identity's sign, rhs the Cl2-based closed form, and the pass
    criterion allows the quadrature error estimate and the rhs allowance of
    integral_rhs on top of the tolerance.
    """
    if id not in _INTEGRAL_IDENTITIES:
        raise ValueError(f"unknown integral identity {id!r}")
    integrand_id, sign, _, _ = _INTEGRAL_IDENTITIES[id]
    worst = None
    evals = 0
    for t in THETA_GRID:
        q = quadrature(integrand_id, 0.0, t)
        evals += q.evaluations
        lhs = sign * q.value
        rhs, allowance = integral_rhs(id, t)
        err = abs(lhs - rhs)
        if worst is None or err > worst[0]:
            worst = (err, lhs, rhs, q.error_estimate + allowance)
    _, lhs, rhs, bound = worst
    return _report(CatalogKey(id), lhs, bound, rhs, evals, tolerance, "corrected")


_CROSS_CHECK_POINTS = 64
_CROSS_CHECK_TOLERANCE = 1e-9


def cross_check_clausen() -> VerificationReport:
    """Pairwise agreement, within 1e-9, of the accel/peeled/wzl Clausen
    methods at 64 evenly spaced angles from 0.05 to 2 pi - 0.05.

    The direct partial sum rides along at specfun.DIRECT_CL2_TARGET, the
    bound its depth is chosen to meet.
    The report's lhs/rhs are the two accelerated-method values realizing the
    worst pairwise gap.
    """
    lo, hi = 0.05, 2.0 * math.pi - 0.05
    step = (hi - lo) / (_CROSS_CHECK_POINTS - 1)
    worst = (0.0, 0.0, 0.0)
    worst_direct = 0.0
    for i in range(_CROSS_CHECK_POINTS):
        theta = lo + i * step
        accel = clausen_cl2(theta, "accel").value
        peeled = clausen_cl2(theta, "peeled").value
        wzl = clausen_cl2(theta, "wzl").value
        direct = clausen_cl2(theta, "direct").value
        for x, y in ((accel, peeled), (accel, wzl), (peeled, wzl)):
            if abs(x - y) > worst[0]:
                worst = (abs(x - y), x, y)
        worst_direct = max(worst_direct, abs(direct - accel))
    gap, x, y = worst
    rel = gap / abs(y) if y != 0.0 else math.inf
    passed = gap <= _CROSS_CHECK_TOLERANCE and worst_direct <= DIRECT_CL2_TARGET
    return VerificationReport(CatalogKey("CL2_CROSS_CHECK"), x, y, gap, rel,
                              _CROSS_CHECK_POINTS, _CROSS_CHECK_TOLERANCE, "corrected", passed)


# --- report serialization -----------------------------------------------------


def reports_to_json(reports: list[VerificationReport]) -> str:
    """Deterministic JSON array of report dicts (no timing fields anywhere)."""
    import json

    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_text(reports: list[VerificationReport]) -> str:
    width = max((len(r.key.label()) for r in reports), default=10)
    return "\n".join(
        f"{r.key.label():<{width}}  {r.variant:<9}  lhs={r.lhs: .15e}  rhs={r.rhs: .15e}"
        f"  abs_err={r.abs_err:.3e}  n={r.n_terms:<6d}  {r.status}"
        for r in reports
    )
