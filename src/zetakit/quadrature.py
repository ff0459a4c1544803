"""Double-exponential (tanh-sinh) quadrature for integrable endpoint
singularities, with interior-singularity splitting handled by the caller.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from .summation import CompensatedSum

__all__ = ["QuadratureResult", "tanh_sinh"]

# Node cutoff in the double-exponential variable; at t = 4 the weight has
# decayed below 1e-35, far past anything a log singularity can claw back.
_T_MAX = 4.0
_MAX_LEVEL = 11  # refinement levels after level 0: the step halves down to 2^-11
_TARGET = 1e-12  # relative level-to-level difference at which refinement stops


class QuadratureResult(namedtuple("QuadratureResult", "value error_estimate evaluations")):
    __slots__ = ()

    def __new__(cls, value: float, error_estimate: float, evaluations: int) -> QuadratureResult:
        if not error_estimate >= 0.0:
            raise ValueError("error_estimate must be >= 0")
        if evaluations <= 0:
            raise ValueError("evaluations must be > 0")
        return super().__new__(cls, value, error_estimate, evaluations)

    @classmethod
    def _make(cls, iterable) -> QuadratureResult:  # _replace builds through _make: keep the check
        return cls(*iterable)


def _node(t: float, a: float, b: float, half: float) -> tuple[float, float, float]:
    """Abscissa pair and weight for the level grid point t > 0.

    Returns (x_minus, x_plus, weight); the node distance to each endpoint is
    computed as 2 half / (e^(2g) + 1) directly, so nodes hug the endpoints
    without catastrophic cancellation.
    """
    g = 0.5 * math.pi * math.sinh(t)
    d = 2.0 * half / (math.exp(2.0 * g) + 1.0)
    w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(g) ** 2
    return a + d, b - d, w


def tanh_sinh(f: Callable[[float], float], a: float, b: float) -> QuadratureResult:
    """Integrate f over the finite interval [a, b], a < b, whose width b - a is finite.

    Endpoint singularities must be integrable; the transform pushes nodes
    double-exponentially close to the endpoints, and any node at which f is
    not finite or raises ValueError or ZeroDivisionError (a node rounded
    onto a singular endpoint) is dropped: its weight is already below the
    noise floor.  One loop runs the levels: level 0 takes the nodes t = 1, 2,
    ..., _T_MAX (step h = 1) besides the midpoint, and each later level halves
    h and adds its odd multiples, until the level-to-level difference, the
    error estimate, meets _TARGET from level 3 on or _MAX_LEVEL is done.
    """
    if not -math.inf < a < b < math.inf:
        raise ValueError("tanh_sinh requires finite a < b")
    half = 0.5 * (b - a)
    if half == math.inf:
        raise ValueError(f"tanh_sinh interval width {b!r} - {a!r} exceeds the float range")
    mid = 0.5 * (a + b)

    def eval_at(x: float, w: float, acc: CompensatedSum) -> int:
        try:
            fx = f(x)
        except (ValueError, ZeroDivisionError):  # math.log(0.0), 1 / 0.0
            return 0
        if math.isfinite(fx):
            acc.add(w * fx)
            return 1
        return 0

    acc = CompensatedSum()
    evals = eval_at(mid, half * 0.5 * math.pi, acc)  # the node t = 0
    h = stride = 1.0  # level 0 takes every multiple of h up to _T_MAX
    for level in range(_MAX_LEVEL + 1):
        t = h
        while t <= _T_MAX:
            xm, xp, w = _node(t, a, b, half)
            evals += eval_at(xm, w, acc)
            evals += eval_at(xp, w, acc)
            t += stride
        new_value = h * acc.value
        err = abs(new_value - value) if level else math.inf
        value = new_value
        if level >= 3 and err <= _TARGET * max(1.0, abs(value)):
            break
        h *= 0.5
        stride = 2.0 * h  # each later level adds the odd multiples of its step
    return QuadratureResult(value, err, evals)
