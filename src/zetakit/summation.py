"""Compensated (error-carrying) floating-point accumulation."""

from __future__ import annotations

__all__ = ["CompensatedSum"]


class CompensatedSum:
    """Running sum with Neumaier compensation.

    Keeps a separate low-order correction term so that long series loops do
    not lose mass to cancellation; `value` folds the correction back in.
    """

    __slots__ = ("_hi", "_lo")

    def __init__(self) -> None:
        self._hi = self._lo = 0.0

    def add(self, x: float) -> None:
        t = self._hi + x
        if abs(self._hi) >= abs(x):
            self._lo += (self._hi - t) + x
        else:
            self._lo += (x - t) + self._hi
        self._hi = t

    @property
    def value(self) -> float:
        return self._hi + self._lo
