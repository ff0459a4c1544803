"""CPU-speed calibration for the benchmark's timings.

The cores of a shared host slow down and speed up by up to about 2x within
seconds, as other tenants load them.  Raw times then spread too widely to
compare two commits.  So the benchmark pins itself and its children to one
CPU, and between pieces of work it times a fixed pure-Python loop on that
CPU.  Each piece of work is scaled by REFERENCE_S / c, with c the median
loop time of the samples taken just before and just after it.  The figures
then read as seconds on a CPU where the loop takes REFERENCE_S.  Raw times
are printed beside them.

On the 2-core shared host of the reference figures in README.md, samples
adjacent to each piece tracked its speed better than samples pooled over a
wider window or over the whole run: on every workload the spread of the
run medians of wall time and median latency dropped 2x or more against
raw times.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
from time import perf_counter

REFERENCE_S = 1.5e-4  # the loop's time on an uncontended core of the reference host
WINDOW_S = 0.02  # samples this close to a piece of work are "adjacent"


def _loop(n: int = 400) -> float:
    # float arithmetic, libm calls and big-integer gcds: the same kinds of
    # work as zetakit's series loops and Fraction arithmetic
    acc = 0.0
    big = 1
    for k in range(1, n):
        acc += math.sin(k * 0.5) / (k * k)
        big = big * 3 + k
        if k % 8 == 0:
            acc += math.gcd(big, 7 * k + 1)
            big %= 10 ** 40
    return acc


class Calibrator:
    """Timestamped samples of the calibration loop, and the scale factor
    they give for any interval of the run."""

    def __init__(self) -> None:
        self._times: list[float] = []  # sample start times, increasing
        self._loops: list[float] = []  # loop seconds

    def sample(self, after_s: float = 0.0) -> None:
        """Time the loop a few times; more times after a long piece of work,
        whose scale then rests on more samples."""
        for _ in range(3 + int(20 * min(after_s, 0.5))):
            t0 = perf_counter()
            _loop()
            self._times.append(t0)
            self._loops.append(perf_counter() - t0)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for work done in [start, end]."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        if lo == hi:
            raise ValueError("no calibration sample near the interval")
        return REFERENCE_S / statistics.median(self._loops[lo:hi])


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
