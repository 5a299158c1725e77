"""Machine-speed calibration of the reported times.

On a shared virtual machine the CPU speed available to one process drifts
by a factor of up to 1.5 over seconds to minutes, whatever the process
runs.  So every run also times a fixed, benchmark-owned workload, ``unit``,
in the same stretch of time as the program, and the run's times are
rescaled to the speed at which ``unit`` takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (median time of ``unit`` in the run)

One factor serves the whole run.  A factor per request, from the units
timed around it, follows faster drift, but its own noise lands on single
requests and widens the tail: in five seeded runs of ``unstructured-d4`` on
a shared 2-vCPU Xeon VM, with a competing process on the other vCPU, it
tripled the spread of ``latency_p90_ms`` between runs (0.088 against 0.026
with one factor per run).

``unit`` is exact ``Fraction`` elimination, the kind of work the program
does, and runs with the garbage collector off so that the program's heap
does not change its cost.  The program cannot change ``unit``; a change
that makes the program faster or slower moves the reported times by the
same factor as the raw ones.  The raw times are printed next to them.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

#: About the median time of ``unit`` on a 2.1 GHz Xeon vCPU under sustained load.
NOMINAL_S = 0.0015

_ORDER = 7
_MATRIX = [[Fraction(1, i + j + 1) + (3 * i + j) % 5 for j in range(_ORDER)] for i in range(_ORDER)]


def _eliminate() -> Fraction:
    a = [list(row) for row in _MATRIX]
    for k in range(_ORDER):
        for i in range(k + 1, _ORDER):
            f = a[i][k] / a[k][k]
            for j in range(k, _ORDER):
                a[i][j] -= f * a[k][j]
    return a[-1][-1]


def unit() -> float:
    """Seconds one calibration unit takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _eliminate()
        _eliminate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: int = 15) -> float:
    """Rescaling factor NOMINAL_S / (median of ``samples`` units)."""
    return NOMINAL_S / statistics.median(unit() for _ in range(samples))


def run_factor(cal: list[float]) -> float:
    """Rescaling factor of a run from the calibration units timed in it."""
    return NOMINAL_S / statistics.median(cal)
