"""The host's speed, measured around every timed interval.

The CPU of the 2-core development host does not run at one speed: a
fixed pure-Python loop moves between levels up to about 1.8x apart,
for stretches of a fraction of a second to minutes, with the process
on the CPU all the while (its CPU time equals its wall time; steal is
1-2%).  Taken raw, a pass's host seconds say as much about the
neighbours as about the program: sets of ten runs of one workload
spread 0.11-0.26 (first to third quartile over the median).

So the benchmark runs a fixed kernel -- pure Python, no call into
``repro`` -- before every timed interval and after the last one, and
multiplies the interval's host seconds by (:data:`REFERENCE_S` over
the mean of the two kernel runs either side of it) to the power
:data:`SENSITIVITY`.  A change to the program moves these figures as
it moves host seconds; a change of the host's speed moves the kernel
with the interval and largely cancels out.
"""
from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Kernel seconds at the reference speed: about the kernel's median on
#: the 2-core development host, so scaled seconds read close to its
#: host seconds.
REFERENCE_S = 0.18
#: Kernel passes per measurement (about 0.2 s together).
REPEATS = 4
#: How far a pass's time moves with the kernel's: the slope of log pass
#: seconds on log kernel seconds, pass by pass, was 0.49-0.67 on
#: ``tpch22`` and ``hibench_etl``.  The kernel swings further than the
#: program (a tight loop gains more from a fast moment than code that
#: waits on memory), so a full correction would turn the kernel's own
#: swings into noise.
SENSITIVITY = 0.5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: float):
        self.key = key
        self.value = value


def _kernel(n: int = 20000) -> float:
    """String keys, dict updates, attribute access, tuples, a sort and
    float sums: the mix of the reproduction's row operators."""
    totals = {}
    rows = []
    for i in range(n):
        key = "k%d" % (i * 7919 % 5003)
        item = _Item(key, i * 0.5)
        totals[key] = totals.get(key, 0.0) + item.value
        rows.append((key, i % 97, item.value * 1.0001))
    rows.sort()
    return sum(row[2] for row in rows[::7]) + len(totals)


def measure_kernel() -> float:
    """Host seconds of the kernel: :data:`REPEATS` times the median of
    its repeats, so that one repeat disturbed (the first one's page
    faults, an interrupt) does not move it.  The collector is off
    meanwhile, so the size of the program's heap does not enter into it
    (the kernel makes no reference cycles; its garbage is freed as it
    goes)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        repeats = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            _kernel()
            repeats.append(time.perf_counter() - began)
        return REPEATS * statistics.median(repeats)
    finally:
        if enabled:
            gc.enable()


def scale_factors(kernel_s: List[float]) -> List[float]:
    """The factor from host to reference seconds for each interval
    between two consecutive kernel measurements (one fewer than
    *kernel_s*): reference over measured kernel seconds, to the power
    :data:`SENSITIVITY`."""
    return [(2.0 * REFERENCE_S / (before + after)) ** SENSITIVITY
            for before, after in zip(kernel_s, kernel_s[1:])]
