"""A reference probe for the host's speed.

The shared host this benchmark was built on drifts in speed by up to 1.8x
for minutes at a time.  The probe times a fixed piece of interpreter work
that has nothing to do with fitchgraph.  The host speed over a stretch of
time is the mean of the probe's nominal time over each probe's time, and
the reported timings are scaled by it (DESIGN.md gives the measurements
behind this).
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# About the probe's median time on the build host.
NOMINAL_S = 0.002


def probe() -> float:
    """Seconds for a fixed piece of interpreter work, with the collector off
    so that the heap the jobs leave behind cannot trigger a collection."""
    gc.disable()
    try:
        t0 = perf_counter()
        seen = set()
        for i in range(3000):
            seen.add((i % 97, str(i)))
        sorted(seen)
        return perf_counter() - t0
    finally:
        gc.enable()


def speed(times: list[float]) -> float:
    """Host speed from probe times taken at even steps through a stretch of
    time: the mean of the probes' speeds, so the speed that work spread
    over the stretch met on average.  Below 1 when the host ran slow."""
    return statistics.fmean(NOMINAL_S / t for t in times)
