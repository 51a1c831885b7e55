"""Machine-speed probe: scales host times to a fixed reference speed.

On a small shared machine the same computation can run at half speed for
tens of seconds while neighbours load the core, and each core slows on its
own.  Raw run-to-run spreads of 30 % or more would hide any regression a
benchmark should catch.  So the benchmark runs on one core
(:func:`pin_to_fastest_core`), and a sampler thread on that core times a
fixed reference unit every :data:`PERIOD_S` seconds.  The unit is small
numpy operations plus interpreter work, like the simulator's hot path.  It
is timed with the thread's own CPU clock, so waiting for the interpreter
lock or for the core does not count.

A time measured over ``[start, end]`` is scaled by ``REFERENCE_MS / r``,
where ``r`` is the median reference time of the samples in that window.  A
scaled time reads "on a core where the reference unit takes
``REFERENCE_MS``".  Raw and scaled values are both recorded.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

#: The reference unit's median time on the baseline machine, in ms.
REFERENCE_MS = 0.125
#: Seconds between samples (one unit each, about 0.3 % of the core).
PERIOD_S = 0.05


def reference_unit() -> float:
    values = np.arange(256.0)
    for _ in range(40):
        values = np.sqrt(values * values + 1.0)
    table = {j: j * j for j in range(300)}
    return sum(table.values()) + float(values[0])


def time_unit() -> float:
    """One reference unit's CPU time on the calling thread, in ms."""
    start = time.thread_time()
    reference_unit()
    return 1e3 * (time.thread_time() - start)


def pin_to_fastest_core(units: int = 30) -> Dict[str, object]:
    """Pin this process (and the children it starts) to its quietest core.

    Each allowed core runs ``units`` reference units; the process stays on
    the one with the lowest median.  Returns the choice and the medians.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"core": None, "medians_ms": {}}
    allowed = sorted(os.sched_getaffinity(0))
    medians = {}
    for core in allowed:
        os.sched_setaffinity(0, {core})
        medians[core] = statistics.median(time_unit() for _ in range(units))
    best = min(medians, key=medians.get)
    os.sched_setaffinity(0, {best})
    return {"core": best, "medians_ms": medians}


class SpeedProbe:
    """Samples the reference unit on a background thread while running."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.ms: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.ms.append(time_unit())  # before the stamp: readers align on times
            self.times.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def reference_ms(self, start: float, end: float) -> float:
        """Median reference time of the samples in ``[start, end]``.

        With no sample inside, the nearest sample on each side is used.
        """
        times, ms = self.times[:], self.ms[: len(self.times)]
        if not ms:
            raise ValueError("no speed samples taken")
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi > lo:
            return statistics.median(ms[lo:hi])
        return statistics.median(ms[max(0, lo - 1) : lo + 1])

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a time measured over ``[start, end]``."""
        return REFERENCE_MS / self.reference_ms(start, end)

    def scale(self, stamped: List[Tuple[float, float]], window: float) -> List[float]:
        """Scale ``(time stamp, value)`` pairs by the speed within ``±window``."""
        return [value * self.factor(t - window, t + window) for t, value in stamped]
