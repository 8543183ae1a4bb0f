"""The one timing loop behind the benchmark suite's A/B gates.

A gate asks whether one side costs at most (or at least) some multiple
of the other, on a shared host whose noise is the same size as the
effects being gated.  :func:`compare` removes the noise this program
can remove by itself:

* it pins its own process to one CPU of its current affinity set, so
  both sides run on the same core: the two vCPUs of a small VM differ
  in speed and swap within seconds, and a side that ran on the faster
  one would win by the host, not by the code.  The old set is restored
  on exit.  Processes forked inside inherit the pin;
* it pauses the cyclic collector (:func:`repro.core.gcpause.paused_gc`),
  so a full pass triggered by one side's garbage is not billed to the
  other;
* it alternates which side runs first in each round, so a slow spell,
  or a warm cache left by the side before, falls on both sides alike.

The verdict is the ratio of the two sides' min-of-rounds, the
statistic every gate already used; the quartiles of the per-round
ratios are the spread that goes beside it.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.gcpause import paused_gc

__all__ = ["Timing", "compare"]


@dataclass(frozen=True)
class Timing:
    """Seconds per side (min of rounds) and the per-round ratios b / a."""

    a: float
    b: float
    ratios: tuple[float, ...]

    @property
    def ratio(self) -> float:
        """The verdict: ``b``'s min-of-rounds over ``a``'s."""
        return self.b / self.a

    def spread(self, fmt: str = ".2f", offset: float = 0.0) -> str:
        """The quartiles of the round ratios, plus ``offset``, formatted."""
        quartiles = statistics.quantiles(self.ratios, n=4, method="inclusive")
        return " / ".join(format(q + offset, fmt) for q in quartiles)


def compare(a: Callable[[], object], b: Callable[[], object],
            rounds: int) -> Timing:
    """Time ``a`` against ``b`` over ``rounds`` alternated rounds."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(old)})
    try:
        a_times, b_times = [], []
        with paused_gc():
            for i in range(rounds):
                order = ((a, a_times), (b, b_times))
                for side, times in (order if i % 2 == 0 else order[::-1]):
                    t0 = time.perf_counter()
                    side()
                    times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, old)
    return Timing(min(a_times), min(b_times),
                  tuple(tb / ta for ta, tb in zip(a_times, b_times)))
