"""The benchmark gates' timing loop bites on a planted slowdown.

Only the failing direction is tested: a side that is made three times
slower must fail a gate whichever way round the gate reads, and that
cannot flake the way a "no slowdown passes" assertion could.
"""

from __future__ import annotations

import gc
import os
import time

from benchmarks.timing import compare

SPIN_S = 0.002


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_planted_slowdown_fails_both_bounds():
    before = os.sched_getaffinity(0)
    calls, pinned, collecting = [], set(), set()

    def side(name, seconds):
        def run():
            calls.append(name)
            pinned.add(len(os.sched_getaffinity(0)))
            collecting.add(gc.isenabled())
            _spin(seconds)
        return run

    fast, slow = side("fast", SPIN_S), side("slow", 3 * SPIN_S)
    # an overhead gate (b may cost at most 25 % more than a)
    overhead = compare(fast, slow, rounds=5).ratio - 1
    assert not overhead < 0.25
    # a speedup gate (a, the slowed side, must beat b)
    assert not compare(slow, fast, rounds=5).ratio > 1.0

    assert os.sched_getaffinity(0) == before
    assert pinned == {1} and collecting == {False}
    # the side that runs first alternates round by round
    assert calls[:6] == ["fast", "slow", "slow", "fast", "fast", "slow"]
