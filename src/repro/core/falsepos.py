"""False-positive-rate comparison (Fig. 14, Obs. 5).

The paper asks: if a predictor raises an alarm whenever a node's internal
logs show a fault-indicative pattern, how often is the alarm false -- and
does *requiring a correlated external indicator* reduce that rate?

The analysis here builds alarm *episodes*: indicative internal events on
one node, clustered so that gaps larger than ``episode_gap`` start a new
episode.  An episode is a true positive when the node fails within
``horizon`` of the episode's start (or during it), else a false positive.
Two detectors are scored on the same episodes:

* **internal-only**: every episode is an alarm;
* **with external correlation**: an episode only alarms if a precursor-
  class external event about the node's blade falls within the episode's
  correlation window.

Healthy nodes emit plenty of indicative chatter (benign MCEs, Lustre I/O
noise, software traps) but rarely with external company, so the
correlated detector trades a little recall for a visibly lower FPR --
e.g. the paper's 30.77 % -> 21.43 %.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.external import (
    EXTERNAL_PRECURSOR_EVENTS,
    NODE_SCOPED_PRECURSORS,
    ExternalIndex,
    _any_within,
    _blade_of,
)
from repro.core.failure_detection import DetectedFailure
from repro.core.index import failure_times_by_node
from repro.core.leadtime import INTERNAL_INDICATIVE, indicative_times_by_node
from repro.logs.parsing import ParsedRecord
from repro.simul.clock import HOUR

__all__ = ["AlarmEpisode", "FprComparison", "build_episodes", "compare_fpr"]


@dataclass
class AlarmEpisode:
    """One clustered run of indicative internal events on a node."""

    node: str
    start: float
    end: float
    events: int
    has_external: bool = False
    is_true_positive: bool = False


@dataclass(frozen=True)
class FprComparison:
    """Fig. 14's two false-positive rates on one episode population."""

    episodes: int
    internal_alarms: int
    internal_false: int
    correlated_alarms: int
    correlated_false: int

    @property
    def internal_fpr(self) -> float:
        return self.internal_false / self.internal_alarms if self.internal_alarms else 0.0

    @property
    def correlated_fpr(self) -> float:
        return self.correlated_false / self.correlated_alarms if self.correlated_alarms else 0.0

    @property
    def improved(self) -> bool:
        return self.correlated_fpr < self.internal_fpr


def build_episodes(
    internal: Iterable[ParsedRecord],
    episode_gap: float = 1800.0,
    indicative_times: Optional[dict[str, list[float]]] = None,
) -> list[AlarmEpisode]:
    """Cluster indicative internal events into per-node episodes.

    ``indicative_times`` is
    :func:`~repro.core.leadtime.indicative_times_by_node`'s grouping
    when the caller already holds it; otherwise it is built from
    ``internal``.
    """
    by_node = (indicative_times if indicative_times is not None
               else indicative_times_by_node(internal))
    episodes: list[AlarmEpisode] = []
    for node, times in by_node.items():
        start = times[0]
        last = times[0]
        count = 1
        for t in times[1:]:
            if t - last > episode_gap:
                episodes.append(AlarmEpisode(node=node, start=start, end=last, events=count))
                start, count = t, 0
            last = t
            count += 1
        episodes.append(AlarmEpisode(node=node, start=start, end=last, events=count))
    episodes.sort(key=lambda e: (e.start, e.node))
    return episodes


def compare_fpr(
    internal: Iterable[ParsedRecord],
    failures: Sequence[DetectedFailure],
    index: ExternalIndex,
    horizon: float = HOUR,
    correlation_window: float = HOUR,
    episode_gap: float = 1800.0,
    fail_times: Optional[dict[str, list[float]]] = None,
    indicative_times: Optional[dict[str, list[float]]] = None,
) -> FprComparison:
    """Score the internal-only and correlated detectors on one log set."""
    episodes = build_episodes(internal, episode_gap=episode_gap,
                              indicative_times=indicative_times)

    fail_by_node = (fail_times if fail_times is not None
                    else failure_times_by_node(failures))

    # precursor events from the index's cached node/blade split: sorted
    # (time, event) pairs, bisected with a (time,) probe, which sorts
    # before every pair at that time
    cand_by_node, cand_by_blade = index.precursor_candidates

    def _hit(entries: Optional[list], lo_t: float, hi_t: float) -> bool:
        if entries is None:
            return False
        lo = bisect_left(entries, (lo_t,))
        return lo < len(entries) and entries[lo][0] <= hi_t

    for ep in episodes:
        times = fail_by_node.get(ep.node)
        if times is not None:
            ep.is_true_positive = _any_within(times, ep.start,
                                              ep.end + horizon)
        lo_t = ep.start - correlation_window
        hi_t = ep.end + correlation_window
        blade = _blade_of(ep.node)
        ep.has_external = _hit(cand_by_node.get(ep.node), lo_t, hi_t) or (
            blade is not None and _hit(cand_by_blade.get(blade), lo_t, hi_t))

    internal_alarms = len(episodes)
    internal_false = sum(1 for e in episodes if not e.is_true_positive)
    correlated = [e for e in episodes if e.has_external]
    correlated_false = sum(1 for e in correlated if not e.is_true_positive)
    return FprComparison(
        episodes=len(episodes),
        internal_alarms=internal_alarms,
        internal_false=internal_false,
        correlated_alarms=len(correlated),
        correlated_false=correlated_false,
    )


# -- registry declaration (see repro.core.analysis) -------------------------
from repro.core.analysis import AnalysisSpec, register  # noqa: E402

register(AnalysisSpec(
    name="false_positives",
    inputs=("internal", "failures", "index", "failure_times",
            "indicative_times"),
    compute=lambda internal, failures, index, fail_times, times: compare_fpr(
        internal, failures, index, fail_times=fail_times,
        indicative_times=times),
    neutral=lambda: compare_fpr([], [], ExternalIndex()),
    doc="Obs. 6: internal-only vs externally-correlated FPR (Fig. 14)",
))
