"""Spatial correlation, SWO recognition and intended-shutdown exclusion.

Sec. III's accounting rules come before any figure: system-wide outages
(< 3 % of anomalous failures, mostly service/file-system caused) are
treated separately from node failures, and *intended* shutdowns are
excluded entirely.  This module implements that bookkeeping plus the
spatial half of Obs. 8:

* :func:`exclude_intended` -- drops failure candidates whose only
  evidence is a clean halt coordinated with a controller
  ``ec_node_info`` power-off notification (the signature of an SMW-
  driven maintenance action);
* :func:`detect_swos` -- clusters failures in time and flags clusters
  large enough to be system-wide outages;
* :func:`topology_distance` -- 0 same blade, 1 same chassis, 2 same
  cabinet, 3 across cabinets;
* :func:`spatio_temporal_groups` -- time-clustered failure groups with
  their spatial diversity and shared-symptom fraction, the generalised
  form of the paper's "spatially distant nodes with temporal locality".

Unlike the per-question analyses, this module registers nothing in the
analysis registry (:mod:`repro.core.analysis`): SWO separation and
intended-shutdown exclusion are *accounting rules* that shape the
failure population itself, so the pipeline applies them at construction
time, before any registered analysis runs -- the report's ``failures``,
``intended_shutdowns`` and ``swos`` fields are structural, not analysis
outputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.topology import NodeName, parse_component
from repro.core.external import ExternalIndex, _any_within
from repro.core.failure_detection import DetectedFailure
from repro.simul.clock import MINUTE

__all__ = [
    "exclude_intended",
    "SwoEvent",
    "detect_swos",
    "topology_distance",
    "FailureGroup",
    "spatio_temporal_groups",
]

#: markers a clean (possibly intended) shutdown leaves
_SHUTDOWN_ONLY = frozenset({"node_halt", "node_shutdown_msg"})


def exclude_intended(
    failures: Sequence[DetectedFailure],
    index: ExternalIndex,
    window: float = 600.0,
) -> tuple[list[DetectedFailure], list[DetectedFailure]]:
    """Split candidates into (anomalous, intended).

    A candidate is *intended* when (a) its only failure markers are
    clean shutdown messages -- no panic, no admindown -- and (b) the
    blade controller reported an ``ec_node_info`` power-off state change
    for the same node within ±``window`` seconds: the coordination
    signature of an operator-initiated action.  An accidental operator
    shutdown lacks the controller notification and stays anomalous
    (Obs. 9's third pattern).
    """
    off_by_node = index.off_times_by_node
    anomalous: list[DetectedFailure] = []
    intended: list[DetectedFailure] = []
    for f in failures:
        clean = set(f.markers) <= _SHUTDOWN_ONLY
        coordinated = False
        if clean:
            times = off_by_node.get(f.node)
            coordinated = times is not None and _any_within(
                times, f.time - window, f.time + window)
        (intended if clean and coordinated else anomalous).append(f)
    return anomalous, intended


@dataclass(frozen=True)
class SwoEvent:
    """One recognised system-wide outage."""

    start: float
    end: float
    nodes: int
    dominant_symptom: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def detect_swos(
    failures: Sequence[DetectedFailure],
    total_nodes: int,
    window: float = 10 * MINUTE,
    min_fraction: float = 0.05,
    min_nodes: int = 32,
) -> tuple[list[SwoEvent], list[DetectedFailure]]:
    """Recognise SWOs and return (swos, remaining node failures).

    Failures are clustered greedily in time (gap <= ``window``); a
    cluster is an SWO when it spans at least ``min_fraction`` of the
    machine and at least ``min_nodes`` distinct nodes.  Everything else
    is returned as ordinary node failures -- the population every figure
    analyses.
    """
    if total_nodes < 1:
        raise ValueError("total_nodes must be >= 1")
    ordered = sorted(failures, key=lambda f: f.time)
    swos: list[SwoEvent] = []
    remaining: list[DetectedFailure] = []
    cluster: list[DetectedFailure] = []

    def flush() -> None:
        if not cluster:
            return
        nodes = {f.node for f in cluster}
        if len(nodes) >= max(min_nodes, min_fraction * total_nodes):
            symptom, _ = Counter(f.symptom for f in cluster).most_common(1)[0]
            swos.append(SwoEvent(
                start=cluster[0].time, end=cluster[-1].time,
                nodes=len(nodes), dominant_symptom=symptom,
            ))
        else:
            remaining.extend(cluster)
        cluster.clear()

    for f in ordered:
        if cluster and f.time - cluster[-1].time > window:
            flush()
        cluster.append(f)
    flush()
    return swos, remaining


def topology_distance(a: str, b: str) -> int:
    """Physical distance class between two node cnames.

    0 = same blade, 1 = same chassis, 2 = same cabinet, 3 = different
    cabinets.  Raises :class:`ValueError` for non-node cnames.
    """
    na = parse_component(a)
    nb = parse_component(b)
    if not isinstance(na, NodeName) or not isinstance(nb, NodeName):
        raise ValueError(f"need node cnames, got {a!r}, {b!r}")
    if na.blade == nb.blade:
        return 0
    if na.chassis_name == nb.chassis_name:
        return 1
    if na.cabinet == nb.cabinet:
        return 2
    return 3


@dataclass(frozen=True)
class FailureGroup:
    """A time-clustered group of failures with its spatial profile."""

    start: float
    failures: int
    distinct_blades: int
    distinct_cabinets: int
    max_distance: int
    shared_symptom_fraction: float
    dominant_symptom: str

    @property
    def spatially_distant(self) -> bool:
        """Members sit in different cabinets (the Obs. 8 pattern)."""
        return self.max_distance >= 2

    @property
    def same_cause(self) -> bool:
        return self.shared_symptom_fraction > 0.5


def spatio_temporal_groups(
    failures: Sequence[DetectedFailure],
    window: float = 10 * MINUTE,
    min_size: int = 2,
) -> list[FailureGroup]:
    """Time-cluster failures and profile each cluster spatially."""
    ordered = sorted(failures, key=lambda f: f.time)
    groups: list[FailureGroup] = []
    cluster: list[DetectedFailure] = []

    def flush() -> None:
        if len(cluster) < min_size:
            cluster.clear()
            return
        nodes = [f.node for f in cluster]
        blades = {n.rsplit("n", 1)[0] for n in nodes}
        cabinets = {parse_component(n).cabinet.cname for n in nodes}
        max_dist = 0
        first = nodes[0]
        for other in nodes[1:]:
            max_dist = max(max_dist, topology_distance(first, other))
            if max_dist == 3:
                break
        symptom, count = Counter(f.symptom for f in cluster).most_common(1)[0]
        groups.append(FailureGroup(
            start=cluster[0].time,
            failures=len(cluster),
            distinct_blades=len(blades),
            distinct_cabinets=len(cabinets),
            max_distance=max_dist,
            shared_symptom_fraction=count / len(cluster),
            dominant_symptom=symptom,
        ))
        cluster.clear()

    for f in ordered:
        if cluster and f.time - cluster[-1].time > window:
            flush()
        cluster.append(f)
    flush()
    return groups
