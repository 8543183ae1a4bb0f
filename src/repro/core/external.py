"""Step 2: external (environmental) correlation analysis (Figs. 5-9).

Builds an :class:`ExternalIndex` over controller + ERD records keyed by
node, blade and cabinet cnames, then answers the paper's questions:

* **NVF / NHF correspondence** (Fig. 5): what fraction of node voltage /
  heartbeat faults are followed by that node's failure within a window?
* **NHF breakdown** (Fig. 6): of the NHFs, which were real failures,
  which were intentional power-offs (the controller's ``ec_node_info``
  state change gives those away), and which were merely skipped beats?
* **faulty blade / cabinet fractions** (Fig. 7): how many failures sit on
  a blade or in a cabinet that logged any fault or warning nearby?
* **SEDC census** (Fig. 8): unique blades per warning type per week, and
  the combined blade+cabinet fault counts.
* **warning frequency by hour** (Fig. 9): per-blade hourly SEDC/health
  warning counts across a day.

All correlation is done on cnames parsed out of the log lines -- node ->
blade -> cabinet projection is pure string structure, never simulator
lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.cluster.topology import BladeName, NodeName, parse_component
from repro.core.failure_detection import DetectedFailure
from repro.core.index import failure_times_by_node
from repro.logs.parsing import ParsedRecord
from repro.simul.clock import DAY, HOUR

if TYPE_CHECKING:
    from repro.core.index import StreamIndex

__all__ = [
    "ExternalIndex",
    "CorrespondenceStats",
    "NhfBreakdown",
    "correspondence",
    "nhf_breakdown",
    "faulty_component_fractions",
    "sedc_census",
    "warning_frequency_by_hour",
    "EXTERNAL_PRECURSOR_EVENTS",
    "NODE_SCOPED_PRECURSORS",
    "INDEXED_EVENTS",
]

#: 30-day "months" and 7-day weeks, matching the scenario groupings
MONTH = 30 * DAY

#: external events counted as blade/cabinet *health faults* (Table III col 1)
HEALTH_FAULT_EVENTS = frozenset({
    "nhf", "nvf", "bchf", "ec_l0_failed", "sensor_read_fail", "ecb_fault",
    "module_health_fault", "cab_power_fault", "micro_ctl_fault",
    "comm_fault", "rpm_fault", "cab_sensor_check", "ec_heartbeat_stop",
    "ec_hw_error", "link_error",
})

#: external events counted as *SEDC warnings* (Table III col 2)
SEDC_WARNING_EVENTS = frozenset({"ec_sedc_warning", "ec_environment"})

#: external events usable as *early* failure indicators (Fig. 13's
#: vocabulary).  Defined here -- rather than in the lead-time module
#: that popularised it -- because the index's cached precursor tables
#: are keyed on it; :mod:`repro.core.leadtime` re-exports both names.
EXTERNAL_PRECURSOR_EVENTS = frozenset({
    "ec_hw_error", "nvf", "link_error", "ecb_fault", "bchf",
    "ec_l0_failed", "nhf",
})

#: precursor events that must be about the failing node itself; a blade
#: peer's heartbeat or voltage fault says nothing about *this* node and
#: would otherwise leak lead time from unrelated co-located failures
NODE_SCOPED_PRECURSORS = frozenset({"nvf", "nhf", "ecb_fault"})

#: every event key :meth:`ExternalIndex.build` acts on -- the selection
#: :meth:`ExternalIndex.from_stream` pulls from a shared stream index
INDEXED_EVENTS = (HEALTH_FAULT_EVENTS | SEDC_WARNING_EVENTS
                  | frozenset({"ec_node_info_off", "link_failover"}))


#: event class codes of :meth:`ExternalIndex.build`'s one branch per record
_FAULT, _SEDC, _OFF, _FAILOVER = range(4)
_EVENT_CLASS = {
    **{event: _FAULT for event in HEALTH_FAULT_EVENTS},
    **{event: _SEDC for event in SEDC_WARNING_EVENTS},
    "ec_node_info_off": _OFF,
    "link_failover": _FAILOVER,
}


@lru_cache(maxsize=8192)
def _blade_of(cname: str) -> Optional[str]:
    """Blade cname of a node/blade cname; None for cabinets/daemons."""
    try:
        comp = parse_component(cname)
    except ValueError:
        return None
    if isinstance(comp, NodeName):
        return comp.blade.cname
    if isinstance(comp, BladeName):
        return comp.cname
    return None


@lru_cache(maxsize=8192)
def _cabinet_of(cname: str) -> Optional[str]:
    """Cabinet cname of any component cname; None for daemons."""
    try:
        comp = parse_component(cname)
    except ValueError:
        return None
    if isinstance(comp, (NodeName, BladeName)):
        return comp.cabinet.cname
    return comp.cname if hasattr(comp, "cname") else None


@dataclass
class ExternalIndex:
    """Time-indexed external events keyed by component."""

    #: (time, node_cname) per NHF
    nhf: list[tuple[float, str]] = field(default_factory=list)
    #: (time, node_cname) per NVF
    nvf: list[tuple[float, str]] = field(default_factory=list)
    #: (time, node_cname) per intentional power-off notification
    node_off: list[tuple[float, str]] = field(default_factory=list)
    #: blade cname -> sorted times of health faults near it
    blade_faults: dict[str, list[float]] = field(default_factory=dict)
    #: cabinet cname -> sorted times of health faults near it
    cabinet_faults: dict[str, list[float]] = field(default_factory=dict)
    #: blade cname -> (time, about) pairs of health faults (for filtering
    #: out a failure's own post-mortem confirmations)
    blade_fault_records: dict[str, list[tuple[float, str]]] = field(default_factory=dict)
    #: cabinet cname -> (time, about) pairs of health faults
    cabinet_fault_records: dict[str, list[tuple[float, str]]] = field(default_factory=dict)
    #: blade/cabinet cname -> sorted times of SEDC warnings
    sedc: dict[str, list[float]] = field(default_factory=dict)
    #: (time, src, sensor) per SEDC warning
    sedc_events: list[tuple[float, str, str]] = field(default_factory=list)
    #: (time, src_cname, event) for every counted external event
    events: list[tuple[float, str, str]] = field(default_factory=list)
    #: (time, src, link, ok) per interconnect failover attempt
    failovers: list[tuple[float, str, str, bool]] = field(default_factory=list)

    @classmethod
    def from_stream(cls, stream: "StreamIndex") -> "ExternalIndex":
        """Index the external stream via a shared :class:`StreamIndex`.

        Pulls only the event keys the index acts on (chatter and
        telemetry records skip the whole build loop), which is exactly
        equivalent to :meth:`build` because the selection preserves
        stream order.
        """
        return cls.build(stream.select(INDEXED_EVENTS))

    @classmethod
    def build(cls, external: Iterable[ParsedRecord]) -> "ExternalIndex":
        """Index a stream of controller + ERD records.

        One pass that branches once per record on its event class; the
        blade and cabinet of each distinct subject are parsed once.
        """
        idx = cls()
        class_of = _EVENT_CLASS.get
        events = idx.events
        blade_records = idx.blade_fault_records
        cabinet_records = idx.cabinet_fault_records
        sedc = idx.sedc
        #: subject cname -> (blade, cabinet), for this call only
        places: dict[str, tuple[Optional[str], Optional[str]]] = {}
        for rec in external:
            event = rec.event
            kind = class_of(event)
            if kind is None:
                continue
            attrs = rec.attrs
            # the component a record is *about*: the src/node attribute
            # when present, else the reporting component
            about = attrs.get("node") or attrs.get("src") or rec.component
            t = rec.time
            if kind == _FAULT:
                if event == "nhf":
                    idx.nhf.append((t, about))
                elif event == "nvf":
                    idx.nvf.append((t, about))
                place = places.get(about)
                if place is None:
                    place = places[about] = (_blade_of(about),
                                             _cabinet_of(about))
                blade, cabinet = place
                if blade is not None:
                    blade_records.setdefault(blade, []).append((t, about))
                if cabinet is not None:
                    cabinet_records.setdefault(cabinet, []).append((t, about))
                events.append((t, about, event))
            elif kind == _SEDC:
                sedc.setdefault(about, []).append(t)
                idx.sedc_events.append(
                    (t, about, attrs.get("sensor") or attrs.get("kind") or "?"))
                events.append((t, about, event))
            elif kind == _OFF:
                idx.node_off.append((t, about))
            else:  # _FAILOVER
                idx.failovers.append((t, about, attrs.get("link") or "?",
                                      attrs.get("status") == "ok"))
        # a component's sorted fault times are its sorted pairs' times
        for records, faults in ((blade_records, idx.blade_faults),
                                (cabinet_records, idx.cabinet_faults)):
            for cname, pairs in records.items():
                pairs.sort()
                faults[cname] = [t for t, _ in pairs]
        for times in sedc.values():
            times.sort()
        idx.nhf.sort()
        idx.nvf.sort()
        idx.node_off.sort()
        events.sort()
        return idx

    # -- cached derived tables -----------------------------------------
    @property
    def off_times_by_node(self) -> dict[str, list[float]]:
        """Node -> sorted list of power-off notification times (built once).

        Shared by intended-shutdown exclusion and the NHF breakdown,
        which each used to rebuild it from :attr:`node_off`.
        """
        cached = self.__dict__.get("_off_times_by_node")
        if cached is None:
            cached = {}
            for t, node in self.node_off:
                cached.setdefault(node, []).append(t)
            for times in cached.values():
                times.sort()
            self.__dict__["_off_times_by_node"] = cached
        return cached

    @property
    def precursor_candidates(
        self,
    ) -> tuple[dict[str, list[tuple[float, str]]],
               dict[str, list[tuple[float, str]]]]:
        """Precursor events keyed by node (node-scoped) and blade.

        ``(by_node, by_blade)`` with sorted ``(time, event)`` entries --
        the split the lead-time and false-positive analyses both need.
        """
        cached = self.__dict__.get("_precursor_candidates")
        if cached is None:
            by_node: dict[str, list[tuple[float, str]]] = defaultdict(list)
            by_blade: dict[str, list[tuple[float, str]]] = defaultdict(list)
            for t, about, event in self.events:
                if event not in EXTERNAL_PRECURSOR_EVENTS:
                    continue
                if event in NODE_SCOPED_PRECURSORS:
                    by_node[about].append((t, event))
                else:
                    blade = _blade_of(about)
                    if blade is not None:
                        by_blade[blade].append((t, event))
            for table in (by_node, by_blade):
                for entries in table.values():
                    entries.sort()
            cached = (dict(by_node), dict(by_blade))
            self.__dict__["_precursor_candidates"] = cached
        return cached

    @property
    def blade_precursors(self) -> dict[str, tuple[list[float], tuple[str, ...]]]:
        """Blade -> (sorted list of precursor times, matching event keys).

        Every precursor-class event whose subject projects onto the
        blade, regardless of node scoping -- the root-cause engine's
        window query, which used to rescan :attr:`events` per failure.
        """
        cached = self.__dict__.get("_blade_precursors")
        if cached is None:
            grouped: dict[str, list[tuple[float, str]]] = defaultdict(list)
            for t, about, event in self.events:
                if event not in EXTERNAL_PRECURSOR_EVENTS:
                    continue
                blade = _blade_of(about)
                if blade is not None:
                    grouped[blade].append((t, event))
            cached = {}
            for blade, entries in grouped.items():
                entries.sort()
                cached[blade] = (
                    [t for t, _ in entries],
                    tuple(event for _, event in entries),
                )
            self.__dict__["_blade_precursors"] = cached
        return cached

    # ------------------------------------------------------------------
    def component_had_event_near(
        self, table: dict[str, list[float]], cname: str, time: float, window: float
    ) -> bool:
        """Any event for ``cname`` within ±window of ``time``?"""
        times = table.get(cname)
        if not times:
            return False
        return _any_within(times, time - window, time + window)


def _any_within(times: Sequence[float], lo_t: float, hi_t: float) -> bool:
    """Does the sorted ``times`` hold a value in ``[lo_t, hi_t]``?"""
    lo = bisect_left(times, lo_t)
    return lo < len(times) and times[lo] <= hi_t


@dataclass(frozen=True)
class CorrespondenceStats:
    """Fault-to-failure correspondence for one group (e.g. one month)."""

    group: int
    faults: int
    corresponding: int

    @property
    def fraction(self) -> float:
        return self.corresponding / self.faults if self.faults else 0.0


def correspondence(
    fault_events: Sequence[tuple[float, str]],
    failures: Sequence[DetectedFailure],
    window: float = HOUR,
    group_seconds: float = MONTH,
    fail_times: Optional[dict[str, list[float]]] = None,
) -> list[CorrespondenceStats]:
    """Fraction of fault events followed by the named node failing.

    A fault *corresponds* when the same node has a detected failure in
    ``[t_fault - 120, t_fault + window]`` -- the small negative slack
    absorbs the post-mortem NHFs that trail a crash by seconds.
    Results are grouped into ``group_seconds`` buckets (months for
    Fig. 5, weeks for Fig. 6).  ``fail_times`` lets the pipeline share
    one per-node failure-time table across analyses.
    """
    if fail_times is None:
        fail_times = failure_times_by_node(failures)
    grouped: dict[int, list[bool]] = defaultdict(list)
    for t, node in fault_events:
        times = fail_times.get(node)
        hit = times is not None and _any_within(times, t - 120.0, t + window)
        grouped[int(t // group_seconds)].append(hit)
    return [
        CorrespondenceStats(group=g, faults=len(hits), corresponding=sum(hits))
        for g, hits in sorted(grouped.items())
    ]


@dataclass(frozen=True)
class NhfBreakdown:
    """Fig. 6: what NHFs in one week turned out to be."""

    week: int
    total: int
    failed: int
    power_off: int
    skipped: int

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.total if self.total else 0.0


def nhf_breakdown(
    index: ExternalIndex,
    failures: Sequence[DetectedFailure],
    window: float = HOUR,
    fail_times: Optional[dict[str, list[float]]] = None,
) -> list[NhfBreakdown]:
    """Weekly NHF outcome breakdown (failed / power-off / skipped)."""
    fail_by_node = (fail_times if fail_times is not None
                    else failure_times_by_node(failures))
    off_by_node = index.off_times_by_node

    def _near(table: dict[str, list[float]], node: str, t: float,
              w: float) -> bool:
        times = table.get(node)
        return times is not None and _any_within(times, t - 120.0, t + w)

    weeks: dict[int, Counter] = defaultdict(Counter)
    for t, node in index.nhf:
        week = int(t // (7 * DAY))
        if _near(fail_by_node, node, t, window):
            weeks[week]["failed"] += 1
        elif _near(off_by_node, node, t, window):
            weeks[week]["power_off"] += 1
        else:
            weeks[week]["skipped"] += 1
    return [
        NhfBreakdown(
            week=w,
            total=sum(c.values()),
            failed=c["failed"],
            power_off=c["power_off"],
            skipped=c["skipped"],
        )
        for w, c in sorted(weeks.items())
    ]


def faulty_component_fractions(
    failures: Sequence[DetectedFailure],
    index: ExternalIndex,
    window: float = HOUR,
    group_seconds: float = 2 * MONTH,
) -> list[dict[str, float]]:
    """Fig. 7: fraction of failures on faulty blades / in faulty cabinets.

    "Faulty" means the blade (cabinet) logged any health fault or SEDC
    warning within ±window of the failure -- *excluding* the failure's own
    post-mortem confirmations (the NHF/heartbeat-stop the controllers
    report once the node is already dead would trivially correlate every
    crash with its own blade).  Grouped into two-month periods like the
    paper.
    """

    def _hit_excluding_self(
        table: dict[str, list[tuple[float, str]]],
        cname: str,
        node: str,
        t_fail: float,
    ) -> bool:
        entries = table.get(cname)
        if not entries:
            return False
        # (t,) sorts before every (t, about) pair: the walk starts at the
        # first entry at or after the window's start
        for i in range(bisect_left(entries, (t_fail - window,)), len(entries)):
            t, about = entries[i]
            if t > t_fail + window:
                break
            if about == node and t >= t_fail:
                continue  # post-mortem confirmation of this very failure
            return True
        return False

    grouped: dict[int, list[tuple[bool, bool]]] = defaultdict(list)
    for f in failures:
        blade = _blade_of(f.node)
        cabinet = _cabinet_of(f.node)
        blade_hit = blade is not None and (
            _hit_excluding_self(index.blade_fault_records, blade, f.node, f.time)
            or index.component_had_event_near(index.sedc, blade, f.time, window)
        )
        cab_hit = cabinet is not None and (
            _hit_excluding_self(index.cabinet_fault_records, cabinet, f.node, f.time)
            or index.component_had_event_near(index.sedc, cabinet, f.time, window)
        )
        grouped[int(f.time // group_seconds)].append((blade_hit, cab_hit))
    out = []
    for g, hits in sorted(grouped.items()):
        n = len(hits)
        out.append(
            {
                "group": g,
                "failures": n,
                "blade_fraction": sum(b for b, _ in hits) / n if n else 0.0,
                "cabinet_fraction": sum(c for _, c in hits) / n if n else 0.0,
            }
        )
    return out


def sedc_census(
    index: ExternalIndex, week: int = 0
) -> dict[str, object]:
    """Fig. 8: unique blades per SEDC warning type and combined faults."""
    t0, t1 = week * 7 * DAY, (week + 1) * 7 * DAY
    blades_by_sensor: dict[str, set[str]] = defaultdict(set)
    for t, src, sensor in index.sedc_events:
        if t0 <= t < t1 and _blade_of(src) is not None:
            blades_by_sensor[sensor].add(src)
    faulted: set[str] = set()
    for t, src, event in index.events:
        if t0 <= t < t1 and event in HEALTH_FAULT_EVENTS:
            faulted.add(src)
    return {
        "week": week,
        "unique_blades_per_warning": {
            sensor: len(blades) for sensor, blades in sorted(blades_by_sensor.items())
        },
        "components_with_faults": len(faulted),
    }


def failover_census(
    index: ExternalIndex,
    failures: Sequence[DetectedFailure],
    window: float = HOUR,
) -> dict[str, object]:
    """Interconnect failover outcomes and their failure consequences.

    The paper's background point 3: failed failovers delay recovery.
    Reports how many failover attempts succeeded, and what fraction of
    the *failed* ones were followed by a failure on the affected blade
    within ``window`` -- the quantitative version of that concern.
    """
    fail_by_blade: dict[str, list[float]] = defaultdict(list)
    for f in failures:
        blade = _blade_of(f.node)
        if blade is not None:
            fail_by_blade[blade].append(f.time)
    for times in fail_by_blade.values():
        times.sort()

    def _followed_by_failure(src: str, t: float) -> bool:
        blade = _blade_of(src) or src
        times = fail_by_blade.get(blade)
        if not times:
            return False
        lo = bisect_left(times, t)
        return lo < len(times) and times[lo] - t <= window

    ok = sum(1 for _t, _s, _l, good in index.failovers if good)
    failed = [(t, s) for t, s, _l, good in index.failovers if not good]
    harmful = sum(1 for t, s in failed if _followed_by_failure(s, t))
    return {
        "attempts": len(index.failovers),
        "succeeded": ok,
        "failed": len(failed),
        "failed_followed_by_failure": harmful,
        "harm_fraction": harmful / len(failed) if failed else 0.0,
    }


def warning_frequency_by_hour(
    index: ExternalIndex, day: int, top_blades: int = 8
) -> dict[str, np.ndarray]:
    """Fig. 9: hourly warning counts for the day's noisiest blades."""
    t0, t1 = day * DAY, (day + 1) * DAY
    counts: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(24, dtype=int))
    for t, src, _event in index.events:
        if t0 <= t < t1:
            blade = _blade_of(src) or src
            counts[blade][int((t - t0) // HOUR)] += 1
    ranked = sorted(counts.items(), key=lambda kv: -int(kv[1].sum()))
    return dict(ranked[:top_blades])


# -- registry declaration (see repro.core.analysis) -------------------------
from repro.core.analysis import AnalysisSpec, register  # noqa: E402
from repro.logs.record import LogSource  # noqa: E402

register(AnalysisSpec(
    name="nvf_correspondence",
    inputs=("index", "failures", "failure_times"),
    compute=lambda index, failures, fail_times: correspondence(
        index.nvf, failures, fail_times=fail_times),
    neutral=list,
    required_sources=(LogSource.CONTROLLER,),
    doc="Obs. 3: node-voltage-fault / failure correspondence (Fig. 5)",
))

register(AnalysisSpec(
    name="nhf_correspondence",
    inputs=("index", "failures", "failure_times"),
    compute=lambda index, failures, fail_times: correspondence(
        index.nhf, failures, fail_times=fail_times),
    neutral=list,
    required_sources=(LogSource.CONTROLLER,),
    doc="Obs. 3: node-heartbeat-fault / failure correspondence (Fig. 5)",
))

register(AnalysisSpec(
    name="nhf_breakdown",
    inputs=("index", "failures", "failure_times"),
    compute=lambda index, failures, fail_times: nhf_breakdown(
        index, failures, fail_times=fail_times),
    neutral=list,
    required_sources=(LogSource.CONTROLLER, LogSource.ERD),
    doc="Obs. 3: monthly NHF split into failure/power-off/other (Fig. 6)",
))

register(AnalysisSpec(
    name="faulty_fractions",
    inputs=("failures", "index"),
    compute=faulty_component_fractions,
    neutral=list,
    required_sources=(LogSource.CONTROLLER,),
    doc="monthly faulty-component fractions from health faults (Fig. 7)",
))
