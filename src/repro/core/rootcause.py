"""Per-failure root-cause inference (Table V, Sec. III-F, Obs. 7/9).

Combines everything the pipeline knows about one failure -- internal
evidence, nearby stack traces, correlated external indicators, and the
job that held the node -- into a :class:`RootCauseInference` with a
coarse *family* (hardware / software / filesystem / application /
unknown), a fine cause label, and the narrative fields of the paper's
Table V (internal indicators, external indicators, inference).

The rules deliberately refuse to guess: the three Obs.-9 patterns
(the HEST/BIOS signature, ``L0_sysd_mce``, bare shutdowns) come out
UNKNOWN, and a Lustre crash is only blamed on the application when a job
actually held the node or the trace leads with job-I/O modules.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.external import (
    EXTERNAL_PRECURSOR_EVENTS,
    ExternalIndex,
    _blade_of,
)
from repro.core.failure_detection import DetectedFailure
from repro.core.jobs import JobHolders, JobView
from repro.faults.model import FaultFamily
from repro.logs.stacktraces import CallTrace
from repro.simul.clock import HOUR

__all__ = ["RootCauseInference", "RootCauseEngine", "family_split"]

_FS_LEADING = {"ldlm_bl", "ldlm_bl_thread_main", "dvs_ipc_mesg",
               "inet_map_vism", "xpmem_detach", "xpmem_flush"}


@dataclass(frozen=True)
class RootCauseInference:
    """The pipeline's verdict on one failure."""

    failure: DetectedFailure
    family: FaultFamily
    cause: str
    confidence: float
    internal_indicators: str
    external_indicators: str
    inference: str
    job_id: Optional[int] = None
    fail_slow: bool = False
    memory_related: bool = False


class RootCauseEngine:
    """Applies the inference rules over a diagnosed log set.

    ``holders`` is ``jobs``' holder table when the caller already built
    it (see :class:`~repro.core.jobs.JobHolders`).
    """

    def __init__(
        self,
        index: ExternalIndex,
        node_traces: dict[str, list[CallTrace]],
        jobs: dict[int, JobView],
        precursor_window: float = 2 * HOUR,
        holders: Optional[JobHolders] = None,
    ) -> None:
        self.index = index
        self.node_traces = node_traces
        self.jobs = jobs
        self.precursor_window = precursor_window
        self.holders = holders if holders is not None else JobHolders(jobs)

    # ------------------------------------------------------------------
    def _holding_job(self, failure: DetectedFailure) -> Optional[JobView]:
        # grace past the job's end: a buggy job's later victims die after
        # the scheduler has already aborted it (same convention as
        # job_failure_correlation)
        return self.holders.holder(failure.node, failure.time, 900.0)

    def _nearest_trace(self, failure: DetectedFailure) -> Optional[CallTrace]:
        best, best_gap = None, 1800.0
        for trace in self.node_traces.get(failure.node, ()):
            gap = abs(trace.time - failure.time)
            if gap <= best_gap:
                best, best_gap = trace, gap
        return best

    def _external_precursors(self, failure: DetectedFailure) -> list[str]:
        """Precursor-class events on the failure's blade, shortly before.

        A bisect window over the index's cached per-blade precursor
        table -- semantically the scan over every external event this
        used to be, at a per-failure cost of one dict lookup and two
        bisects.
        """
        blade = _blade_of(failure.node)
        if blade is None:
            return []
        entry = self.index.blade_precursors.get(blade)
        if entry is None:
            return []
        times, events = entry
        lo = bisect_left(times, failure.time - self.precursor_window)
        hi = bisect_left(times, failure.time, lo)
        return list(events[lo:hi])

    # ------------------------------------------------------------------
    def infer(self, failure: DetectedFailure) -> RootCauseInference:
        """Run the rule chain on one failure."""
        job = self._holding_job(failure)
        trace = self._nearest_trace(failure)
        precursors = self._external_precursors(failure)
        internal = ", ".join(sorted(set(failure.evidence_events()))[:6]) or "none"
        external = ", ".join(sorted(set(precursors))[:4]) or "none around failure time"
        job_note = f"job {job.job_id} ({job.app})" if job else "no job"
        trace_lead = trace.leading if trace else None
        fs_trace = trace is not None and bool(set(trace.leading_k(3)) & _FS_LEADING)

        def verdict(family, cause, confidence, inference, fail_slow=False,
                    memory=False) -> RootCauseInference:
            return RootCauseInference(
                failure=failure, family=family, cause=cause,
                confidence=confidence,
                internal_indicators=internal,
                external_indicators=external,
                inference=inference,
                job_id=job.job_id if job else None,
                fail_slow=fail_slow,
                memory_related=memory,
            )

        symptom = failure.symptom
        # Obs. 9: refuse to guess
        if symptom in ("bios_unknown", "l0_sysd_mce"):
            return verdict(FaultFamily.UNKNOWN, symptom, 0.2,
                           "potential root cause could not be deduced")
        if symptom == "unknown" and not precursors and job is None:
            return verdict(FaultFamily.UNKNOWN, "unexplained_shutdown", 0.2,
                           "no prior anomaly symptoms; possible operator "
                           "error or undetectable corruption")
        # application family
        if symptom == "app_exit":
            return verdict(FaultFamily.APPLICATION, "app_exit", 0.9,
                           f"abnormal application exit failed NHC tests "
                           f"({job_note}); node admindowned")
        if symptom in ("oom", "mem_exhaustion"):
            note = ("stack modules indicate file-system inconsistency under "
                    "memory pressure; " if fs_trace else "")
            return verdict(FaultFamily.APPLICATION, "memory_exhaustion", 0.85,
                           f"{note}application-caused memory exhaustion "
                           f"({job_note})", memory=True)
        if symptom == "segfault":
            return verdict(FaultFamily.APPLICATION, "segfault", 0.8,
                           f"application segmentation faults ({job_note})")
        # filesystem family (possibly app-triggered)
        if symptom in ("lustre", "dvs"):
            if job is not None or fs_trace:
                return verdict(
                    FaultFamily.APPLICATION, f"app_triggered_{symptom}_bug", 0.75,
                    f"application-triggered file system bug ({job_note}); "
                    f"trace leads with {trace_lead or 'fs modules'}")
            return verdict(FaultFamily.FILESYSTEM, f"{symptom}_bug", 0.7,
                           "file system bug without job correlation")
        # hardware family
        if symptom in ("hw_mce", "disk", "gpu"):
            fail_slow = "ec_hw_error" in precursors
            note = ("fail-slow symptoms: early ec_hw_error precursors "
                    "before internal errors; " if fail_slow else "")
            cause = {"hw_mce": "mce_or_cpu_corruption", "disk": "disk_failure",
                     "gpu": "gpu_failure"}[symptom]
            return verdict(FaultFamily.HARDWARE, cause, 0.85,
                           f"{note}hardware errors escalated to a fatal "
                           "machine state", fail_slow=fail_slow)
        # software family
        if symptom == "kernel_bug":
            if fs_trace:
                return verdict(FaultFamily.APPLICATION, "app_triggered_fs_bug",
                               0.65,
                               "kernel oops whose trace leads with file "
                               f"system modules ({job_note}); root likely in "
                               "the application")
            family = FaultFamily.APPLICATION if job is not None else FaultFamily.SOFTWARE
            return verdict(family, "kernel_bug", 0.6,
                           f"critical kernel bug ({job_note})")
        if symptom == "cpu_stall":
            return verdict(FaultFamily.SOFTWARE, "cpu_stall", 0.6,
                           "CPU stall / driver or firmware bug")
        if symptom == "hung_task":
            return verdict(FaultFamily.APPLICATION, "hung_io", 0.5,
                           f"slow I/O blocking tasks ({job_note})")
        return verdict(FaultFamily.UNKNOWN, symptom, 0.3,
                       "insufficient information for causal inference")

    def infer_all(
        self, failures: Sequence[DetectedFailure]
    ) -> list[RootCauseInference]:
        """Inference for every failure, in time order."""
        return [self.infer(f) for f in failures]


def family_split(
    inferences: Sequence[RootCauseInference],
) -> dict[str, float]:
    """Sec. III-F: fraction of failures per family + memory share."""
    if not inferences:
        return {}
    counts = Counter(inf.family.value for inf in inferences)
    total = len(inferences)
    out = {family: counts.get(family, 0) / total
           for family in ("hardware", "software", "filesystem",
                          "application", "environment", "unknown")}
    out["memory_related"] = sum(i.memory_related for i in inferences) / total
    out["fail_slow"] = sum(i.fail_slow for i in inferences) / total
    return out


# -- registry declaration (see repro.core.analysis) -------------------------
from repro.core.analysis import AnalysisSpec, register  # noqa: E402

register(AnalysisSpec(
    name="root_causes",
    inputs=("index", "node_traces", "jobs", "job_holders", "failures"),
    compute=lambda index, traces, jobs, holders, failures: RootCauseEngine(
        index, traces, jobs, holders=holders).infer_all(failures),
    neutral=list,
    doc="Obs. 9: per-failure root-cause inference (Table V)",
))

register(AnalysisSpec(
    name="family_split",
    depends_on=("root_causes",),
    compute=family_split,
    neutral=dict,
    doc="Sec. III-F: failure fractions per fault family",
))
