"""Step 3: job-log analysis (Figs. 12 and 17, Obs. 6 and 8).

Reconstructs job lifecycles from the scheduler log (either dialect),
yielding :class:`JobView` objects with allocation node lists, exit codes
and limit-violation events.  On top of that:

* :func:`exit_census` -- Fig. 12's success / config-error / other split;
* :class:`JobHolders` -- the job-holder table: which job held a node at
  a given time, answered by one bisect per query;
* :func:`job_failure_correlation` -- which failures happened on a node
  while a job held it, and how many failures share each job ID;
* :func:`same_job_locality` -- Obs. 8: groups of same-job failures that
  are temporally close but land on *different blades*;
* :func:`overallocation_report` -- Fig. 17: per overallocating job, how
  many nodes logged memory-limit violations and how many of them failed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.core.failure_detection import DetectedFailure
from repro.logs.parsing import ParsedRecord

__all__ = [
    "JobView",
    "JobHolders",
    "parse_jobs",
    "exit_census",
    "job_failure_correlation",
    "same_job_locality",
    "overallocation_report",
]

#: scheduler event -> the lifecycle step it records, for every dialect
_EVENT_KIND = {
    f"{scheduler}_{kind}": kind
    for scheduler in ("slurm", "torque", "cobalt")
    for kind in ("submit", "start", "complete", "cancel", "timeout",
                 "mem_exceeded", "requeue")
}


@dataclass
class JobView:
    """One job's lifecycle as reconstructed from the scheduler log."""

    job_id: int
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_code: Optional[int] = None
    user: Optional[str] = None
    app: Optional[str] = None
    nodes: list[str] = field(default_factory=list)
    cancelled: bool = False
    timed_out: bool = False
    mem_exceeded: bool = False
    requeued_for_nodes: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.exit_code == 0

    @property
    def config_error(self) -> bool:
        """Fig. 12's configuration-error bucket."""
        return self.cancelled or self.timed_out or self.mem_exceeded

    @property
    def failed_other(self) -> bool:
        """Ended badly for a non-configuration reason."""
        return (
            self.exit_code is not None
            and self.exit_code != 0
            and not self.config_error
        )

    def held_node_at(self, node: str, time: float, grace: float = 5.0) -> bool:
        """Did this job hold ``node`` at ``time``?

        ``grace`` extends the window past the job's end: when a buggy job
        kills its nodes minutes apart, the scheduler has already aborted
        the job by the time the later nodes die, yet those failures still
        "executed under the same job ID during the time of failure" in
        the paper's accounting.
        """
        if node not in self.nodes or self.start_time is None:
            return False
        end = self.end_time if self.end_time is not None else float("inf")
        return self.start_time <= time <= end + grace


def parse_jobs(scheduler_records: Iterable[ParsedRecord]) -> dict[int, JobView]:
    """Reconstruct all jobs from a scheduler-log record stream.

    Any record with an event and a ``job`` attribute creates its job,
    even when the event is not a lifecycle step.
    """
    jobs: dict[int, JobView] = {}
    #: ``job`` attribute text -> its view, so each text is parsed once
    by_text: dict[str, JobView] = {}
    kind_of = _EVENT_KIND.get
    for rec in scheduler_records:
        event = rec.event
        if event is None:
            continue
        attrs = rec.attrs
        job_attr = attrs.get("job")
        if job_attr is None:
            continue
        jv = by_text.get(job_attr)
        if jv is None:
            job_id = int(job_attr)
            jv = jobs.get(job_id)
            if jv is None:
                jv = jobs[job_id] = JobView(job_id=job_id)
            by_text[job_attr] = jv
        kind = kind_of(event)
        if kind is None:
            continue
        if kind == "start":
            jv.start_time = rec.time
            jv.user = attrs.get("user")
            jv.app = attrs.get("app")
            jv.nodes = [n for n in (attrs.get("nodes") or "").split(",") if n]
        elif kind == "complete":
            jv.end_time = rec.time
            jv.exit_code = rec.attr_int("code")
        elif kind == "submit":
            jv.submit_time = rec.time
        elif kind == "cancel":
            jv.cancelled = True
        elif kind == "timeout":
            jv.timed_out = True
        elif kind == "mem_exceeded":
            jv.mem_exceeded = True
        else:  # requeue
            node = attrs.get("node")
            if node:
                jv.requeued_for_nodes.append(node)
    return jobs


class JobHolders:
    """The job-holder table: which job held a node at a given time.

    Built once from ``jobs``: per node, the started jobs' spans sorted by
    start time (stable, so equal starts keep ``jobs`` order), their ends
    (infinite while unfinished) and the running maximum of those ends.
    :meth:`holder` bisects on start and walks back only while that
    running maximum plus ``grace`` still reaches ``t``.

    The rule is :meth:`JobView.held_node_at`'s: a job holds a node at
    ``t`` when ``start <= t <= end + grace``; an unstarted job never
    holds one.  Among holders the latest start wins, and equal starts go
    to the job that comes first in ``jobs`` order.
    """

    __slots__ = ("_by_node",)

    def __init__(self, jobs: dict[int, JobView]) -> None:
        spans: dict[str, list[tuple[float, float, JobView]]] = defaultdict(list)
        for jv in jobs.values():
            start = jv.start_time
            if start is None:
                continue
            end = jv.end_time if jv.end_time is not None else float("inf")
            for node in jv.nodes:
                spans[node].append((start, end, jv))
        #: node -> (starts, ends, running max of ends, jobs)
        self._by_node: dict[str, tuple[list, list, list, list]] = {}
        first = itemgetter(0)
        for node, entries in spans.items():
            entries.sort(key=first)
            ends = [end for _, end, _ in entries]
            reach, top = [], float("-inf")
            for end in ends:
                if end > top:
                    top = end
                reach.append(top)
            self._by_node[node] = ([start for start, _, _ in entries], ends,
                                   reach, [jv for _, _, jv in entries])

    def holder(self, node: str, t: float,
               grace: float = 900.0) -> Optional[JobView]:
        """The job holding ``node`` at ``t``, or None (see the class)."""
        table = self._by_node.get(node)
        if table is None:
            return None
        starts, ends, reach, views = table
        j = bisect_right(starts, t) - 1
        while j >= 0 and reach[j] + grace >= t:
            if ends[j] + grace >= t:
                best, start = j, starts[j]
                j -= 1
                while j >= 0 and starts[j] == start:
                    if ends[j] + grace >= t:
                        best = j
                    j -= 1
                return views[best]
            j -= 1
        return None


def exit_census(
    jobs: dict[int, JobView], day: Optional[int] = None
) -> dict[str, float]:
    """Fig. 12: job-outcome fractions (optionally for one day)."""
    pool = [
        j for j in jobs.values()
        if j.exit_code is not None
        and (day is None or (j.end_time is not None and int(j.end_time // 86_400) == day))
    ]
    n = len(pool)
    if n == 0:
        return {"jobs": 0, "success_frac": 0.0, "config_error_frac": 0.0,
                "nonzero_exit_frac": 0.0, "other_failure_frac": 0.0}
    success = sum(1 for j in pool if j.succeeded)
    nonzero = sum(1 for j in pool if j.exit_code != 0)
    config = sum(1 for j in pool if not j.succeeded and j.config_error)
    other = sum(1 for j in pool if j.failed_other)
    return {
        "jobs": n,
        "success_frac": success / n,
        "nonzero_exit_frac": nonzero / n,
        "config_error_frac": config / n,
        "other_failure_frac": other / n,
    }


def job_failure_correlation(
    jobs: dict[int, JobView],
    failures: Sequence[DetectedFailure],
    grace: float = 900.0,
    holders: Optional[JobHolders] = None,
) -> dict[int, list[DetectedFailure]]:
    """Failures that happened while a job held the failing node.

    Returns job_id -> its correlated failures.  A failure correlates with
    at most one job (the one holding the node at the failure time; ties
    go to the later-starting job).  ``grace`` keeps counting failures for
    a few minutes after a job aborts (see :meth:`JobView.held_node_at`).
    ``holders`` is ``jobs``' holder table when the caller already built
    it (see :class:`JobHolders`).
    """
    if holders is None:
        holders = JobHolders(jobs)
    holder_at = holders.holder
    out: dict[int, list[DetectedFailure]] = defaultdict(list)
    for f in failures:
        holder = holder_at(f.node, f.time, grace)
        if holder is not None:
            out[holder.job_id].append(f)
    return dict(out)


def same_job_locality(
    jobs: dict[int, JobView],
    failures: Sequence[DetectedFailure],
    max_span: float = 1800.0,
    min_failures: int = 2,
    holders: Optional[JobHolders] = None,
) -> list[dict[str, object]]:
    """Obs. 8: same-job failure groups and their blade diversity.

    For each job with >= ``min_failures`` correlated failures within
    ``max_span`` seconds of each other, report the time span and how many
    distinct blades the failing nodes occupied.  ``holders`` is ``jobs``'
    holder table when the caller already built it.
    """
    correlated = job_failure_correlation(jobs, failures, holders=holders)
    groups = []
    for job_id, fs in sorted(correlated.items()):
        if len(fs) < min_failures:
            continue
        times = sorted(f.time for f in fs)
        if times[-1] - times[0] > max_span:
            continue
        blades = {f.node.rsplit("n", 1)[0] for f in fs}
        groups.append(
            {
                "job_id": job_id,
                "app": jobs[job_id].app,
                "failures": len(fs),
                "span_seconds": times[-1] - times[0],
                "distinct_blades": len(blades),
                "spatially_distant": len(blades) > 1,
            }
        )
    return groups


def lost_core_hours(
    jobs: dict[int, JobView],
    failures: Sequence[DetectedFailure],
    cpus_per_node: int = 32,
) -> dict[str, float]:
    """Compute lost to failures vs configuration errors (wasted time).

    A job ended by a node failure loses its entire accumulated
    allocation (the paper: "job re-allocations are performed for
    recomputations"); walltime/memory kills and cancellations lose what
    they consumed too, but through user error rather than system fault.
    Returns core-hours per loss class plus the total delivered, so the
    waste fractions the checkpoint advisor targets are visible.
    """
    correlated = job_failure_correlation(jobs, failures)
    node_failure_loss = 0.0
    config_error_loss = 0.0
    delivered = 0.0
    for jv in jobs.values():
        if jv.start_time is None or jv.end_time is None:
            continue
        core_hours = (
            (jv.end_time - jv.start_time) / 3600.0
            * len(jv.nodes) * cpus_per_node
        )
        if jv.job_id in correlated or jv.requeued_for_nodes:
            node_failure_loss += core_hours
        elif jv.config_error:
            config_error_loss += core_hours
        elif jv.succeeded:
            delivered += core_hours
    total = node_failure_loss + config_error_loss + delivered
    return {
        "node_failure_core_hours": node_failure_loss,
        "config_error_core_hours": config_error_loss,
        "delivered_core_hours": delivered,
        "node_failure_fraction": node_failure_loss / total if total else 0.0,
        "config_error_fraction": config_error_loss / total if total else 0.0,
    }


def overallocation_report(
    jobs: dict[int, JobView],
    failures: Sequence[DetectedFailure],
    day: Optional[int] = None,
) -> list[dict[str, object]]:
    """Fig. 17: per overallocating job, violated vs failed node counts."""
    correlated = job_failure_correlation(jobs, failures)
    out = []
    for job_id, jv in sorted(jobs.items()):
        if not jv.mem_exceeded:
            continue
        if day is not None and (
            jv.start_time is None or int(jv.start_time // 86_400) != day
        ):
            continue
        failed = correlated.get(job_id, [])
        out.append(
            {
                "job_id": job_id,
                "allocated_nodes": len(jv.nodes),
                "overallocated_nodes": len(jv.nodes),  # demand is per-node
                "failed_nodes": len({f.node for f in failed}),
            }
        )
    return out


# -- registry declaration (see repro.core.analysis) -------------------------
from repro.core.analysis import AnalysisSpec, register  # noqa: E402
from repro.logs.record import LogSource  # noqa: E402

register(AnalysisSpec(
    name="job_census",
    inputs=("jobs",),
    compute=exit_census,
    neutral=lambda: exit_census({}),
    required_sources=(LogSource.SCHEDULER,),
    doc="Obs. 8: job exit-status census over the scheduler log (Fig. 12)",
))

register(AnalysisSpec(
    name="same_job_groups",
    inputs=("jobs", "failures", "job_holders"),
    compute=lambda jobs, failures, holders: same_job_locality(
        jobs, failures, holders=holders),
    neutral=list,
    required_sources=(LogSource.SCHEDULER,),
    doc="Obs. 8: co-failing nodes grouped by shared job",
))
