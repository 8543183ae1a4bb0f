"""Sharded fleet diagnosis under full supervision, with self-healing.

:class:`FleetSupervisor` is the fleet-shaped subclass of
:class:`~repro.runtime.tasks.TaskSupervisor` -- the same engine that
drives the experiment campaign, pointed at shards: every fleet member
becomes one task in its *own* group, so each shard gets a private
worker process, a private deadline, and a private circuit breaker; one
pathological system can neither stall nor sink the rest of the fleet.

What the fleet adds on top of the generic engine:

* **columnar shard artifacts** -- a worker diagnoses its member and
  writes a self-validating ``.npz`` (:mod:`repro.fleet.artifact`);
  the light summary dict is all that crosses the result pipe;
* **self-healing publishes** -- :meth:`FleetSupervisor._publish`
  re-reads the artifact through its checksum before accepting the
  completion.  A corrupt or truncated artifact (bit rot, torn storage,
  or an injected ``corrupt_artifact`` fault) is deleted and surfaces
  as :class:`~repro.runtime.tasks.PublishError`, which the engine
  treats as a failed attempt: the shard is rebuilt in place, and only
  a *validated* artifact ever backs a ``complete`` event;
* **graceful degradation** -- shards that exhaust retries or trip
  their breaker become degraded entries in the
  :class:`~repro.fleet.rollup.FleetReport` with conserved accounting
  (``covered + degraded == fleet``), never a crashed run;
* **resume** -- ``run(resume=True)`` replays the fleet journal,
  re-validates every completed shard's artifact (a corrupt one is
  demoted to pending and rebuilt), re-runs only what is not proven
  done, and writes a ``fleet_report.json`` byte-identical to an
  uninterrupted run's: the report derives only from decoded shard
  content, which is deterministic in the fleet seed.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Any, Optional

from repro.core.artifacts import write_canonical_artifact
from repro.core.gcpause import paused_gc
from repro.fleet.artifact import ShardArtifact, ShardArtifactError, read_shard_artifact
from repro.fleet.rollup import FleetReport, merge_shards, shard_summary
from repro.fleet.scenario import FLEET_SYSTEM, FleetSpec, materialize_member
from repro.logs.store import LogStore
from repro.obs import OBS
from repro.runtime import faults
from repro.runtime.journal import Journal, JournalError
from repro.runtime.retry import RetryPolicy
from repro.runtime.tasks import (
    PublishError,
    SupervisorConfig,
    TaskOutcome,
    TaskSpec,
    TaskSupervisor,
)

__all__ = ["FleetJournal", "FleetSupervisor", "fleet_config"]

#: shard artifact directory under the fleet root
SHARDS_DIR = "shards"
#: merged report name under the fleet root
REPORT_NAME = "fleet_report.json"


def fleet_config(max_workers: Optional[int] = None) -> SupervisorConfig:
    """The fleet's default supervision tunables.

    Shards are seconds-scale, so deadlines are tight relative to the
    campaign's; concurrency defaults to the machine's spare cores
    (capped -- each worker forks a full simulator).
    """
    if max_workers is None:
        max_workers = max(1, min(8, (os.cpu_count() or 2) - 1))
    return SupervisorConfig(
        deadline=300.0,
        heartbeat_interval=0.2,
        heartbeat_grace=20.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.2, max_delay=2.0),
        breaker_threshold=3,
        max_workers=max_workers,
    )


class FleetJournal(Journal):
    """One fleet directory: event log, shard artifacts, merged report.

    The campaign journal's crash-safety contract (:class:`~repro.runtime
    .journal.Journal`: append-then-flush JSONL, torn-tail cut at
    replay, atomic artifacts) with the shard vocabulary::

        fleet-start / fleet-resume   systems, days, seed
        start / complete / attempt-failed / failed / skip   per shard
        artifact-corrupted / artifact-invalid               self-healing
        worker-lost / breaker-open                          casualties
        fleet-end                    covered, degraded
    """

    owned = (f"{SHARDS_DIR}/*.npz", REPORT_NAME)

    def __init__(self, root: Path | str) -> None:
        super().__init__(root)
        self.shards = self.root / SHARDS_DIR
        self.report_path = self.root / REPORT_NAME

    # ------------------------------------------------------------------
    def start(self, config: dict, resumed: bool = False) -> None:
        self.append("fleet-resume" if resumed else "fleet-start", **config)

    def recorded_config(self) -> Optional[dict]:
        """The (systems, days, seed) the fleet was started with."""
        for record in self.events():
            if record["event"] == "fleet-start":
                return {key: record[key]
                        for key in ("systems", "days", "seed")
                        if key in record}
        return None

    def completed_shards(self) -> set[str]:
        """Shards with a ``complete`` event (artifact still unverified --
        the resume path re-validates through the checksum)."""
        return {record["shard"] for record in self.events()
                if record["event"] == "complete"}

    def shard_path(self, member_id: str) -> Path:
        return self.shards / f"{member_id}.npz"


class FleetSupervisor(TaskSupervisor):
    """Diagnose every member of a fleet under supervision and roll up."""

    id_field = "shard"
    task_span = "fleet.shard"
    span_category = "fleet"
    span_tag = "shard"
    metric_prefix = "fleet.shard"

    def __init__(
        self,
        root: Path | str,
        spec: Optional[FleetSpec] = None,
        config: Optional[SupervisorConfig] = None,
        cache_root: Optional[Path] = None,
    ) -> None:
        self.spec = spec or FleetSpec()
        self.cache_root = cache_root
        journal = FleetJournal(root)
        tasks = [
            TaskSpec(
                task_id=member_id,
                # one group per shard: private worker, private deadline,
                # private breaker -- shard failures never cross-infect
                group=f"shard:{member_id}",
                run=self._shard_runner(journal, member_id, index),
            )
            for index, member_id in enumerate(self.spec.member_ids)
        ]
        super().__init__(journal, tasks, config=config or fleet_config(),
                         seed=self.spec.seed)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _shard_runner(self, journal: FleetJournal, member_id: str,
                      index: int):
        """The shard task body (runs in the forked worker).

        Materialises the member's logs (cached, atomic), runs the full
        holistic diagnosis, writes the columnar shard artifact, and
        returns the light summary dict -- the artifact stays on disk,
        only jsonable data crosses the pipe.
        """
        spec = self.spec
        cache_root = self.cache_root

        def run(seed: int) -> dict:
            import numpy as np

            from repro.core.pipeline import HolisticDiagnosis
            from repro.fleet.artifact import write_shard_artifact

            member_seed = spec.member_seed(index)
            store = materialize_member(member_id, member_seed, spec.days,
                                       root=cache_root)
            if spec.platform is not None:  # forced read dialect
                store = LogStore(store.root, platform=spec.platform)
            # store-local parse cache: a shard retried after a fault, or
            # rebuilt because its artifact rotted on resume, re-reads the
            # member's (unchanged) logs as pure cache hits instead of
            # re-parsing them
            # one collector pause over both steps, as api.diagnose holds
            with paused_gc():
                diag = HolisticDiagnosis.from_store(
                    store.with_cache(True), total_nodes=FLEET_SYSTEM.nodes)
                report = diag.run()
            summary = shard_summary(member_id, member_seed, spec.days,
                                    FLEET_SYSTEM.nodes, report,
                                    diag.records)
            arrays = {
                "internal_times": diag.records.internal.times,
                "external_times": diag.records.external.times,
                "scheduler_times": diag.records.scheduler.times,
                "failure_times": np.sort(np.asarray(
                    [f.time for f in report.failures], dtype=float)),
            }
            write_shard_artifact(journal.shard_path(member_id), arrays,
                                 summary)
            return summary

        return run

    # ------------------------------------------------------------------
    # TaskSupervisor hooks
    # ------------------------------------------------------------------
    def _publish(self, task: TaskSpec, payload: Any,
                 attempt: int) -> ShardArtifact:
        """Accept a shard only through its validated on-disk artifact.

        The chaos plan's ``corrupt_artifact`` faults fire here, against
        the file the worker just published -- modelling bit rot on a
        once-valid artifact.  Validation failure deletes the damaged
        file and raises :class:`PublishError`, so the engine retries
        and the shard is rebuilt in place (self-healing, never fatal).
        """
        path = self.journal.shard_path(task.task_id)
        if faults.corrupt_artifact(task.task_id, attempt, path):
            self.journal.append("artifact-corrupted", shard=task.task_id,
                                attempt=attempt)
        try:
            return read_shard_artifact(path)
        except ShardArtifactError as exc:
            with contextlib.suppress(OSError):
                path.unlink()
            self.journal.append("artifact-invalid", shard=task.task_id,
                                reason=str(exc))
            if OBS.enabled:
                OBS.metrics.counter("fleet.shard.rebuilt").inc()
            raise PublishError(str(exc)) from None

    def _complete_fields(self, task: TaskSpec,
                         value: ShardArtifact) -> dict:
        return {"failures": int(value.report.get("failures", 0))}

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> FleetReport:
        """Diagnose the fleet (or finish doing so); returns the rollup.

        With observability enabled the run carries a ``fleet.run`` span
        with per-shard ``fleet.shard`` spans shipped home from the
        workers, plus ``fleet.shard.*`` lifecycle counters and the
        coverage gauges ``fleet.covered`` / ``fleet.degraded``.
        """
        with OBS.span("fleet.run", "fleet", systems=self.spec.systems,
                      days=self.spec.days, seed=self.spec.seed,
                      resumed=resume) as span:
            report = self._run(resume)
            span.add(covered=report.coverage["covered"],
                     degraded=report.coverage["degraded"])
        return report

    def _run(self, resume: bool) -> FleetReport:
        outcomes: dict[str, TaskOutcome] = {}
        if resume:
            recorded = self.journal.recorded_config()
            if recorded is not None and recorded != self.spec.as_config():
                raise JournalError(
                    f"fleet journal at {self.journal.root} was started "
                    f"with {recorded}; cannot resume with "
                    f"{self.spec.as_config()}")
            outcomes = self._replay()
        else:
            self.journal.reset()
        self.journal.start(self.spec.as_config(), resumed=resume)
        self.execute(outcomes)
        covered = {mid: outcome.value for mid, outcome in outcomes.items()
                   if outcome.completed}
        degraded = {
            mid: {"status": outcome.status, "reason": outcome.reason,
                  "attempts": outcome.attempts}
            for mid, outcome in outcomes.items() if not outcome.completed
        }
        report = merge_shards(self.spec.as_config(), self.spec.member_ids,
                              covered, degraded)
        write_canonical_artifact(self.journal.report_path,
                                 report.to_jsonable())
        self.journal.append("fleet-end",
                            covered=report.coverage["covered"],
                            degraded=report.coverage["degraded"])
        if OBS.enabled:
            for status in ("completed", "failed", "skipped"):
                count = sum(1 for o in outcomes.values()
                            if o.status == status)
                if count:
                    OBS.metrics.counter(f"fleet.shard.{status}").inc(count)
            OBS.metrics.gauge("fleet.covered").set(
                report.coverage["covered"])
            OBS.metrics.gauge("fleet.degraded").set(
                report.coverage["degraded"])
        return report

    def _replay(self) -> dict[str, TaskOutcome]:
        """Resume seed: completed shards whose artifacts still validate.

        Every artifact is re-read *through its checksum* -- a shard
        whose file rotted (or was truncated by a torn write) since its
        ``complete`` event is demoted back to pending and rebuilt.
        Failed/skipped shards are deliberately not replayed: a resume
        is a fresh chance with a fresh retry budget, and determinism
        makes an honest refailure reproduce the same degraded entry.
        """
        outcomes: dict[str, TaskOutcome] = {}
        done = self.journal.completed_shards()
        for member_id in self.spec.member_ids:
            if member_id not in done:
                continue
            try:
                artifact = read_shard_artifact(
                    self.journal.shard_path(member_id))
            except ShardArtifactError as exc:
                self.journal.append("artifact-invalid", shard=member_id,
                                    reason=str(exc))
                if OBS.enabled:
                    OBS.metrics.counter("fleet.shard.rebuilt").inc()
                continue
            outcomes[member_id] = TaskOutcome(
                task_id=member_id, group=f"shard:{member_id}",
                status="completed", value=artifact, from_journal=True)
        return outcomes
