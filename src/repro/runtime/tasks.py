"""Generic supervised task execution: the engine under campaign and fleet.

PR 4 built :class:`~repro.runtime.supervisor.CampaignSupervisor` around
one kind of work (paper experiments grouped by scenario).  The fleet
layer (PR 7) needs the *same* machinery -- forked workers with
heartbeats, per-task deadlines, bounded deterministic-backoff retries,
per-group circuit breakers, crash-safe journaling -- for a different
kind of work (per-system diagnosis shards).  This module is that
machinery with the work abstracted out:

* a :class:`TaskSpec` is any ``(task_id, group, run)`` triple whose
  ``run(seed)`` returns a pipe-sendable payload;
* :class:`TaskSupervisor` drives batches of tasks exactly the way the
  campaign supervisor drives experiments (the campaign supervisor is
  now a thin subclass); subclasses customise the journal field name,
  the worker-side span, the metric prefix, and -- crucially -- the
  :meth:`TaskSupervisor._publish` hook, where a subclass persists a
  finished task's payload.  A publish that raises :class:`PublishError`
  counts as a *failed attempt* and re-enters the retry loop: that is
  the fleet's self-healing path for shard artifacts that land corrupt;
* one single-threaded scheduler drives every run: it multiplexes up to
  ``SupervisorConfig.max_workers`` group workers
  (``multiprocessing.connection.wait`` over all live worker pipes), so
  independent groups run concurrently; ``max_workers == 1`` is the
  degenerate case of one worker at a time.  Retry backoff is a
  per-group time gate, never a blocking sleep, so a group waiting out
  its backoff never holds up another group.  Without process isolation
  (``isolated=False``, or no ``fork``) the same loop runs each batch
  in-process at its launch step.

Everything observable about the PR 4 supervisor (journal event
vocabulary, retry/breaker semantics, kill conditions, obs counters) is
preserved; only the nouns are now parameters.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.obs import OBS
from repro.runtime import faults
from repro.runtime.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "SupervisorConfig",
    "TaskSpec",
    "TaskOutcome",
    "PublishError",
    "TaskSupervisor",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables for one supervised run (campaign or fleet)."""

    #: per-task wall-clock deadline (seconds)
    deadline: float = 1800.0
    #: how often workers emit heartbeats
    heartbeat_interval: float = 0.2
    #: max heartbeat silence before a worker is declared dead
    heartbeat_grace: float = 10.0
    #: supervisor poll granularity
    poll_interval: float = 0.05
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: consecutive failures per group before its circuit opens
    breaker_threshold: int = 3
    #: run workers as separate processes (False = in-process capture)
    isolated: bool = True
    #: worker processes the scheduler runs at once
    max_workers: int = 1

    def __post_init__(self) -> None:
        # zero slots would leave the scheduler polling forever
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}")


@dataclass(frozen=True)
class TaskSpec:
    """One unit of supervised work.

    ``run(seed)`` executes in the worker (forked, so the callable is
    inherited and never pickled) and must return a payload the result
    pipe can carry -- plain jsonable data keeps workers replaceable.
    """

    task_id: str
    #: retry/breaker grouping key; tasks sharing a group share a worker
    #: batch and a breaker circuit
    group: str
    run: Callable[[int], Any]


@dataclass
class TaskOutcome:
    """What the supervisor concluded about one task."""

    task_id: str
    group: str
    status: str  # "completed" | "failed" | "skipped"
    attempts: int = 0
    reason: str = ""
    #: whatever :meth:`TaskSupervisor._publish` returned
    value: Any = None
    #: satisfied from a previous run's records (not re-run)
    from_journal: bool = False

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class PublishError(RuntimeError):
    """Persisting a finished task's payload failed.

    Raised by :meth:`TaskSupervisor._publish` overrides; the supervisor
    treats it exactly like a worker-reported failure, so the task
    re-enters the retry loop (the fleet's shard-artifact self-healing
    rides on this).
    """


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _worker_main(
    conn,
    tasks: Sequence[TaskSpec],
    seed: int,
    attempts: dict[str, int],
    heartbeat_interval: float,
    span_name: str,
    span_category: str,
    span_tag: str,
) -> None:
    """Run a batch of tasks, streaming progress over ``conn``.

    Runs in a forked child: ``tasks`` (including lambdas) are inherited,
    never pickled.  A daemon thread heartbeats continuously so the
    supervisor can tell "computing" from "dead"; hangs are the
    *deadline's* job, not the heartbeat's.  One task's exception is
    reported and the batch moves on -- only process death (SIGKILL,
    segfault) costs the remaining tasks, and the supervisor restarts
    those.
    """
    # the fork copied the parent's recorder wholesale: finished spans
    # and metric counts buffered *before* the fork belong to the parent
    # (which still holds them) -- shipping them home again would double
    # them, compounding with every worker forked later.  Drop the
    # inherited state so this worker only ever reports its own deltas;
    # the forking thread's span context is kept, it parents the first span.
    if OBS.enabled:
        OBS.drain()
        OBS.metrics.reset()

    lock = threading.Lock()
    done = threading.Event()

    def send(*message) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        while not done.is_set():
            try:
                send("heartbeat", time.monotonic())
            except OSError:  # supervisor went away; die quietly
                return
            done.wait(heartbeat_interval)

    threading.Thread(target=beat, daemon=True).start()
    try:
        for task in tasks:
            attempt = attempts.get(task.task_id, 1)
            send("start", task.task_id, attempt)
            try:
                with OBS.span(span_name, span_category,
                              **{span_tag: task.task_id,
                                 "attempt": attempt}):
                    faults.inject(task.task_id, attempt)
                    payload = task.run(seed)
                send("done", task.task_id, payload)
            except Exception as exc:  # isolate the task, not the batch
                send("error", task.task_id,
                     f"{type(exc).__name__}: {exc}")
        # the worker is forked, so its recorder inherited the parent's
        # enabled flag and span context: buffered spans/metrics go
        # home over the result pipe and are absorbed supervisor-side
        # (a killed worker loses only its unsent buffer)
        if OBS.enabled:
            send("obs", OBS.drain_payload())
        send("exit",)
    finally:
        done.set()
        conn.close()


# ---------------------------------------------------------------------------
# scheduler state
# ---------------------------------------------------------------------------
class _GroupState:
    """Retry-loop bookkeeping for one group."""

    __slots__ = ("key", "pending", "attempts", "last_error", "round_no",
                 "max_rounds", "eligible_at")

    def __init__(self, key: str, pending: list[TaskSpec],
                 max_rounds: int) -> None:
        self.key = key
        self.pending = pending
        self.attempts: dict[str, int] = {}
        self.last_error: dict[str, str] = {}
        self.round_no = 0
        self.max_rounds = max_rounds
        self.eligible_at = 0.0  # monotonic time the next round may start


class _Handle:
    """One live worker process being babysat by the scheduler."""

    __slots__ = ("state", "proc", "conn", "tasks_by_id", "current",
                 "task_started", "last_beat", "kill_reason", "finished")

    def __init__(self, state: _GroupState, proc, conn) -> None:
        now = time.monotonic()
        self.state = state
        self.proc = proc
        self.conn = conn
        self.tasks_by_id = {t.task_id: t for t in state.pending}
        self.current: Optional[str] = None
        self.task_started = now
        self.last_beat = now
        self.kill_reason: Optional[str] = None
        self.finished = False


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------
class TaskSupervisor:
    """Drive a table of :class:`TaskSpec` to completion under supervision.

    Subclasses set the class attributes to name their domain and
    override the outcome/publish hooks.  The ``journal`` can be
    anything with the campaign journal's ``append(event, **fields)``
    signature -- every state change lands there before it is acted on.
    """

    #: journal field carrying the task id ("experiment", "shard", ...)
    id_field = "task"
    #: worker-side span name and category for one task attempt
    task_span = "task.run"
    span_category = "runtime"
    #: span tag key carrying the task id (kept distinct from id_field
    #: only where an existing trace contract demands it)
    span_tag = "task"
    #: obs counter prefix (``<prefix>.retries``, ``<prefix>.completed``...)
    metric_prefix = "task"

    def __init__(self, journal, tasks: Sequence[TaskSpec],
                 config: Optional[SupervisorConfig] = None,
                 seed: int = 7) -> None:
        self.journal = journal
        self.tasks = tuple(tasks)
        self.config = config or SupervisorConfig()
        self.seed = seed
        self._notes: list[str] = []
        self._ctx = None
        if self.config.isolated:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                self._notes.append(
                    "process isolation unavailable (no fork); degraded to "
                    "in-process execution")

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _publish(self, task: TaskSpec, payload: Any, attempt: int) -> Any:
        """Persist a finished task's payload; the return value lands in
        the outcome.  Raise :class:`PublishError` to turn a bad publish
        into a retried attempt instead of a completion."""
        return payload

    def _complete_fields(self, task: TaskSpec, value: Any) -> dict:
        """Extra fields for the journal's ``complete`` event."""
        return {}

    def _make_outcome(self, task: TaskSpec, status: str, attempts: int,
                      reason: str = "", value: Any = None,
                      from_journal: bool = False) -> Any:
        """Build the outcome object for one finished task."""
        return TaskOutcome(task_id=task.task_id, group=task.group,
                           status=status, attempts=attempts, reason=reason,
                           value=value, from_journal=from_journal)

    # ------------------------------------------------------------------
    # execution entry point
    # ------------------------------------------------------------------
    def execute(self, outcomes: dict[str, Any]) -> None:
        """Run every task not already present in ``outcomes``.

        ``outcomes`` is both the resume seed (pre-populated entries are
        skipped) and the result sink (every task ends up keyed by id).
        """
        breaker = CircuitBreaker(threshold=self.config.breaker_threshold)
        waiting = []
        for key, group in self._groups():
            pending = [t for t in group if t.task_id not in outcomes]
            if pending:
                waiting.append(
                    _GroupState(key, pending, self._max_rounds(pending)))
        self._schedule(waiting, breaker, outcomes)

    def _groups(self) -> list[tuple[str, list[TaskSpec]]]:
        """Tasks grouped by group key (order of first appearance)."""
        order: list[str] = []
        groups: dict[str, list[TaskSpec]] = {}
        for task in self.tasks:
            if task.group not in groups:
                groups[task.group] = []
                order.append(task.group)
            groups[task.group].append(task)
        return [(key, groups[key]) for key in order]

    def _max_rounds(self, pending: list[TaskSpec]) -> int:
        # a worker that dies before ever reaching a task consumes no
        # attempts, so progress is not guaranteed per round; the round
        # cap bounds that pathology without constraining honest retries
        return (self.config.retry.max_attempts * len(pending)
                + self.config.breaker_threshold)

    # ------------------------------------------------------------------
    # the scheduler: single-threaded multiplexer
    # ------------------------------------------------------------------
    def _schedule(
        self,
        waiting: list[_GroupState],
        breaker: CircuitBreaker,
        outcomes: dict[str, Any],
    ) -> None:
        """Drive every group's retry loop to completion.

        One thread, many pipes: up to ``max_workers`` group workers run
        at once and ``multiprocessing.connection.wait`` multiplexes
        their messages.  Per-group backoff is a *time gate*
        (``eligible_at``), never a blocking sleep, so one group's retry
        wait never stalls another group's work -- ``max_workers == 1``
        included.  Without a fork context the launch step runs the
        batch in-process instead of forking a worker for it.
        """
        cfg = self.config
        handles: list[_Handle] = []
        while waiting or handles:
            now = time.monotonic()
            # launch rounds into free slots
            still_waiting: list[_GroupState] = []
            for state in waiting:
                if breaker.is_open(state.key):
                    self._skip_group(state, breaker, outcomes)
                    continue
                if len(handles) >= cfg.max_workers or now < state.eligible_at:
                    still_waiting.append(state)
                    continue
                state.round_no += 1
                if state.round_no > state.max_rounds:
                    for task in state.pending:
                        reason = state.last_error.get(
                            task.task_id, "supervisor made no progress")
                        self._finalize_failure(task, state, reason, outcomes)
                elif self._ctx is None:
                    self._run_batch_inline(state, breaker, outcomes)
                    if self._next_round(state, outcomes):
                        still_waiting.append(state)
                else:
                    handles.append(self._spawn(state))
            waiting = still_waiting
            if not handles:
                if waiting:
                    # everything is backoff-gated; nap until the
                    # earliest gate (bounded by the poll interval)
                    gap = (min(s.eligible_at for s in waiting)
                           - time.monotonic())
                    time.sleep(max(0.0, min(gap, cfg.poll_interval)))
                continue
            # wait for any worker to speak (or the poll tick)
            ready = set(multiprocessing.connection.wait(
                [h.conn for h in handles], timeout=cfg.poll_interval))
            survivors: list[_Handle] = []
            for handle in handles:
                if handle.conn in ready:
                    self._drain_handle(handle, breaker, outcomes)
                self._check_handle(handle)
                if (handle.finished or handle.kill_reason is not None
                        or not handle.proc.is_alive()):
                    self._reap_handle(handle, breaker, outcomes)
                    if self._next_round(handle.state, outcomes):
                        waiting.append(handle.state)
                else:
                    survivors.append(handle)
            handles = survivors

    def _next_round(self, state: _GroupState,
                    outcomes: dict[str, Any]) -> bool:
        """Post-batch accounting: drop finished tasks, finalize tasks
        whose retry budget is spent, and time-gate the group's next
        round.  True when the group still has runnable tasks."""
        retry = self.config.retry
        still = []
        for task in state.pending:
            if task.task_id in outcomes:
                continue
            if retry.allows(state.attempts.get(task.task_id, 0) + 1):
                still.append(task)
            else:
                self._finalize_failure(
                    task, state,
                    f"retries exhausted ({state.attempts[task.task_id]} "
                    f"attempts; last: "
                    f"{state.last_error.get(task.task_id, 'unknown')})",
                    outcomes)
        state.pending = still
        if still:
            state.eligible_at = time.monotonic() + retry.backoff(
                state.round_no, key=state.key)
        return bool(still)

    def _skip_group(
        self,
        state: _GroupState,
        breaker: CircuitBreaker,
        outcomes: dict[str, Any],
    ) -> None:
        reason = (f"circuit open for {state.key}: "
                  f"{breaker.reason(state.key)}")
        for task in state.pending:
            self.journal.append("skip", **{self.id_field: task.task_id},
                                reason=reason)
            outcomes[task.task_id] = self._make_outcome(
                task, "skipped", state.attempts.get(task.task_id, 0),
                reason=reason)

    def _finalize_failure(
        self,
        task: TaskSpec,
        state: _GroupState,
        reason: str,
        outcomes: dict[str, Any],
    ) -> None:
        attempts = state.attempts.get(task.task_id, 0)
        self.journal.append("failed", **{self.id_field: task.task_id},
                            attempts=attempts, reason=reason)
        outcomes[task.task_id] = self._make_outcome(
            task, "failed", attempts, reason=reason)

    # ------------------------------------------------------------------
    # per-message bookkeeping
    # ------------------------------------------------------------------
    def _complete(
        self,
        task: TaskSpec,
        payload: Any,
        state: _GroupState,
        breaker: CircuitBreaker,
        outcomes: dict[str, Any],
    ) -> None:
        attempt = state.attempts.get(task.task_id, 1)
        # publish first, completion event second: a crash in between
        # re-runs the task, which is safe because published artifacts
        # are deterministic and atomically replaced
        try:
            value = self._publish(task, payload, attempt)
        except PublishError as exc:
            self._attempt_failed(task, f"publish failed: {exc}", state,
                                 breaker)
            return
        self.journal.append("complete", **{self.id_field: task.task_id},
                            attempt=attempt,
                            **self._complete_fields(task, value))
        outcomes[task.task_id] = self._make_outcome(
            task, "completed", attempt, value=value)
        breaker.record_success(state.key)

    def _attempt_failed(
        self,
        task: TaskSpec,
        reason: str,
        state: _GroupState,
        breaker: CircuitBreaker,
    ) -> None:
        state.last_error[task.task_id] = reason
        self.journal.append("attempt-failed",
                            **{self.id_field: task.task_id},
                            attempt=state.attempts.get(task.task_id, 1),
                            reason=reason)
        if OBS.enabled:
            OBS.metrics.counter(f"{self.metric_prefix}.retries").inc()
        self._charge_breaker(state, reason, breaker)

    def _worker_lost(self, state: _GroupState, reason: str,
                     breaker: CircuitBreaker) -> None:
        # death between tasks: charge the group, not a task -- the
        # round cap bounds repeat offenders
        self.journal.append("worker-lost", group=state.key, reason=reason)
        if OBS.enabled:
            OBS.metrics.counter(f"{self.metric_prefix}.worker_lost").inc()
        self._charge_breaker(state, reason, breaker)

    def _charge_breaker(self, state: _GroupState, reason: str,
                        breaker: CircuitBreaker) -> None:
        if breaker.record_failure(state.key, reason):
            self.journal.append("breaker-open", key=state.key,
                                reason=reason)
            if OBS.enabled:
                OBS.metrics.counter(
                    f"{self.metric_prefix}.breaker_open").inc()

    # ------------------------------------------------------------------
    # batch runners
    # ------------------------------------------------------------------
    def _run_batch_inline(
        self,
        state: _GroupState,
        breaker: CircuitBreaker,
        outcomes: dict[str, Any],
    ) -> None:
        """Degraded mode: exception capture without process isolation.

        Reuses :func:`repro.core.analysis.guarded` -- the same
        capture-and-degrade primitive the diagnosis driver runs every
        analysis under -- so inline tasks and analyses share one
        error-capture contract.
        """
        from repro.core.analysis import guarded

        for task in state.pending:
            if breaker.is_open(state.key):
                return
            attempt = state.attempts.get(task.task_id, 0) + 1
            state.attempts[task.task_id] = attempt
            self.journal.append("start", **{self.id_field: task.task_id},
                                attempt=attempt, isolated=False)
            errors: dict[str, str] = {}
            payload = guarded(task.task_id,
                              lambda: task.run(self.seed), None, errors)
            if task.task_id in errors:
                self._attempt_failed(task, errors[task.task_id], state,
                                     breaker)
                continue
            self._complete(task, payload, state, breaker, outcomes)

    def _spawn(self, state: _GroupState) -> _Handle:
        """Fork one worker for the group's pending batch."""
        next_attempts = {t.task_id: state.attempts.get(t.task_id, 0) + 1
                         for t in state.pending}
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, state.pending, self.seed, next_attempts,
                  self.config.heartbeat_interval, self.task_span,
                  self.span_category, self.span_tag),
        )
        proc.start()
        child_conn.close()
        return _Handle(state, proc, parent_conn)

    def _drain_handle(self, handle: _Handle, breaker: CircuitBreaker,
                      outcomes: dict[str, Any]) -> None:
        """Consume every buffered message on one worker's pipe."""
        state = handle.state
        while True:
            try:
                if not handle.conn.poll(0):
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.finished = True
                return
            now = time.monotonic()
            kind = message[0]
            if kind == "heartbeat":
                handle.last_beat = now
            elif kind == "start":
                _, task_id, attempt = message
                handle.current = task_id
                handle.task_started = now
                handle.last_beat = now
                state.attempts[task_id] = attempt
                self.journal.append("start", **{self.id_field: task_id},
                                    attempt=attempt, isolated=True)
            elif kind == "done":
                _, task_id, payload = message
                self._complete(handle.tasks_by_id[task_id], payload,
                               state, breaker, outcomes)
                handle.current = None
            elif kind == "error":
                _, task_id, reason = message
                self._attempt_failed(handle.tasks_by_id[task_id], reason,
                                     state, breaker)
                handle.current = None
            elif kind == "obs":
                OBS.absorb(message[1])
            elif kind == "exit":
                handle.finished = True
                return

    def _check_handle(self, handle: _Handle) -> None:
        """Deadline / heartbeat enforcement for one live worker."""
        if handle.finished or handle.kill_reason is not None:
            return
        cfg = self.config
        now = time.monotonic()
        if (handle.current is not None
                and now - handle.task_started > cfg.deadline):
            handle.kill_reason = (
                f"deadline exceeded ({cfg.deadline:.1f}s) -- "
                "worker killed")
        elif now - handle.last_beat > cfg.heartbeat_grace:
            handle.kill_reason = (
                f"heartbeat lost (> {cfg.heartbeat_grace:.1f}s "
                "silence) -- worker killed")

    def _reap_handle(self, handle: _Handle, breaker: CircuitBreaker,
                     outcomes: dict[str, Any]) -> None:
        """Close out one worker: kill if needed, charge the casualty."""
        state = handle.state
        if handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=10.0)
        # a worker may have flushed results between the last drain and
        # the kill decision; those results are real -- collect them
        self._drain_handle(handle, breaker, outcomes)
        handle.conn.close()
        kill_reason = handle.kill_reason
        if kill_reason is None and handle.current is not None:
            kill_reason = (
                f"worker died (exit code {handle.proc.exitcode})")
        if handle.current is not None:
            self._attempt_failed(handle.tasks_by_id[handle.current],
                                 kill_reason or "worker died", state,
                                 breaker)
        elif kill_reason is not None:
            self._worker_lost(state, kill_reason, breaker)
