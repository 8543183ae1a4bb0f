"""Hierarchical tracing spans and the process-wide recorder.

A *span* is one timed unit of pipeline work -- parsing a file, running
an analysis, supervising a worker batch -- with wall time, CPU time and
arbitrary tags (record counts, byte counts, file names).  Spans nest:
the recorder keeps the innermost open span in a context variable, so a
span opened while another is active records that span as its parent,
and the exported trace shows the pipeline's real call tree.

Design constraints, in order:

1. **No-op cheap when disabled.**  The recorder ships disabled; every
   instrumentation site either checks :attr:`Recorder.enabled` (a plain
   attribute read) or calls :meth:`Recorder.span`, which returns one
   shared do-nothing context manager.  Nothing allocates, nothing
   locks.  The <3% overhead gate on ``bench_full_pipeline`` is recorded
   in ``BENCH_pr5.json``.
2. **Context-safe.**  Finished spans append under a lock; the open span
   lives in the current context, so a new thread (and an executor
   call) starts with no open span and records roots, and each asyncio
   task nests independently in its own copy of the context.  To carry
   a span across a thread, run the work under
   ``contextvars.copy_context().run``.
3. **Process-safe across fork.**  Span ids embed the recording pid, and
   a forked child (supervised campaign worker, fleet shard) keeps the
   context of the thread that forked it -- so the first span a worker
   opens records the supervisor-side span it forked under as its
   parent.  Workers :meth:`drain_payload` their buffered spans and
   metrics and ship them home over their result channel; the parent
   :meth:`absorb`\\ s them, exactly like the ingestion health
   accounting merges worker counters.

The module-level :data:`OBS` singleton is the recorder every layer of
the codebase instruments against.  It is *mutated* by
:func:`configure`, never replaced, so hot paths may cache the reference.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ObsConfig",
    "SpanRecord",
    "Recorder",
    "OBS",
    "configure",
    "session",
]


@dataclass(frozen=True)
class ObsConfig:
    """One observability session's settings (the public knob surface).

    ``enabled`` turns recording on; ``trace_path`` / ``metrics_path``
    ask the session exit (or the CLI) to export a Chrome trace-event
    JSON file / a canonical-JSON metrics snapshot.  Passing a path
    implies ``enabled`` for the CLI entry points.
    """

    enabled: bool = True
    trace_path: Optional[Path] = None
    metrics_path: Optional[Path] = None


@dataclass
class SpanRecord:
    """One finished span, ready for export."""

    name: str
    category: str
    #: wall-clock start, seconds since the epoch
    start: float
    #: wall-clock duration, seconds
    duration: float
    #: CPU time consumed by the recording process during the span
    cpu: float
    pid: int
    tid: int
    span_id: str
    parent_id: Optional[str]
    tags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-data view (the cross-process wire format)."""
        return {
            "name": self.name, "category": self.category,
            "start": self.start, "duration": self.duration,
            "cpu": self.cpu, "pid": self.pid, "tid": self.tid,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)


class _NoopSpan:
    """The shared disabled-mode span: every operation does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> "_NoopSpan":
        """Discard tags (disabled mode)."""
        return self

    def add(self, **counts) -> "_NoopSpan":
        """Discard counts (disabled mode)."""
        return self


#: the singleton handed out whenever recording is off
NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open span: context manager recording itself on exit."""

    __slots__ = ("_recorder", "name", "category", "tags",
                 "span_id", "parent_id", "_start", "_t0", "_c0")

    def __init__(self, recorder: "Recorder", name: str, category: str,
                 tags: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.category = category
        self.tags = tags

    def __enter__(self) -> "_LiveSpan":
        rec = self._recorder
        self.span_id = rec._next_id()
        self.parent_id = rec._current.get()
        rec._current.set(self.span_id)
        self._start = time.time()
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def tag(self, **tags) -> "_LiveSpan":
        """Attach or overwrite tag values."""
        self.tags.update(tags)
        return self

    def add(self, **counts) -> "_LiveSpan":
        """Accumulate numeric tag values (e.g. ``records=…, bytes=…``)."""
        for key, value in counts.items():
            self.tags[key] = self.tags.get(key, 0) + value
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        rec = self._recorder
        # restore by value, not by token: closing a span never raises
        rec._current.set(self.parent_id)
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        rec._record(SpanRecord(
            name=self.name, category=self.category, start=self._start,
            duration=duration, cpu=cpu, pid=os.getpid(),
            tid=threading.get_ident(), span_id=self.span_id,
            parent_id=self.parent_id, tags=self.tags,
        ))
        return False


class Recorder:
    """Context/process-safe collector of spans and metrics.

    Instrumentation sites use the module singleton :data:`OBS`; tests
    may build private recorders.  ``enabled`` is the master switch --
    see the module docstring for the disabled-mode contract.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.config = ObsConfig(enabled=False)
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        #: the innermost open span id of the current context
        self._current = contextvars.ContextVar("repro.obs.span", default=None)
        self._serial = 0

    # -- span lifecycle ------------------------------------------------
    def span(self, name: str, category: str = "repro", **tags):
        """Open a span (usable as a context manager).

        Returns the shared :data:`NOOP_SPAN` when disabled, so the
        disabled cost is one attribute check and one call.
        """
        if not self.enabled:
            return NOOP_SPAN
        return _LiveSpan(self, name, category, tags)

    def _next_id(self) -> str:
        with self._lock:
            self._serial += 1
            return f"{os.getpid()}-{self._serial}"

    def current_span_id(self) -> Optional[str]:
        """The innermost open span id of the current context, or None."""
        return self._current.get()

    def _record(self, span: SpanRecord) -> None:
        with self._lock:
            self._spans.append(span)

    # -- collection ----------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """Finished spans recorded so far (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Remove and return every finished span."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def drain_payload(self) -> dict:
        """Drain spans *and* snapshot metrics as one plain-data payload.

        The worker-side half of the cross-process contract: a forked
        worker calls this once, ships the payload over its result
        channel, and the parent :meth:`absorb`\\ s it.
        """
        payload = {
            "spans": [span.as_dict() for span in self.drain()],
            "metrics": self.metrics.snapshot(),
        }
        self.metrics.reset()
        return payload

    def absorb(self, payload: Optional[dict]) -> None:
        """Fold a worker's :meth:`drain_payload` into this recorder."""
        if not payload:
            return
        spans = [SpanRecord.from_dict(data)
                 for data in payload.get("spans", ())]
        with self._lock:
            self._spans.extend(spans)
        metrics = payload.get("metrics")
        if metrics:
            self.metrics.merge(metrics)

    def reset(self) -> None:
        """Drop all spans, metrics and nesting state (fresh session)."""
        with self._lock:
            self._spans.clear()
            self._serial = 0
        self._current.set(None)
        self.metrics.reset()


#: the process-wide recorder every layer instruments against (mutated
#: by :func:`configure`, never replaced -- hot paths cache the reference)
OBS = Recorder()


def configure(config: ObsConfig) -> Recorder:
    """Apply ``config`` to the global recorder and return it.

    Enabling starts a *fresh* observation session (previous spans and
    metrics are dropped); disabling merely stops recording, so a caller
    can still export what was gathered.
    """
    if config.enabled and not OBS.enabled:
        OBS.reset()
    OBS.config = config
    OBS.enabled = config.enabled
    return OBS


@contextlib.contextmanager
def session(config: Optional[ObsConfig] = None) -> Iterator[Recorder]:
    """One scoped observation session over the global recorder.

    Enables recording on entry, and on exit writes the Chrome trace
    and/or metrics snapshot if the config names paths, then restores
    the previous enabled state.  The CLI's ``--trace``/``--metrics``
    flags are a thin wrapper over this.
    """
    from repro.obs.export import write_metrics, write_trace

    config = config or ObsConfig()
    was_enabled = OBS.enabled
    configure(config)
    try:
        yield OBS
    finally:
        OBS.enabled = was_enabled
        if config.trace_path is not None:
            write_trace(OBS.spans(), config.trace_path)
        if config.metrics_path is not None:
            write_metrics(OBS.metrics.snapshot(), config.metrics_path)
