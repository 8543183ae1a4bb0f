"""Span recorder and layer wrappers for the traced run.

Nothing here touches ``repro.obs``: the traced run installs plain
function wrappers around the public entry points of ``repro.logs``,
``repro.core``, ``repro.serve`` and ``repro.stream`` (see
:func:`install`), each recording one :class:`Span` per call.  Spans
live in memory (one list per :class:`Recorder`) and are exported at the
end of the run.  The parent of a span is the span open in the current
:mod:`contextvars` context, so asyncio tasks and executor threads keep
their own stacks; every span carries the op (or request) id of its
root.

:func:`layer_totals` turns spans into per-layer *self* times: a span's
duration minus the durations of its direct children.  Every span
belongs to exactly one layer or to ``unattributed``, so the layers and
``unattributed`` sum to the root spans' time by construction.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import time
from typing import Any, Callable, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    """One timed call: name, interval, parent id and op id."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op", "value")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int], op: Optional[str]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: a per-span quantity (bytes, hit flag) for the count layers
        self.value: float = 0.0

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.op, self.value]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5])
        span.end = row[3]
        span.value = row[6]
        return span


class Recorder:
    """In-memory span sink shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # ids are unique per process; the pid keeps server-child spans
        # apart from the generator's
        self._ids = itertools.count(os.getpid() * 10_000_000)

    def begin(self, name: str, op: Optional[str] = None):
        parent = _CURRENT.get()
        if op is None and parent is not None:
            op = parent.op
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else None, op)
        return span, _CURRENT.set(span)

    def finish(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span]) -> Span:
        """Record an already-measured interval under ``parent``."""
        span = Span(next(self._ids), name, start,
                    parent.sid if parent is not None else None,
                    parent.op if parent is not None else None)
        span.end = end
        self.spans.append(span)
        return span

    def wrap(self, fn: Callable, name: str,
             value: Optional[Callable[..., float]] = None) -> Callable:
        """``fn`` recording one span per call (``value`` sizes it)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span.value = value(args, result)
                return result
            finally:
                self.finish(span, token)

        return traced

    def export(self) -> list[list]:
        return [span.as_list() for span in self.spans]


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _wrap_function(patches: Patches, rec: Recorder, module: Any, attr: str,
                   name: str, value=None) -> None:
    patches.set(module, attr, rec.wrap(getattr(module, attr), name, value))


def _wrap_method(patches: Patches, rec: Recorder, cls: type, attr: str,
                 name: str, value=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        patches.set(cls, attr, type(raw)(rec.wrap(raw.__func__, name, value)))
    else:
        patches.set(cls, attr, rec.wrap(raw, name, value))


def _file_bytes(args, result) -> float:
    try:
        return float(os.stat(args[0]).st_size)
    except OSError:
        return 0.0


def _one(args, result) -> float:
    return 1.0


def _found(args, result) -> float:
    return 1.0 if result is not None else 0.0


def install(rec: Recorder) -> Patches:
    """Wrap every traced entry point; returns the undo handle."""
    import repro.core.pipeline as pipeline
    import repro.logs.cache as cache_mod
    import repro.logs.store as store_mod
    from repro.core.external import ExternalIndex
    from repro.core.failure_detection import FailureDetector
    from repro.core.index import RecordIndex
    from repro.logs.cache import ParseCache
    from repro.logs.store import LogStore

    patches = Patches()
    fn = functools.partial(_wrap_function, patches, rec)
    meth = functools.partial(_wrap_method, patches, rec)
    # -- repro.logs --------------------------------------------------------
    fn(store_mod, "parse_log_file", "logs.parse_log_file")
    fn(store_mod, "_load_log_text", "logs.load_text", _file_bytes)
    fn(store_mod, "_parse_log_text", "logs.parse_text", _one)
    fn(cache_mod, "_content_hash", "logs.cache.hash")
    meth(ParseCache, "parse", "logs.cache.parse")
    meth(ParseCache, "lookup", "logs.cache.lookup")
    meth(ParseCache, "_load_entry", "logs.cache.entry", _found)
    meth(ParseCache, "_adapt", "logs.cache.adapt")
    meth(ParseCache, "_store_entry", "logs.cache.store")
    for reader in ("read_internal", "read_external", "read_scheduler"):
        meth(LogStore, reader, "logs.merge")
    # -- repro.core --------------------------------------------------------
    meth(pipeline.HolisticDiagnosis, "from_store", "core.from_store")
    meth(pipeline.HolisticDiagnosis, "__init__", "core.build")
    meth(RecordIndex, "build", "core.index")
    meth(ExternalIndex, "from_stream", "core.external")
    meth(FailureDetector, "detect", "core.detect")
    fn(pipeline, "exclude_intended", "core.accounting")
    fn(pipeline, "detect_swos", "core.accounting")
    fn(pipeline, "parse_jobs", "core.jobs")
    patches.set(pipeline.HolisticDiagnosis, "run",
                _profiled_run(rec, pipeline.HolisticDiagnosis.run))
    _install_stream(patches, rec)
    _install_serve(patches, rec)
    return patches


def _profiled_run(rec: Recorder, run: Callable) -> Callable:
    """``HolisticDiagnosis.run`` with one child span per analysis.

    The per-analysis wall seconds come from the pipeline's own
    ``run(profile=...)`` hook.  The children are laid out back to back
    from the run's start: their durations are exact, their placement
    inside the run is not (only durations enter self times).
    """

    @functools.wraps(run)
    def traced(self, only=None, *, profile=None):
        collected: dict[str, float] = {} if profile is None else profile
        span, token = rec.begin("core.run")
        try:
            return run(self, only, profile=collected)
        finally:
            rec.finish(span, token)
            cursor = span.start
            for name, seconds in collected.items():
                rec.add("core.analysis." + name, cursor, cursor + seconds,
                        span)
                cursor += seconds

    return traced


def _install_stream(patches: Patches, rec: Recorder) -> None:
    from repro.core.index import RecordIndex
    from repro.stream.alerts import AlertEngine
    from repro.stream.checkpoint import WatchCheckpoint
    from repro.stream.daemon import WatchDaemon
    from repro.stream.tailer import LogTailer

    meth = functools.partial(_wrap_method, patches, rec)
    meth(LogTailer, "poll", "stream.poll",
         lambda args, result: float(result.bytes_read))
    meth(RecordIndex, "append", "stream.index")
    meth(AlertEngine, "scan_records", "stream.alerts")
    meth(AlertEngine, "emit", "stream.alerts")
    meth(WatchDaemon, "_close_window", "stream.window")
    meth(WatchCheckpoint, "append", "stream.checkpoint")


def _install_serve(patches: Patches, rec: Recorder) -> None:
    import repro.serve.server as server
    from repro.serve.cache import ReportCache

    fn = functools.partial(_wrap_function, patches, rec)
    fn(server, "logdir_fingerprint", "serve.fingerprint")
    fn(server, "request_key", "serve.key")
    fn(server, "response_bytes", "serve.write")
    fn(server, "canonical_json", "core.serialize",
       lambda args, result: float(len(result)))
    _wrap_method(patches, rec, ReportCache, "get", "serve.cache.get", _found)
    service = server.DiagnosisService
    dispatch = service._dispatch
    offload = service._offload

    @functools.wraps(dispatch)
    async def traced_dispatch(self, request, writer, keep_alive):
        span, token = rec.begin("serve.request",
                                op=request.headers.get("x-request-id"))
        try:
            return await dispatch(self, request, writer, keep_alive)
        finally:
            rec.finish(span, token)

    @functools.wraps(offload)
    async def traced_offload(self, fn, *args):
        # queue wait: from the cache miss handing work to the executor
        # until an executor thread starts it
        submitted = time.perf_counter()
        parent = _CURRENT.get()
        context = contextvars.copy_context()
        executor = rec.wrap(fn, "serve.executor")

        def started(*call_args):
            rec.add("serve.queue_wait", submitted, time.perf_counter(),
                    parent)
            return context.run(executor, *call_args)

        return await offload(self, started, *args)

    patches.set(service, "_dispatch", traced_dispatch)
    patches.set(service, "_offload", traced_offload)


class OpSpan:
    """Root span of one benchmark op (a no-op without a recorder)."""

    __slots__ = ("rec", "op", "span", "token")

    def __init__(self, rec: Optional[Recorder], op: str) -> None:
        self.rec = rec
        self.op = op

    def __enter__(self) -> "OpSpan":
        if self.rec is not None:
            self.span, self.token = self.rec.begin("op", op=self.op)
        return self

    def __exit__(self, *exc) -> None:
        if self.rec is not None:
            self.rec.finish(self.span, self.token)


# ---------------------------------------------------------------------------
# layer accounting
# ---------------------------------------------------------------------------
#: span name -> layer, for spans whose layer does not depend on context
_LAYER = {
    "logs.parse_log_file": "logs.parse",
    "logs.parse_text": "logs.parse",
    "logs.cache.hash": "logs.cache.lookup",
    "logs.cache.entry": "logs.cache.lookup",
    "logs.cache.adapt": "logs.cache.lookup",
    "logs.cache.lookup": "logs.cache.lookup",
    "logs.cache.parse": "logs.cache.write",
    "logs.cache.store": "logs.cache.write",
    "logs.merge": "logs.merge",
    "core.build": "core.build.other",
    "core.run": "core.run.other",
    "core.index": "core.index",
    "core.external": "core.external",
    "core.detect": "core.detect",
    "core.accounting": "core.accounting",
    "core.jobs": "core.jobs",
    "core.serialize": "core.serialize",
    "serve.fingerprint": "serve.fingerprint",
    "serve.key": "serve.key",
    "serve.cache.get": "serve.cache.get",
    "serve.write": "serve.write",
    "serve.queue_wait": "serve.queue_wait",
    "serve.executor": "serve.executor",
    "stream.poll": "stream.poll",
    "stream.index": "stream.index",
    "stream.alerts": "stream.alerts",
    "stream.window": "stream.window",
    "stream.checkpoint": "stream.checkpoint",
}

_CACHE_PATH = ("logs.cache.parse", "logs.cache.lookup")


def layer_of(span: Span, by_id: dict[int, Span]) -> Optional[str]:
    """The layer a span's self time belongs to (None = unattributed).

    Structural spans (the op root, ``from_store``, the served request)
    are not layers: their self time is unattributed.
    """
    name = span.name
    if name.startswith("core.analysis."):
        return name
    if name == "logs.load_text":
        # reading + decompressing a file is the cache probe when a cache
        # fronts the parse, and part of the parse otherwise
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in _CACHE_PATH:
                return "logs.cache.lookup"
            parent = by_id.get(parent.parent)
        return "logs.parse"
    return _LAYER.get(name)


class LayerTotals:
    """Self seconds per layer plus the counts of the per-layer table."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.parse_files = 0
        self.read_bytes = 0.0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.serialize_bytes = 0.0
        self.serve_lookups = 0
        self.serve_hits = 0
        self.stream_bytes = 0.0

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())


def layer_totals(spans: list[Span],
                 ops: Optional[set[str]] = None) -> LayerTotals:
    """Self time per layer over the spans of ``ops`` (all when None)."""
    if ops is not None:
        spans = [span for span in spans if span.op in ops]
    by_id = {span.sid: span for span in spans}
    child_s: dict[int, float] = {}
    for span in spans:
        if span.parent in by_id:
            child_s[span.parent] = (child_s.get(span.parent, 0.0)
                                    + span.end - span.start)
    totals = LayerTotals()
    for span in spans:
        layer = layer_of(span, by_id)
        if layer is not None:
            own = span.end - span.start - child_s.get(span.sid, 0.0)
            totals.self_s[layer] = totals.self_s.get(layer, 0.0) + own
        name = span.name
        if name == "logs.parse_text":
            totals.parse_files += 1
        elif name == "logs.load_text":
            totals.read_bytes += span.value
        elif name == "logs.cache.entry":
            totals.cache_lookups += 1
            totals.cache_hits += int(span.value)
        elif name == "core.serialize":
            totals.serialize_bytes += span.value
        elif name == "serve.cache.get":
            totals.serve_lookups += 1
            totals.serve_hits += int(span.value)
        elif name == "stream.poll":
            totals.stream_bytes += span.value
    return totals
