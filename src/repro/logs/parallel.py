"""Parallel log parsing across worker processes.

Production log directories are tens of gigabytes; parsing is
embarrassingly parallel across files (each line is independent and each
source file is already time-ordered).  :func:`parallel_read` fans the
store's files out over a :class:`multiprocessing.Pool` -- one task per
physical file, so daily-rotated stores parallelise across days -- and
reassembles the same three record streams
:class:`~repro.core.pipeline.HolisticDiagnosis` consumes.

Robustness: workers never kill the pool.  A worker that fails on a file
(corrupt gzip segment, vanished file, decode explosion) returns a typed
error marker instead of raising; the parent then re-parses that file
serially once, and only if the serial pass also fails is the file
recorded as lost in the :class:`~repro.logs.health.IngestionHealth`
notes.  Strict-policy violations are markers too: raising inside
``pool.map`` would abort the map mid-flight and discard the sibling
workers' health accounting, so the parent collects every result first
and re-raises :class:`~repro.logs.health.IngestionError` only after the
pool has drained.

When the store carries a persistent parse cache
(:mod:`repro.logs.cache`), ingest is **delta-only**: the parent probes
every file against the cache first and ships only the *misses* -- the
delta -- to the pool.  A warm run therefore parses zero files and never
forks; a changed directory parses only the new/modified files, which is
what finally gives the pool a real multi-core win (the delta is the
whole workload, not a re-parse of the archive).  Pool workers populate
the cache themselves (the atomic entry writer is multi-process safe),
so one pass warms the cache for every future reader.

Per the optimisation guides' discipline ("no optimisation without
measuring"), the speed-up is benchmarked in
``benchmarks/bench_parallel_parse.py`` rather than assumed; on small
deltas the pool overhead dominates, so ``parallel_read`` falls back to
the serial path below :data:`MIN_PARALLEL_BYTES` -- and always on a
single-core host, where a pool can only lose (BENCH_pr3 measured 750 ms
pool vs 367 ms serial on 1 CPU).
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path
from typing import Optional

from repro.core.gcpause import paused_gc
from repro.logs.health import (
    ErrorPolicy,
    IngestionError,
    IngestionHealth,
    SourceHealth,
)
from repro.logs.cache import ParseCache
from repro.logs.parsing import LineParser, ParsedRecord
from repro.logs.record import LogSource
from repro.logs.store import LogStore, _merge_records, parse_log_file
from repro.obs import OBS
from repro.simul.clock import SimClock

__all__ = ["parallel_read", "diagnosis_inputs", "MIN_PARALLEL_BYTES"]

#: deltas smaller than this parse serially (pool startup would dominate).
#: Measured with the compiled dispatchers: a 6.7 MB five-file store
#: parses in ~0.42 s in-process but ~0.93 s through the pool (fork plus
#: pickling ~66 k records back through the result pipe), so the
#: break-even point sits well above the old 4 MB threshold.  With a
#: parse cache attached the comparison is against *delta* bytes only --
#: cached files never enter the decision.
MIN_PARALLEL_BYTES = 32 * 1024 * 1024


def _effective_cpu_count() -> int:
    """CPUs this process may actually use (affinity-aware where known).

    ``os.process_cpu_count`` (3.13+) respects affinity masks; older
    interpreters fall back to ``os.cpu_count``.  A single-core answer
    disables the pool outright -- forking there is pure overhead.
    """
    return getattr(os, "process_cpu_count", os.cpu_count)() or 1

#: typed failure marker a worker sends home instead of raising:
#: ``("strict", detail)`` for strict-policy violations (re-raised by the
#: parent after the pool drains), ``("lost", detail)`` for unreadable
#: files, ``("crash", detail)`` for unexpected worker exceptions.  The
#: parent retries only the latter two serially.
_ErrorMarker = tuple[str, str]

#: result tuple a worker sends home: (records, health-dict, quarantined
#: raw lines, error marker or None)
_WorkerResult = tuple[
    list[ParsedRecord], dict[str, int], list[str], Optional[_ErrorMarker]]


def _parse_file(args: tuple) -> _WorkerResult:
    """Worker: parse one log file (module-level for pickling).

    The clock is rebuilt directly from the manifest's epoch string --
    no throwaway manifest needed.  Nothing raises out of here: every
    failure becomes a typed marker so one bad file (or one strict
    violation) cannot take down the pool or lose sibling accounting.

    ``args`` is ``(path, epoch_iso, policy_value)`` plus an optional
    fourth element naming a parse-cache directory: when present, the
    worker parses through the cache -- populating it for every future
    reader -- instead of discarding its work at exit.  The atomic entry
    writer makes concurrent workers race benignly.  An optional fifth
    element names the platform catalog (dialect) to parse under; absent
    means the default Cray dialect.
    """
    path_str, epoch_iso, policy_value = args[:3]
    cache_dir = args[3] if len(args) > 3 else None
    catalog = args[4] if len(args) > 4 else None
    policy = ErrorPolicy(policy_value)
    parser = LineParser(SimClock.from_iso(epoch_iso), catalog=catalog)
    cache = ParseCache(Path(cache_dir)) if cache_dir else None
    try:
        records, health, quarantined = parse_log_file(
            Path(path_str), parser, policy, cache=cache)
        return records, health.as_dict(), quarantined, None
    except IngestionError as exc:
        if policy is ErrorPolicy.STRICT:
            return [], {}, [], ("strict", str(exc))
        return [], {}, [], ("lost", f"unreadable: {path_str}")
    except Exception as exc:  # worker crash -> marker, not pool death
        return [], {}, [], ("crash", f"{type(exc).__name__}: {exc}")


#: eight flat columns, one per :class:`ParsedRecord` field
_RecordColumns = tuple[list, list, list, list, list, list, list, list]


def _pack_records(records: list[ParsedRecord]) -> _RecordColumns:
    """Columnar wire format for shipping records out of a worker.

    Pickling eight flat lists costs far less than one reduce call per
    record (the pickler memoises the shared enum singletons and the
    empty-attrs sentinel once per column instead of once per record),
    and the parent-side rebuild is a single C-level ``map``.  The
    parent's deserialisation is the serial bottleneck of the pool path,
    so this is where the fan-in time goes.
    """
    return (
        [r.time for r in records],
        [r.source for r in records],
        [r.component for r in records],
        [r.daemon for r in records],
        [r.event for r in records],
        [r.attrs for r in records],
        [r.severity for r in records],
        [r.body for r in records],
    )


def _unpack_records(columns: _RecordColumns) -> list[ParsedRecord]:
    """Rebuild records from the columnar wire format (inverse of pack)."""
    if not columns[0]:
        return []
    return list(map(ParsedRecord, *columns))


def _parse_file_packed(
    args: tuple
) -> tuple[_RecordColumns, dict[str, int], list[str],
           Optional[_ErrorMarker], Optional[dict]]:
    """Pool-side wrapper of :func:`_parse_file` with columnar results.

    The fifth element is the worker's buffered observability payload
    (spans + metrics, see :meth:`repro.obs.Recorder.drain_payload`) --
    ``None`` when recording is disabled.  Workers are forked, so they
    inherit the parent's enabled flag and open-span context; their
    spans come home through the result pipe and are absorbed at drain,
    never written concurrently.
    """
    records, counts, quarantined, error = _parse_file(args)
    payload = OBS.drain_payload() if OBS.enabled else None
    return _pack_records(records), counts, quarantined, error, payload


def parallel_read(
    store: LogStore,
    *,
    workers: Optional[int] = None,
    force_parallel: bool = False,
    error_policy: ErrorPolicy | str = ErrorPolicy.SKIP,
    health: Optional[IngestionHealth] = None,
) -> dict[LogSource, list[ParsedRecord]]:
    """Parse every source of a store, fanned out over processes.

    Returns source -> time-sorted records, assembled with a k-way merge
    of the per-file streams (each file comes back time-sorted, see
    :func:`~repro.logs.store.parse_log_file`).  When ``store`` carries a
    parse cache, ingest is delta-only: cache hits are served in the
    parent and only misses are parsed.  Serial fallback when the delta
    is small (see :data:`MIN_PARALLEL_BYTES`) or the host has a single
    usable CPU -- a pool can only lose there -- unless
    ``force_parallel`` insists.  ``error_policy`` and ``health`` behave
    as in :meth:`~repro.logs.store.LogStore.read_source`.  Under the strict
    policy a violating file raises :class:`IngestionError` here in the
    parent -- but only after every worker result has been drained, so
    the health accounting of the other files survives.

    With observability enabled the whole read runs under a
    ``logs.parallel_read`` span (tags: file count, byte total, mode),
    and pool workers' buffered spans/metrics are merged at drain.
    """
    policy = ErrorPolicy.coerce(error_policy)
    # the parent's probe, unpack and merges allocate every record: no
    # cyclic collection meanwhile (forked pool workers start unpaused,
    # see repro.core.gcpause)
    with paused_gc(), OBS.span("logs.parallel_read", "ingest") as read_span:
        result = _parallel_read(store, workers, force_parallel, policy,
                                health, read_span)
    return result


def _parallel_read(
    store: LogStore,
    workers: Optional[int],
    force_parallel: bool,
    policy: ErrorPolicy,
    health: Optional[IngestionHealth],
    read_span,
) -> dict[LogSource, list[ParsedRecord]]:
    """The fan-out body of :func:`parallel_read` (span already open).

    Delta-only when the store carries a parse cache: every file is
    probed against the cache in the parent first (a hit costs one read
    + hash, no parse, no fork), and only the misses -- the delta --
    enter the serial-vs-pool decision.  A fully warm cache therefore
    parses zero files; a fresh daily segment parses alone.
    """
    manifest = store.manifest()
    cache = store.cache
    cache_dir = str(cache.root) if cache is not None else None
    catalog_name = store.catalog.name
    probe = (LineParser(manifest.clock(), catalog=store.catalog)
             if cache is not None else None)
    tasks: list[tuple[LogSource, str]] = []
    #: per-task result slot; filled from the cache probe here, from the
    #: serial/pool parse below for the delta
    parsed: list[Optional[_WorkerResult]] = []
    delta_indices: list[int] = []
    total_bytes = delta_bytes = 0
    for source in LogSource:
        if policy is ErrorPolicy.QUARANTINE:
            store._reset_quarantine(source)
        paths = store.source_files(source)
        if not paths and health is not None:
            health.source(source)
            health.note(f"source {source.value!r} has no log files")
        for path in paths:
            size = path.stat().st_size
            total_bytes += size
            tasks.append((source, str(path)))
            hit = None
            if cache is not None:
                try:
                    hit = cache.lookup(path, probe, policy)
                except IngestionError:
                    # unreadable file or a strict violation against the
                    # cached malformed lines: route through the normal
                    # delta machinery so the marker semantics (retry /
                    # lost / drain-then-raise) stay in one place
                    hit = None
            if hit is not None:
                records, file_health, quarantined = hit
                parsed.append(
                    (records, file_health.as_dict(), quarantined, None))
            else:
                delta_indices.append(len(parsed))
                parsed.append(None)
                delta_bytes += size
    out: dict[LogSource, list[ParsedRecord]] = {s: [] for s in LogSource}
    if not tasks:
        return out
    worker_args = [(tasks[i][1], manifest.epoch_iso, policy.value, cache_dir,
                    catalog_name)
                   for i in delta_indices]
    cached_files = len(tasks) - len(delta_indices)
    use_pool = force_parallel or (
        delta_bytes >= MIN_PARALLEL_BYTES and _effective_cpu_count() > 1)
    if not worker_args:
        # fully warm cache: nothing to parse, nothing to fork
        read_span.tag(mode="cached", files=len(tasks), bytes=total_bytes,
                      cached_files=cached_files, delta_files=0, delta_bytes=0)
    elif not use_pool:
        read_span.tag(mode="serial", files=len(tasks), bytes=total_bytes,
                      cached_files=cached_files,
                      delta_files=len(worker_args), delta_bytes=delta_bytes)
        for i, args in zip(delta_indices, worker_args):
            parsed[i] = _parse_file(args)
    else:
        read_span.tag(mode="pool", files=len(tasks), bytes=total_bytes,
                      cached_files=cached_files,
                      delta_files=len(worker_args), delta_bytes=delta_bytes)
        workers = workers or min(len(worker_args), _effective_cpu_count())
        with multiprocessing.Pool(processes=max(1, workers)) as pool:
            packed = pool.map(_parse_file_packed, worker_args)
        for i, (columns, counts, quarantined, error, payload) in zip(
                delta_indices, packed):
            OBS.absorb(payload)
            parsed[i] = (_unpack_records(columns), counts, quarantined,
                         error)
    lists: dict[LogSource, list[list[ParsedRecord]]] = {s: [] for s in LogSource}
    strict_violation: Optional[str] = None
    for (source, path), result in zip(tasks, parsed):
        records, counts, quarantined, error = result
        if error is not None and error[0] != "strict":
            # one serial retry in the parent before declaring the file lost
            records, counts, quarantined, error = _parse_file(
                (path, manifest.epoch_iso, policy.value, cache_dir,
                 catalog_name))
            if error is None:
                counts["retried_files"] = counts.get("retried_files", 0) + 1
        if error is not None:
            if error[0] == "strict":
                # deterministic line-level violation: no retry, raise
                # once every sibling's accounting has been folded in
                if strict_violation is None:
                    strict_violation = error[1]
                continue
            if health is not None:
                bucket = health.source(source)
                bucket.files += 1
                bucket.retried_files += 1
                health.note(
                    f"file lost after retry: {Path(path).name} ({error[1]})")
            continue
        store._write_quarantine(source, quarantined)
        if health is not None:
            health.source(source).merge(SourceHealth.from_dict(counts))
        lists[source].append(records)
    if strict_violation is not None:
        raise IngestionError(strict_violation)
    for source, source_lists in lists.items():
        out[source] = _merge_records(source_lists)
    return out


def diagnosis_inputs(
    store: LogStore,
    *,
    workers: Optional[int] = None,
    force_parallel: bool = False,
    error_policy: ErrorPolicy | str = ErrorPolicy.SKIP,
    health: Optional[IngestionHealth] = None,
) -> tuple[list[ParsedRecord], list[ParsedRecord], list[ParsedRecord]]:
    """(internal, external, scheduler) streams, parsed in parallel.

    Drop-in provider for :class:`~repro.core.pipeline.HolisticDiagnosis`::

        internal, external, sched = diagnosis_inputs(store)
        diag = HolisticDiagnosis(internal, external, sched)

    The per-source streams come back already time-sorted, so the
    combined streams are k-way merges, not re-sorts.
    """
    by_source = parallel_read(store, workers=workers,
                              force_parallel=force_parallel,
                              error_policy=error_policy, health=health)
    internal = _merge_records([
        by_source[LogSource.CONSOLE],
        by_source[LogSource.MESSAGES],
        by_source[LogSource.CONSUMER],
    ])
    external = _merge_records([
        by_source[LogSource.CONTROLLER],
        by_source[LogSource.ERD],
    ])
    return internal, external, by_source[LogSource.SCHEDULER]
