"""Resilient log tailing: per-file offsets that survive hostile rotation.

The batch readers (:mod:`repro.logs.store`) re-read whole files; a
streaming daemon cannot.  :class:`LogTailer` tracks every physical file
of every source with a *(path, inode, size, content-prefix)* identity
and, on each :meth:`poll`, reads exactly the bytes appended since the
previous poll:

* **rotation** (``console.log`` renamed to ``console-r0.log`` and
  recreated) -- the renamed segment is recognised by its inode and keeps
  its consumed offset; the fresh active file starts at 0;
* **copytruncate rotation** (content copied out, active truncated in
  place) -- the copy is recognised by its content prefix and adopts the
  old offset; the shrunken active file restarts at 0;
* **reappearance** (file deleted and rewritten, new inode) -- adopted by
  content prefix, so identical content is never re-ingested;
* **gzip finalisation** (a plain segment replaced by its ``.gz`` twin)
  -- the compressed segment is decompressed once, the already-consumed
  plain-text offset skipped, the remainder ingested, and the segment
  marked final;
* **partial final lines** -- the offset only ever advances to the last
  newline, so a line caught mid-write is *held back* until complete
  (the same contract batch reads honour since the ``partial_tail``
  hardening) and a crash always leaves offsets at line starts.

A poll lists each source directory once and works on the live files
only: a finalized ``.gz`` segment is kept by name and never stat'ed,
opened or re-pathed again, so the rotated history a long-running daemon
accumulates costs a poll only the listing of its names.

Offsets are durable only at window boundaries: the tailer records, per
file, the byte offset of the first record at or past each
``k * boundary_seconds`` mark (O(1) per record, no buffering), and
:meth:`boundary_snapshot` hands the daemon the exact per-file restart
offsets for a closed window -- that is what makes ``--resume`` after
SIGKILL re-read only the open window.

Accounting semantics deliberately mirror the batch readers line for
line (same parser, same per-file skew reset, same mojibake scan, same
error-policy fates), so a stream tailed to completion produces the same
records *and* the same :class:`~repro.logs.health.IngestionHealth` a
batch read of the final directory would.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path
from typing import Optional

from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth
from repro.logs.parsing import REPLACEMENT_CHAR, LineParser, ParsedRecord
from repro.logs.record import LogSource
from repro.logs.store import (LogStore, _base_names, _list_dir,
                              _merge_records, _segment_names)
from repro.obs import OBS
from repro.simul.clock import SimClock

__all__ = ["LogTailer", "TailedFile", "PollIncrement", "TailStats"]

#: bytes of file head used for content identity (rotation matching)
PREFIX_LEN = 64

#: the source order the batch assemblers use -- increments must merge in
#: the same order so equal-time ties break as in the batch merge
INTERNAL_SOURCES = (LogSource.CONSOLE, LogSource.MESSAGES, LogSource.CONSUMER)
EXTERNAL_SOURCES = (LogSource.CONTROLLER, LogSource.ERD)
SCHEDULER_SOURCES = (LogSource.SCHEDULER,)


class TailStats:
    """Cumulative tailer event counters (mirrored to obs when enabled)."""

    __slots__ = ("polls", "rotations", "truncations", "reappeared",
                 "gzip_finalized", "bytes_read", "partial_holds")

    def __init__(self) -> None:
        self.polls = 0
        self.rotations = 0
        self.truncations = 0
        self.reappeared = 0
        self.gzip_finalized = 0
        self.bytes_read = 0
        self.partial_holds = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PollIncrement:
    """What one poll saw: merged per-stream record increments."""

    __slots__ = ("internal", "external", "scheduler", "bytes_read")

    def __init__(self, internal, external, scheduler, bytes_read) -> None:
        self.internal: list[ParsedRecord] = internal
        self.external: list[ParsedRecord] = external
        self.scheduler: list[ParsedRecord] = scheduler
        self.bytes_read: int = bytes_read

    @property
    def records(self) -> int:
        return len(self.internal) + len(self.external) + len(self.scheduler)


class TailedFile:
    """Tracking state for one physical log file."""

    __slots__ = ("path", "source", "ino", "offset", "prefix", "parser",
                 "finalized", "pending_tail", "boundaries", "next_k",
                 "counts", "boundary_counts", "settled")

    def __init__(self, path: Path, source: LogSource, clock: SimClock,
                 ino: Optional[int] = None, offset: int = 0,
                 prefix: bytes = b"", catalog=None) -> None:
        self.path = path
        self.source = source
        self.ino = ino
        #: bytes consumed; always points at a line start
        self.offset = offset
        #: first ``min(PREFIX_LEN, size)`` bytes observed (grows while
        #: the head is still short; immutable content for append-only
        #: files, so a mismatch means the file was replaced or rewritten)
        self.prefix = prefix
        self.parser = LineParser(clock, catalog=catalog)
        #: a ``.gz`` segment read once, never polled again
        self.finalized = False
        #: bytes currently held back past the last newline
        self.pending_tail = 0
        #: window index k -> byte offset of the first record at/past k*W
        self.boundaries: dict[int, int] = {}
        self.next_k = 1
        #: cumulative (read, parsed, quarantined, ignored, recovered)
        #: line accounting this tracker contributed to the shared health
        self.counts = (0, 0, 0, 0, 0)
        #: window index k -> the value of :attr:`counts` at the moment
        #: the boundary-k offset was marked; the difference against the
        #: live counts is exactly this file's *post-boundary* health
        #: contribution, which a resumed run will re-read and re-count
        self.boundary_counts: dict[int, tuple[int, ...]] = {}
        #: a boundary snapshot carried this finalized file's last offset
        #: (marked ``final``); later snapshots omit the file
        self.settled = False

    def boundary_offset(self, k: int) -> int:
        """Restart offset for window boundary ``k`` (see module doc)."""
        return self.boundaries.get(k, self.offset)

    def counts_at(self, k: int) -> tuple[int, ...]:
        """Line accounting as of the boundary-``k`` offset."""
        return self.boundary_counts.get(k, self.counts)


class LogTailer:
    """Tails every file of a :class:`~repro.logs.store.LogStore`."""

    def __init__(
        self,
        store: LogStore,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
        boundary_seconds: Optional[float] = None,
        reset_quarantine: bool = True,
    ) -> None:
        self.store = store
        self.clock = clock or store.manifest().clock()
        #: resolved once so every tracked file parses the same dialect
        self.catalog = store.catalog
        self.policy = ErrorPolicy.coerce(policy)
        self.health = health if health is not None else IngestionHealth()
        self.boundary_seconds = boundary_seconds
        self.stats = TailStats()
        #: per source: path-string -> live tracking state, read order
        self._tracked: dict[LogSource, dict[str, TailedFile]] = {
            source: {} for source in LogSource}
        #: per source: path-string -> finalized state (a ``.gz`` segment
        #: read once); kept by name alone, never stat'ed or read again
        self._final: dict[LogSource, dict[str, TailedFile]] = {
            source: {} for source in LogSource}
        #: states whose file vanished; kept for adoption on reappearance
        self._orphans: dict[LogSource, list[TailedFile]] = {
            source: [] for source in LogSource}
        #: finalized states whose file vanished: never adopted (like any
        #: finalized state), so kept for the snapshot only, off the poll
        self._retired: dict[LogSource, list[TailedFile]] = {
            source: [] for source in LogSource}
        #: per source directory: the sources it holds, by base name
        #: (``p0/`` holds three, listed once per poll for all of them)
        self._dirs = store.source_dirs()
        #: per source directory: its names at the last listing, as
        #: listed and as a set
        self._listing: dict[Path, tuple[list[str], frozenset[str]]] = {}
        #: per source: (the base names it was derived with, its files
        #: less the finalized ones, in read order); None once stale
        self._live: dict[LogSource, Optional[tuple[list[str], list[Path]]]] = {
            source: None for source in LogSource}
        # pre-seed every source bucket (batch creates them all up front)
        for source in LogSource:
            self.health.source(source)
        if reset_quarantine and self.policy is ErrorPolicy.QUARANTINE:
            for source in LogSource:
                self.store._reset_quarantine(source)

    # ------------------------------------------------------------------
    # checkpoint integration
    # ------------------------------------------------------------------
    def seed(self, offsets: dict[str, dict]) -> None:
        """Install checkpointed per-file offsets before the first poll.

        ``offsets`` maps store-relative paths to ``{"offset": int,
        "prefix": hex}`` as produced by :meth:`boundary_snapshot`.  The
        seeded state carries no inode (the checkpoint may be replayed on
        a different filesystem); the first poll re-establishes identity
        by content prefix, falling back to a fresh read when the prefix
        no longer matches.  A ``final`` entry whose file is gone is not
        seeded: an uninterrupted run keeps such a segment only as
        retired, never adopted, and never written again.
        """
        for rel, entry in offsets.items():
            path = self.store.root / rel
            source = self._source_of(path)
            if source is None or (entry.get("final") and not path.exists()):
                continue
            state = TailedFile(
                path, source, self.clock,
                ino=None,
                offset=int(entry.get("offset", 0)),
                prefix=bytes.fromhex(entry.get("prefix", "")),
                catalog=self.catalog,
            )
            self._tracked[source][str(path)] = state

    def _iter_states(self, source: LogSource):
        yield from self._final[source].values()
        yield from self._tracked[source].values()
        yield from self._orphans[source]
        yield from self._retired[source]

    def boundary_snapshot(self, k: int) -> dict[str, dict]:
        """Durable restart offsets at window boundary ``k`` (and prune).

        Call :meth:`boundary_health` for the same ``k`` *first*: the
        snapshot prunes the per-file marks the health computation needs.

        A finalized segment (a ``.gz`` read to its end) with no mark past
        ``k`` has reached the offset every later boundary would give it.
        Its entry is written once more, marked ``"final": true``, and
        omitted from every later snapshot, so a snapshot lists the live
        and still-changing files only; a checkpoint replay keeps final
        entries across snapshots (:meth:`WatchCheckpoint.load`).
        """
        snapshot: dict[str, dict] = {}
        for source in LogSource:
            for state in self._iter_states(source):
                if state.settled:
                    continue
                entry = {
                    "offset": state.boundary_offset(k),
                    "prefix": state.prefix.hex(),
                }
                # marks at or before k can never be asked for again
                state.boundaries = {j: off for j, off in
                                    state.boundaries.items() if j > k}
                state.boundary_counts = {j: c for j, c in
                                         state.boundary_counts.items()
                                         if j > k}
                if (state.finalized and not state.boundaries
                        and entry["offset"] == state.offset):
                    entry["final"] = True
                    state.settled = True
                snapshot[self._rel(state.path)] = entry
        return snapshot

    def boundary_health(self, k: int) -> IngestionHealth:
        """The shared health as it stood at the boundary-``k`` offsets.

        Computed by subtracting each live file's *post-boundary* line
        accounting (everything a ``--resume`` from the boundary offsets
        will re-read and re-count) from the current shared health.
        Files dropped in the meantime (in-place truncations) keep their
        full contribution: their content is gone, nothing re-reads it.
        The pair ``(boundary_snapshot(k), boundary_health(k))`` is the
        consistency invariant the checkpoint rides on -- restoring both
        and re-tailing from the offsets reproduces exactly the health a
        crash-free run accumulates.
        """
        snapshot = IngestionHealth()
        for source in LogSource:
            current = self.health.source(source)
            bucket = snapshot.source(source)
            read, parsed, quarantined, ignored, recovered = (
                current.read, current.parsed, current.quarantined,
                current.ignored, current.recovered)
            for state in self._iter_states(source):
                now = state.counts
                mark = state.counts_at(k)
                read -= now[0] - mark[0]
                parsed -= now[1] - mark[1]
                quarantined -= now[2] - mark[2]
                ignored -= now[3] - mark[3]
                recovered -= now[4] - mark[4]
            bucket.read = read
            bucket.parsed = parsed
            bucket.quarantined = quarantined
            bucket.ignored = ignored
            bucket.recovered = recovered
            bucket.files = current.files
            bucket.retried_files = current.retried_files
            # partial_tail deliberately 0: it is a current-state flag
            # recomputed from live tails at finalize, never restored
        return snapshot

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _rel(self, path: Path) -> str:
        return path.relative_to(self.store.root).as_posix()

    def _source_of(self, path: Path) -> Optional[LogSource]:
        for source in LogSource:
            base = self.store.path_for(source)
            if path.parent == base.parent and path.name.startswith(base.stem):
                return source
        return None

    @staticmethod
    def _head(path: Path, length: int) -> bytes:
        """First ``length`` *content* bytes (gz segments decompressed)."""
        if path.suffix == ".gz":
            with gzip.open(path, "rb") as handle:
                return handle.read(length)
        with path.open("rb") as handle:
            return handle.read(length)

    def _head_matches(self, path: Path, state: TailedFile) -> bool:
        if not state.prefix:
            return state.offset == 0
        try:
            head = self._head(path, len(state.prefix))
        except (OSError, gzip.BadGzipFile, EOFError):
            return False
        return head == state.prefix

    def _count(self, name: str, value: int = 1) -> None:
        if value and OBS.enabled:
            OBS.metrics.counter(name).inc(value)

    # ------------------------------------------------------------------
    # identity resolution
    # ------------------------------------------------------------------
    def _resolve(self, source: LogSource, files: list[Path]) -> list[TailedFile]:
        """Match current files to tracking states; returns read order.

        Adoption precedence: same path + same inode (the common case),
        then rename (same inode, new path), then gzip finalisation
        (plain twin vanished), then content prefix (copytruncate /
        reappearance), then a fresh state.  ``files`` holds the live
        files only: finalized segments never come here.
        """
        tracked = self._tracked[source]
        orphans = self._orphans[source]
        matched: dict[str, TailedFile] = {}
        unmatched: list[tuple[Path, os.stat_result]] = []
        pool: dict[str, TailedFile] = dict(tracked)

        # pass 1: same path, content still ours (inode when known, and
        # the file has not shrunk below the consumed offset).  The size
        # check is skipped for gz segments: their consumed offset counts
        # *decompressed* bytes while st_size counts compressed ones.
        for path in files:
            key = str(path)
            state = pool.get(key)
            try:
                st = path.stat()
            except OSError:
                # transiently unstat-able: keep the state, skip the read
                if state is not None:
                    matched[key] = pool.pop(key)
                continue
            if (state is not None
                    and (state.ino is None or state.ino == st.st_ino)
                    and (path.suffix == ".gz" or st.st_size >= state.offset)
                    and self._head_matches(path, state)):
                state.ino = st.st_ino
                matched[key] = pool.pop(key)
            else:
                unmatched.append((path, st))

        # pass 2: adoption of leftover states by the unmatched files
        pool_states = list(pool.values()) + orphans
        orphans.clear()
        for path, st in unmatched:
            key = str(path)
            adopted: Optional[TailedFile] = None
            kind = ""
            if path.suffix == ".gz":
                # a freshly gzipped segment: adopt the plain twin so the
                # already-consumed plain-text offset carries over
                plain_name = path.name.removesuffix(".gz")
                for state in pool_states:
                    if not state.finalized and state.path.name == plain_name:
                        adopted, kind = state, "gzip"
                        break
                if adopted is None:
                    # rotate + gzip between two polls: the intermediate
                    # plain segment was never seen, so no state carries
                    # its name -- fall back to content identity (the
                    # head check decompresses; sizes are incomparable)
                    for state in pool_states:
                        if (not state.finalized and state.prefix
                                and self._head_matches(path, state)):
                            adopted, kind = state, "gzip"
                            break
            else:
                # a renamed segment keeps its inode (classic rotation)
                # -- but inode alone is not identity: copytruncate keeps
                # the inode too, so the consumed content must still be
                # there (size and head), else this is the truncated
                # active file and the content lives in the copy
                for state in pool_states:
                    if (not state.finalized and state.ino is not None
                            and state.ino == st.st_ino
                            and st.st_size >= state.offset
                            and self._head_matches(path, state)):
                        # inode numbers are recycled: an unlinked file's
                        # inode can land on its own rewritten successor,
                        # so the path decides rotation vs reappearance
                        adopted = state
                        kind = ("reappearance"
                                if str(state.path) == key else "rotation")
                        break
                if adopted is None:
                    # copytruncate / reappearance: new inode, old content
                    for state in pool_states:
                        if (not state.finalized and state.prefix
                                and st.st_size >= state.offset
                                and self._head_matches(path, state)):
                            adopted = state
                            kind = ("reappearance"
                                    if str(state.path) == key else "rotation")
                            break
            if adopted is not None:
                pool_states.remove(adopted)
                adopted.path = path
                adopted.ino = st.st_ino
                if kind == "rotation":
                    self.stats.rotations += 1
                    self._count("stream.tail.rotations")
                elif kind == "reappearance":
                    self.stats.reappeared += 1
                    self._count("stream.tail.reappeared")
                matched[key] = adopted
            else:
                matched[key] = TailedFile(path, source, self.clock,
                                          ino=st.st_ino,
                                          catalog=self.catalog)

        # leftover states: nothing on disk claimed them this poll
        for state in pool_states:
            key = str(state.path)
            if key in matched:
                # the path now belongs to a different (fresh) state and
                # no copy adopted the old one: an in-place truncation --
                # that consumed content is gone for good
                self.stats.truncations += 1
                self._count("stream.tail.truncations")
            else:
                # path vanished; keep the state around for adoption if
                # the file reappears (rotation races span polls)
                orphans.append(state)

        self._tracked[source] = {
            key: matched[key]
            for key in map(str, files) if key in matched}
        return list(self._tracked[source].values())

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read_increment(self, state: TailedFile) -> list[ParsedRecord]:
        """New complete lines of one live file since its consumed offset."""
        path = state.path
        try:
            if path.suffix == ".gz":
                with path.open("rb") as handle:
                    data = gzip.decompress(handle.read())
                data = data[state.offset:]
                state.finalized = True
                self.stats.gzip_finalized += 1
                self._count("stream.tail.gzip_finalized")
            else:
                with path.open("rb") as handle:
                    handle.seek(state.offset)
                    data = handle.read()
        except (OSError, gzip.BadGzipFile, EOFError):
            return []  # transient / mid-write: retry next poll
        if not data:
            state.pending_tail = 0
            return []
        # grow the identity prefix while the head is still short
        if len(state.prefix) < PREFIX_LEN and state.offset <= len(state.prefix):
            need = PREFIX_LEN - len(state.prefix)
            skip = len(state.prefix) - state.offset
            state.prefix += data[skip:skip + need]
        # hold back everything past the last newline (mid-write tail);
        # for a finalized gz segment the torn tail is torn forever, but
        # it still counts as a held-back tail -- exactly what a batch
        # read of the same file reports as partial_tail
        cut = data.rfind(b"\n") + 1
        pending = len(data) - cut if data[cut:].strip() else 0
        if pending and pending != state.pending_tail:
            self.stats.partial_holds += 1
            self._count("stream.tail.partial_holds")
        state.pending_tail = pending
        data = data[:cut]
        if not data:
            return []
        return self._parse_increment(state, data)

    def _parse_increment(self, state: TailedFile,
                         data: bytes) -> list[ParsedRecord]:
        """Parse complete lines, advancing offset and boundary marks."""
        bucket = self.health.source(state.source)
        quarantined: list[str] = []
        records: list[ParsedRecord] = []
        read = parsed = recovered = ignored = 0
        in_order = True
        last_time = float("-inf")
        parse_ex = state.parser.parse_ex
        boundary = self.boundary_seconds
        offset = state.offset
        base = state.counts
        for raw in data.split(b"\n")[:-1]:
            line_start = offset
            offset += len(raw) + 1
            line = raw.decode("utf-8", errors="replace")
            record, status, repaired = parse_ex(
                line, REPLACEMENT_CHAR in line)
            if record is not None:
                t = record.time
                if boundary is not None:
                    # mark before counting this line: the boundary
                    # offset points at this line's start, so this line
                    # (and everything after) is post-boundary
                    while t >= state.next_k * boundary:
                        state.boundaries[state.next_k] = line_start
                        state.boundary_counts[state.next_k] = (
                            base[0] + read, base[1] + parsed,
                            base[2] + len(quarantined),
                            base[3] + ignored, base[4] + recovered)
                        state.next_k += 1
                read += 1
                parsed += 1
                recovered += repaired
                records.append(record)
                if t < last_time:
                    in_order = False
                else:
                    last_time = t
            elif status == "blank":
                read += 1
                ignored += 1
            else:
                read += 1
                if self.policy is ErrorPolicy.STRICT:
                    raise IngestionError(
                        f"malformed line in {state.path}: {line[:120]!r}",
                        path=str(state.path), line=line)
                if self.policy is ErrorPolicy.QUARANTINE:
                    quarantined.append(line)
                else:
                    ignored += 1
        state.offset = offset
        state.counts = (base[0] + read, base[1] + parsed,
                        base[2] + len(quarantined),
                        base[3] + ignored, base[4] + recovered)
        self.stats.bytes_read += len(data)
        if not in_order:
            records.sort(key=lambda r: r.time)
        bucket.read += read
        bucket.parsed += parsed
        bucket.recovered += recovered
        bucket.ignored += ignored
        bucket.quarantined += len(quarantined)
        if quarantined:
            self.store._write_quarantine(state.source, quarantined)
        return records

    def _list_sources(self) -> dict[LogSource, list[Path]]:
        """Every source's live files, one directory listing per directory.

        The selection and order are :meth:`LogStore.source_files`'s (the
        same helpers over the same listing), less the finalized
        segments.  Each source's files are derived again only when its
        directory's names, its base files or its finalized set change,
        so an unchanged history costs one listing and a comparison.
        """
        files: dict[LogSource, list[Path]] = {}
        for directory, sources in self._dirs.items():
            names = _list_dir(directory)
            listed = self._listing.get(directory)
            if listed is None or names != listed[0]:
                listed = self._listing[directory] = (names, frozenset(names))
                for source, _ in sources:
                    self._live[source] = None
            for source, base_name in sources:
                files[source] = self._live_files(
                    source, directory, base_name,
                    _base_names(directory, listed[1], base_name))
        return files

    def _live_files(self, source: LogSource, directory: Path,
                    base_name: str, bases: list[str]) -> list[Path]:
        """The source's files in read order, less the finalized ones.

        A finalized segment that left the directory is retired: kept
        for the snapshot, as a vanished file's state is, but never
        considered for adoption (a finalized state never is).
        """
        live = self._live[source]
        if live is not None and live[0] == bases:
            return live[1]
        names = _segment_names(self._listing[directory][0], base_name) + bases
        # keys are ``str(directory / name)``, built without a Path: only
        # the live files get one
        prefix = f"{directory}{os.sep}"
        keys = [prefix + name for name in names]
        final = self._final[source]
        present = set(keys)
        for key in [key for key in final if key not in present]:
            self._retired[source].append(final.pop(key))
        paths = [directory / name
                 for name, key in zip(names, keys) if key not in final]
        self._live[source] = (bases, paths)
        return paths

    def _poll_source(self, source: LogSource,
                     files: list[Path]) -> list[list[ParsedRecord]]:
        lists = []
        for state in self._resolve(source, files):
            increment = self._read_increment(state)
            if state.finalized:
                key = str(state.path)
                self._final[source][key] = self._tracked[source].pop(key)
                self._live[source] = None
            if increment:
                lists.append(increment)
        # the files the listing holds, as a batch read counts them: a
        # state per tracked or finalized file, never per adoption
        self.health.source(source).files = (
            len(self._tracked[source]) + len(self._final[source]))
        return lists

    # ------------------------------------------------------------------
    def poll(self) -> PollIncrement:
        """Read everything appended since the last poll, batch-ordered."""
        self.stats.polls += 1
        before = self.stats.bytes_read
        files = self._list_sources()
        internal: list[list[ParsedRecord]] = []
        for source in INTERNAL_SOURCES:
            internal.extend(self._poll_source(source, files[source]))
        external: list[list[ParsedRecord]] = []
        for source in EXTERNAL_SOURCES:
            external.extend(self._poll_source(source, files[source]))
        scheduler: list[list[ParsedRecord]] = []
        for source in SCHEDULER_SOURCES:
            scheduler.extend(self._poll_source(source, files[source]))
        increment = PollIncrement(
            _merge_records(internal),
            _merge_records(external),
            _merge_records(scheduler),
            self.stats.bytes_read - before,
        )
        if OBS.enabled:
            OBS.metrics.counter("stream.tail.bytes_read").inc(
                increment.bytes_read)
        return increment

    # ------------------------------------------------------------------
    def finalize_health(self) -> None:
        """Bring the shared health to batch-read semantics at shutdown.

        ``partial_tail`` is a *current-state* flag (is the file's last
        line torn right now?), not a cumulative count of transient
        mid-write snapshots seen along the way -- that is what a batch
        read of the final directory would report.
        """
        for source in LogSource:
            bucket = self.health.source(source)
            bucket.partial_tail = sum(
                1 for states in (self._final[source], self._tracked[source])
                for state in states.values() if state.pending_tail)
            if bucket.files == 0:
                self.health.note(
                    f"source {source.value!r} has no log files")
