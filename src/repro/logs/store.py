"""On-disk log store: the p0-directory layout, writers and readers.

The store mirrors the paper's Table II sources::

    <root>/
      manifest.json          # system key, seed, epoch, duration
      p0/console.log         # node-internal kernel messages
      p0/messages.log        # node-internal NHC / ALPS messages
      p0/consumer.log        # node-internal consumer (l0sysd) stream
      controller/controller.log   # BC + CC health faults
      erd/event.log          # event router stream (SEDC, ec_* events)
      sched/sched.log        # Slurm or Torque scheduler log

Writing streams a :class:`~repro.logs.record.LogBus` out through
:func:`~repro.logs.render.render_line`; reading streams lines back through
:class:`~repro.logs.parsing.LineParser`.  The reading side never needs the
simulator -- only the manifest's epoch so timestamps convert back to
simulation seconds.
"""

from __future__ import annotations

import gzip
import json
import os
import time as _time
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import IO, Container, Iterable, Iterator, Optional

import numpy as np

from repro.logs.catalogs import (
    DEFAULT_PLATFORM,
    PlatformCatalog,
    detect_platform,
    get_catalog,
    resolve_catalog,
)
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth, SourceHealth
from repro.logs.parsing import (
    _NO_TAIL,
    REPLACEMENT_CHAR,
    LineParser,
    ParsedRecord,
    RecordColumns,
    build_records,
)
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.render import render_line
from repro.obs import OBS
from repro.simul.clock import SimClock

__all__ = [
    "LogStore",
    "StoreManifest",
    "parse_log_file",
    "open_log_text",
    "QUARANTINE_DIR",
    "DEFAULT_CACHE_DIRNAME",
]

#: subdirectory (under the store root) collecting quarantined raw lines
QUARANTINE_DIR = "quarantine"

#: store-local default directory of the persistent parse cache
DEFAULT_CACHE_DIRNAME = ".parse-cache"

#: bounded retry for transient I/O errors (NFS hiccups, rotation races)
_IO_RETRIES = 3
_IO_BACKOFF = 0.05

#: sort/merge key for record streams
_TIME_KEY = attrgetter("time")


def _merge_records(lists: list[list[ParsedRecord]]) -> list[ParsedRecord]:
    """Merge per-file record lists that are each already time-sorted.

    One stable Timsort over the concatenation: it finds each input list
    as an ascending run and merges the runs in C, several times faster
    than ``heapq.merge``'s per-record Python key calls.  Stability makes
    ties resolve to the earliest input list (the earlier file, then
    file order), the same rule ``heapq.merge`` applied, so downstream
    output is byte-identical.
    """
    lists = [records for records in lists if records]
    if not lists:
        return []
    if len(lists) == 1:
        return lists[0]
    return sorted(chain.from_iterable(lists), key=_TIME_KEY)


#: each store-relative source directory with the sources it holds, by
#: base name: ``p0/`` holds three, so one listing of it serves all three
_SOURCE_DIRS: dict[str, tuple[tuple[LogSource, str], ...]] = {
    "p0": ((LogSource.CONSOLE, "console.log"),
           (LogSource.MESSAGES, "messages.log"),
           (LogSource.CONSUMER, "consumer.log")),
    "controller": ((LogSource.CONTROLLER, "controller.log"),),
    "erd": ((LogSource.ERD, "event.log"),),
    "sched": ((LogSource.SCHEDULER, "sched.log"),),
}

_SOURCE_PATHS: dict[LogSource, str] = {
    source: f"{rel_dir}/{base_name}"
    for rel_dir, sources in _SOURCE_DIRS.items()
    for source, base_name in sources
}


def _list_dir(directory: Path | str) -> list[str]:
    """The names in one store directory (``os.listdir``, no stat).

    A directory that cannot be listed (missing, not a directory,
    unreadable) lists as empty.
    """
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _segment_key(name: str) -> tuple[str, bool]:
    """Rotated segments sort by name without ``.gz``, plain first."""
    plain = name.removesuffix(".gz")
    return plain, plain != name


def _segment_names(names: Iterable[str], base_name: str) -> list[str]:
    """The rotated segments of one source among a directory's names.

    Every ``<stem>-*.log`` and ``<stem>-*.log.gz`` name, whatever its
    type, sorted by :func:`_segment_key`.  Names alone decide, so an
    unchanged directory has unchanged segments.
    """
    prefix = os.path.splitext(base_name)[0] + "-"
    return sorted((name for name in names
                   if name.startswith(prefix)
                   and name.endswith((".log", ".log.gz"))),
                  key=_segment_key)


def _base_names(directory: Path | str, names: Container[str],
                base_name: str) -> list[str]:
    """``<base>`` and ``<base>.gz`` where the directory's ``names`` hold
    them and they are regular files (or links to one)."""
    return [name for name in (base_name, base_name + ".gz")
            if name in names
            and os.path.isfile(os.path.join(directory, name))]


def _source_names(directory: Path | str, names: list[str],
                  base_name: str) -> list[str]:
    """One source's file names among its directory's ``names``, in read
    order: the rotated segments, then the live base files."""
    return (_segment_names(names, base_name)
            + _base_names(directory, names, base_name))


@dataclass(frozen=True)
class StoreManifest:
    """Metadata identifying a written log directory."""

    system: str
    seed: int
    epoch_iso: str
    duration_seconds: float
    #: platform dialect the logs were written in ("" = unknown; readers
    #: of pre-dialect stores fall back to content sniffing)
    platform: str = ""

    def clock(self) -> SimClock:
        """Reconstruct the clock the writer used."""
        return SimClock.from_iso(self.epoch_iso)


def open_log_text(path: Path) -> IO[str]:
    """Open a log file for tolerant text reading.

    ``.gz`` segments are decompressed transparently; decoding never
    raises -- undecodable bytes become replacement characters, which the
    hardened parser counts as recovered lines.  Line endings come back
    untranslated (``newline=""``): a line ends at ``"\\n"`` only, the
    same rule the tailer applies to raw bytes, and
    :meth:`~repro.logs.parsing.LineParser.parse_ex` strips the
    ``"\\r"`` of a CRLF ending.
    """
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", errors="replace",
                         newline="")
    return path.open("r", encoding="utf-8", errors="replace", newline="")


def parse_log_file(
    path: Path,
    parser: LineParser,
    policy: ErrorPolicy = ErrorPolicy.SKIP,
    cache=None,
) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
    """Parse one physical log file under an error policy (traced).

    Returns ``(records, health, quarantined_lines)`` and writes nothing;
    quarantine persistence is the caller's job.  Every read, cached or
    not, is the canonical parse (:func:`_traced_parse`) followed by the
    one policy step, :func:`apply_policy`.

    ``cache`` is an optional :class:`repro.logs.cache.ParseCache`: a
    content-hash hit skips the parse entirely (only ``cache.*`` metrics
    advance, never ``ingest.*`` -- a hit parsed nothing), a miss parses
    once and populates the cache.  Either way the returned triple is
    byte-for-byte what the uncached parse would have produced.
    """
    if cache is not None:
        return cache.parse(path, parser, policy)
    text, retried = _load_log_text(path)
    columns, health, malformed = _traced_parse(text, parser, path, retried)
    return apply_policy(build_records(columns), health, malformed, policy,
                        path)


def apply_policy(
    records: list[ParsedRecord],
    health: SourceHealth,
    malformed: list[str],
    policy: ErrorPolicy,
    path: Path,
) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
    """Decide the fate of one file's malformed lines under ``policy``.

    The single policy step of every batch read (uncached, and cache
    hits, misses and deltas alike): ``health`` and ``malformed`` are the
    canonical parse's (every malformed line counted ``quarantined`` and
    handed back raw).  ``strict`` raises on the first malformed line,
    ``skip`` folds the malformed lines into ``ignored``, ``quarantine``
    hands them back for the quarantine file.  ``health`` is updated in
    place.
    """
    if policy is ErrorPolicy.STRICT and malformed:
        line = malformed[0]
        raise IngestionError(
            f"malformed line in {path}: {line[:120]!r}",
            path=str(path), line=line,
        )
    if policy is ErrorPolicy.QUARANTINE:
        return records, health, malformed
    health.ignored += health.quarantined
    health.quarantined = 0
    return records, health, []


def _traced_parse(
    text: str,
    parser: LineParser,
    path: Path,
    retried: int = 0,
    resume_at: Optional[float] = None,
    cache_tag: Optional[str] = None,
) -> tuple[RecordColumns, SourceHealth, list[str]]:
    """The canonical parse of (the new part of) one file's text, traced.

    When observability is enabled (:mod:`repro.obs`) every call records
    one ``logs.parse_file`` span carrying the file name plus line/byte
    accounting (and a ``cache`` tag, ``"miss"`` or ``"delta"``, for a
    parse cache's parse), and the ``ingest.*`` counters advance by the
    canonical accounting.  ``resume_at`` and the returned columns are
    :func:`_parse_log_text`'s.
    """
    if not OBS.enabled:
        return _parse_log_text(text, parser, retried, resume_at)
    tags = {"file": path.name}
    if cache_tag is not None:
        tags["cache"] = cache_tag
    with OBS.span("logs.parse_file", "ingest", **tags) as span:
        result = _parse_log_text(text, parser, retried, resume_at)
        health = result[1]
        span.add(records=health.parsed, read=health.read,
                 quarantined=health.quarantined, recovered=health.recovered)
        _add_file_bytes(span, path)
        _emit_ingest_metrics(health)
    return result


def _add_file_bytes(span, path: Path) -> None:
    """Tag a ``logs.parse_file`` span with the file's size on disk.

    The stat runs after the read: a file rotated away or removed in
    between leaves the span without ``bytes`` instead of failing a read
    that already succeeded.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return
    span.add(bytes=size)


def _emit_ingest_metrics(health: SourceHealth) -> None:
    """Advance the ``ingest.*`` counters for one actually-parsed file."""
    metrics = OBS.metrics
    metrics.counter("ingest.files_parsed").inc()
    metrics.counter("ingest.lines_read").inc(health.read)
    metrics.counter("ingest.lines_parsed").inc(health.parsed)
    metrics.counter("ingest.lines_quarantined").inc(health.quarantined)
    metrics.counter("ingest.lines_ignored").inc(health.ignored)
    metrics.counter("ingest.lines_recovered").inc(health.recovered)
    if health.retried_files:
        metrics.counter("ingest.io_retries").inc(health.retried_files)
    if health.partial_tail:
        metrics.counter("ingest.partial_tails").inc(health.partial_tail)


def _load_log_text(path: Path) -> tuple[str, int]:
    """Read + decode one log file whole, with bounded I/O retries.

    Returns ``(text, retried)`` where ``retried`` is 1 when transient
    ``OSError`` forced at least one retry (the ``retried_files`` health
    bit).  Reading whole is deliberate: daily-rotated segments keep
    sizes modest and the mojibake scan runs once over the buffer instead
    of once per line.  Raises :class:`IngestionError` when the file
    stays unreadable -- gzip damage surfaces here too (``BadGzipFile``
    is an ``OSError``), so a rotted ``.gz`` segment is retried and then
    reported exactly like a vanished file.
    """
    last_error: Optional[OSError] = None
    for attempt in range(_IO_RETRIES):
        try:
            with open_log_text(path) as handle:
                return handle.read(), 1 if attempt else 0
        except OSError as exc:
            last_error = exc
            _time.sleep(_IO_BACKOFF * (attempt + 1))
    raise IngestionError(
        f"unreadable after {_IO_RETRIES} attempts: {path}: {last_error}",
        path=str(path),
    )


#: lines per block of the columnar parse: a block's split, stamp and
#: classification columns are transient, so peak memory follows the
#: block, not the file
_PARSE_BLOCK = 4096


def _parse_log_text(
    text: str,
    parser: LineParser,
    retried: int = 0,
    resume_at: Optional[float] = None,
) -> tuple[RecordColumns, SourceHealth, list[str]]:
    """Parse one file's already-loaded text (the pure half of the parse).

    Returns ``(columns, health, malformed)``: the records as eight
    columns, one list per :class:`~repro.logs.parsing.ParsedRecord`
    field (:func:`~repro.logs.parsing.build_records` makes the records),
    the line accounting, and the malformed lines raw, in line order,
    all counted ``quarantined``.

    Factored out of the on-disk path so the parse cache can hash and
    parse the *same* bytes -- no read/parse race can store an entry
    under a stale key.

    The parse is columnar, over blocks of :data:`_PARSE_BLOCK` lines:
    each line is split once into stamp, component and tail columns;
    each distinct tail of the file is classified once
    (:meth:`~repro.logs.parsing.LineParser.classify`), so records with
    equal tails share one attrs dict and one body, and equal component,
    daemon and attrs strings are one object; the stamps are converted
    in numpy (:meth:`~repro.logs.parsing.LineParser.stamp_column`), and
    the skew clamp and torn-stamp repair read a running maximum of the
    good stamps carried from block to block.  The result equals
    :meth:`~repro.logs.parsing.LineParser.parse_ex` applied line by
    line, field by field.

    The returned columns are guaranteed time-sorted.  Writers emit in
    order, so this is normally a free check; only a file whose stamps
    carry sub-``max_skew`` backwards jitter (small skew is deliberately
    left for downstream sorting) pays one stable permutation.  The
    guarantee is what lets the stream assemblers merge sorted runs
    instead of re-sorting whole sources.

    ``resume_at`` parses the rest of a file whose earlier lines are
    already parsed: ``text`` starts after a ``"\\n"`` and the skew
    state resumes at the latest stamp of those lines (``None``: they
    held no record), so clamping and stamp repair match one pass over
    the whole file.  The parse cache uses it for appended files.

    Lines end at ``"\\n"`` only, never at the other breaks
    ``str.splitlines`` knows (``"\\r"``, ``"\\x0c"``, ``"\\x85"``,
    ...): the tailer splits raw bytes the same way, so a batch read and
    a watch of one file see the same lines.
    """
    # a file whose last line has no newline is a mid-write snapshot,
    # not corruption: hold the torn tail back (it is neither read nor
    # parsed nor quarantined -- the writer will finish it) and flag it
    # so operators see data is arriving
    partial_tail = 0
    if text and not text.endswith("\n"):
        cut = text.rfind("\n") + 1
        if text[cut:].strip():
            partial_tail = 1
        text = text[:cut]
    lines = text.split("\n")
    lines.pop()  # the empty remainder after the final "\n"
    parse = _ColumnarParse(parser, resume_at, REPLACEMENT_CHAR in text,
                           "\r" in text)
    for start in range(0, len(lines), _PARSE_BLOCK):
        parse.block(lines[start:start + _PARSE_BLOCK])
    columns = parse.columns if parse.in_order else _time_sorted(parse.columns)
    health = SourceHealth(
        read=len(lines), parsed=len(columns[0]),
        quarantined=len(parse.malformed), ignored=parse.ignored,
        recovered=parse.recovered, files=1, retried_files=retried,
        partial_tail=partial_tail,
    )
    return columns, health, parse.malformed


def _time_sorted(columns: RecordColumns) -> RecordColumns:
    """Every column reordered by one stable sort of the times."""
    order = np.argsort(columns[0], kind="stable").tolist()
    return tuple([column[i] for i in order] for column in columns)


class _ColumnarParse:
    """The state :func:`_parse_log_text` carries from block to block."""

    def __init__(self, parser: LineParser, resume_at: Optional[float],
                 scan: bool, crlf: bool) -> None:
        self.parser = parser
        self.scan = scan
        self.crlf = crlf
        #: the running maximum of good stamps (-inf: none yet)
        self.last = -np.inf if resume_at is None else resume_at
        #: the last record time of the blocks so far
        self.tail_time = -np.inf
        self.in_order = True
        self.columns: RecordColumns = ([], [], [], [], [], [], [], [])
        self.malformed: list[str] = []
        self.ignored = 0
        self.recovered = 0
        #: each distinct tail's classification (LineParser.classify)
        self.tails: dict[str, tuple] = {}
        self.share = {}.setdefault

    def block(self, raw: list[str]) -> None:
        """Parse one block of lines, appending to the columns."""
        lines = list(map(str.rstrip, raw, repeat("\r\n"))) if self.crlf \
            else raw
        parts = list(map(str.split, lines, repeat(" "), repeat(2)))
        rows = range(len(raw))
        # rows left out of the columns: blank (ignored) or malformed
        dropped: list[int] = []
        if min(map(len, parts)) < 3:
            dropped = [i for i, p in enumerate(parts) if len(p) < 3]
            rows = [i for i, p in enumerate(parts) if len(p) == 3]
            parts = [parts[i] for i in rows]
        if not parts:
            self._drop(raw, lines, dropped)
            return
        stamps, components, rests = zip(*parts)
        tails = self.tails
        for rest in set(rests).difference(tails):
            tails[rest] = self.parser.classify(rest, self.share)
        classes = list(map(tails.__getitem__, rests))
        seconds, good = self.parser.stamp_column(stamps)
        if _NO_TAIL in classes:
            # a line without ": " is malformed whatever its stamp says:
            # its stamp neither counts nor makes a record
            tailed = np.fromiter((c is not _NO_TAIL for c in classes), bool,
                                 len(classes))
            good &= tailed
        else:
            tailed = True
        # the latest good stamp before each row, seeded by earlier blocks
        before = np.empty(len(seconds))
        before[0] = self.last
        before[1:] = np.where(good[:-1], seconds[:-1], -np.inf)
        np.maximum.accumulate(before, out=before)
        self.last = max(before[-1], seconds[-1]) if good[-1] else before[-1]
        clamped = good & (seconds < before - self.parser.max_skew)
        times = np.where(good & ~clamped, seconds, before)
        repaired = clamped | ~good
        if self.scan:
            repaired |= np.fromiter((REPLACEMENT_CHAR in raw[i] for i in rows),
                                    bool, len(rows))
        # a torn stamp with no good stamp before it is malformed too
        keep = tailed & (good | (before != -np.inf))
        if not keep.all():
            dropped += [rows[j] for j in np.flatnonzero(~keep).tolist()]
            kept = np.flatnonzero(keep).tolist()
            components = [components[j] for j in kept]
            classes = [classes[j] for j in kept]
            times = times[kept]
            repaired = repaired[kept]
        self._drop(raw, lines, dropped)
        if not len(times):
            return
        self.recovered += int(np.count_nonzero(repaired))
        if times[0] < self.tail_time or (times[1:] < times[:-1]).any():
            self.in_order = False
        self.tail_time = times[-1]
        time, source, component, daemon, event, attrs, severity, body = \
            self.columns
        time += times.tolist()
        component += map(self.share, components, components)
        for column, values in zip((source, daemon, event, attrs, severity,
                                   body), zip(*classes)):
            column += values

    def _drop(self, raw: list[str], lines: list[str],
              dropped: list[int]) -> None:
        """Account the block's rows that made no record, in line order."""
        for i in sorted(dropped):
            line = lines[i]
            if not line or line.isspace():
                self.ignored += 1
            else:
                self.malformed.append(raw[i])


class LogStore:
    """A directory of text logs for one simulated system.

    ``cache`` attaches a persistent parse cache to every read path
    (:mod:`repro.logs.cache`): ``None`` disables caching (the default),
    ``True`` uses the store-local default directory
    (``<root>/.parse-cache``), a path uses that directory, and a
    :class:`~repro.logs.cache.ParseCache` instance is used as-is.

    ``platform`` pins the event-vocabulary dialect (a registered catalog
    name or a :class:`~repro.logs.catalogs.PlatformCatalog`).  When left
    ``None`` the dialect is auto-detected on first use: the manifest's
    recorded platform wins, an unlabelled store is content-sniffed, and
    an ambiguous sniff falls back to the default Cray dialect with a
    warning -- reading never fails over dialect resolution.
    """

    def __init__(
        self,
        root: Path | str,
        cache=None,
        platform: "str | PlatformCatalog | None" = None,
    ) -> None:
        self.root = Path(root)
        self.cache = self._resolve_cache(cache)
        self._platform = platform
        self._catalog: Optional[PlatformCatalog] = None

    @property
    def catalog(self) -> PlatformCatalog:
        """The resolved platform catalog (detected lazily on first use)."""
        if self._catalog is None:
            self._catalog = self._resolve_catalog()
        return self._catalog

    def _resolve_catalog(self) -> PlatformCatalog:
        if self._platform is not None:
            return resolve_catalog(self._platform)
        name = ""
        try:
            name = self.manifest().platform
        except (FileNotFoundError, json.JSONDecodeError, TypeError):
            pass
        if name:
            try:
                return get_catalog(name)
            except KeyError:
                warnings.warn(
                    f"manifest records unknown platform {name!r}; "
                    "falling back to content sniffing",
                    stacklevel=3,
                )
        sniffed = self._sniff_platform()
        if sniffed is not None:
            return get_catalog(sniffed)
        warnings.warn(
            f"could not determine the platform dialect of {self.root}; "
            f"assuming {DEFAULT_PLATFORM!r}",
            stacklevel=3,
        )
        return get_catalog(DEFAULT_PLATFORM)

    def _sniff_platform(self) -> Optional[str]:
        """Dialect name sniffed from the first lines of each source."""
        lines: list[str] = []
        for source in _SOURCE_PATHS:
            for path in self.source_files(source):
                try:
                    with open_log_text(path) as handle:
                        for i, line in enumerate(handle):
                            if i >= 8:
                                break
                            lines.append(line)
                except OSError:
                    continue
                break  # first readable file of a source is enough
        return detect_platform(lines)

    def _resolve_cache(self, cache):
        """Coerce the ``cache`` knob into a ParseCache (or None)."""
        if cache is None or cache is False:
            return None
        from repro.logs.cache import ParseCache

        if isinstance(cache, ParseCache):
            return cache
        if cache is True:
            return ParseCache(self.root / DEFAULT_CACHE_DIRNAME)
        return ParseCache(Path(cache))

    def with_cache(self, cache) -> "LogStore":
        """A view of the same store with a (possibly different) cache.

        Returns ``self`` when the knob resolves to the cache already
        attached; otherwise a new :class:`LogStore` sharing the root.
        """
        resolved = self._resolve_cache(cache)
        if resolved is self.cache:
            return self
        # carry the dialect over: an already-resolved catalog is passed
        # as-is so the view never re-sniffs the directory
        return LogStore(
            self.root, cache=resolved, platform=self._catalog or self._platform
        )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(
        self,
        bus: LogBus,
        clock: SimClock,
        system: str,
        seed: int,
        duration_seconds: float,
        rotate_daily: bool = False,
        platform: "str | PlatformCatalog | None" = None,
    ) -> StoreManifest:
        """Render the whole bus into the directory layout.

        Existing log files are replaced, not appended, so a scenario can
        be re-run into the same directory.  With ``rotate_daily`` each
        source is split into per-day files (``console-20150105.log``,
        ...), matching how production syslog directories actually look;
        the readers handle both layouts transparently.

        ``platform`` selects the dialect the bus is rendered in (it is
        recorded in the manifest so readers never have to sniff); when
        ``None`` the store's own platform applies, defaulting to the
        Cray dialect.
        """
        catalog = resolve_catalog(
            platform if platform is not None else self._platform
        )
        self._catalog = catalog
        manifest = StoreManifest(
            system=system,
            seed=seed,
            epoch_iso=clock.epoch.isoformat(),
            duration_seconds=float(duration_seconds),
            platform=catalog.name,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "manifest.json").write_text(
            json.dumps(manifest.__dict__, indent=2) + "\n"
        )
        # clear any previous layout (plain, rotated, or gzipped), plus
        # any quarantine left over from reading a corrupted predecessor
        for source in _SOURCE_PATHS:
            for old in self.source_files(source):
                old.unlink()
            quarantine = self.quarantine_path(source)
            if quarantine.is_file():
                quarantine.unlink()
        handles: dict = {}
        try:
            if not rotate_daily:
                for source, rel in _SOURCE_PATHS.items():
                    path = self.root / rel
                    path.parent.mkdir(parents=True, exist_ok=True)
                    handles[source] = path.open("w")
                for record in bus.sorted_records():
                    handles[record.source].write(
                        render_line(record, clock, catalog) + "\n")
            else:
                for record in bus.sorted_records():
                    day = clock.to_datetime(record.time).strftime("%Y%m%d")
                    key = (record.source, day)
                    handle = handles.get(key)
                    if handle is None:
                        base = self.root / _SOURCE_PATHS[record.source]
                        base.parent.mkdir(parents=True, exist_ok=True)
                        path = base.with_name(f"{base.stem}-{day}.log")
                        handle = path.open("w")
                        handles[key] = handle
                    handle.write(render_line(record, clock, catalog) + "\n")
        finally:
            for handle in handles.values():
                handle.close()
        return manifest

    def source_files(self, source: LogSource) -> list[Path]:
        """All files (plain, rotated, or gzipped) holding one source.

        Public API: the readers, the tailer and the corruption injector
        use it to enumerate the physical files of a source family.
        Rotated segments come first, sorted chronologically by name
        (``console-20150105.log`` ...; a gzipped segment sorts exactly
        where its plain twin would), then the live base file and its
        ``.gz`` twin, which hold the newest lines -- so file order is
        time order within a source.  One ``listdir`` of the source's
        directory, matched by name (:func:`_source_names`).
        """
        base = self.root / _SOURCE_PATHS[source]
        parent = base.parent
        return [parent / name
                for name in _source_names(parent, _list_dir(parent),
                                          base.name)]

    def source_dirs(self) -> dict[Path, tuple[tuple[LogSource, str], ...]]:
        """Each source directory with the sources it holds, by base name:
        the unit :meth:`listed_files` and the tailer's poll list by."""
        return {self.root / rel_dir: sources
                for rel_dir, sources in _SOURCE_DIRS.items()}

    def listed_files(self) -> dict[LogSource, list[str]]:
        """Every source's :meth:`source_files`, as store-relative paths.

        The whole file set a diagnosis reads, in source order, from one
        listing per source directory: the service's report-cache
        fingerprint stats exactly these files.
        """
        files: dict[LogSource, list[str]] = {}
        for rel_dir, sources in _SOURCE_DIRS.items():
            directory = os.path.join(self.root, rel_dir)
            names = _list_dir(directory)
            for source, base_name in sources:
                files[source] = [f"{rel_dir}/{name}" for name in
                                 _source_names(directory, names, base_name)]
        return files

    def quarantine_path(self, source: LogSource) -> Path:
        """Where quarantined raw lines of one source are collected."""
        return self.root / QUARANTINE_DIR / f"{source.value}.quarantine.log"

    def _reset_quarantine(self, source: LogSource) -> None:
        """Start a fresh quarantine pass: drop the previous run's file.

        Called at the start of every quarantine-policy read so the
        on-disk file always mirrors exactly one ingestion pass and never
        accumulates duplicates across repeated diagnoses.
        """
        path = self.quarantine_path(source)
        if path.is_file():
            path.unlink()

    def _write_quarantine(self, source: LogSource, lines: list[str]) -> None:
        """Append quarantined raw lines for later forensics."""
        if not lines:
            return
        path = self.quarantine_path(source)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")

    def append_records(self, records: Iterable[LogRecord], clock: SimClock) -> int:
        """Append records to an existing store; returns lines written."""
        count = 0
        for record in records:
            path = self.root / _SOURCE_PATHS[record.source]
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a") as handle:
                handle.write(render_line(record, clock, self.catalog) + "\n")
            count += 1
        return count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def manifest(self) -> StoreManifest:
        """Load the manifest; raises FileNotFoundError for a bare dir."""
        data = json.loads((self.root / "manifest.json").read_text())
        return StoreManifest(**data)

    def exists(self) -> bool:
        """True when the directory holds a written store."""
        return (self.root / "manifest.json").is_file()

    def path_for(self, source: LogSource) -> Path:
        """The log file path of one source family."""
        return self.root / _SOURCE_PATHS[source]

    def _read_source_lists(
        self,
        source: LogSource,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> Iterator[list[ParsedRecord]]:
        """One time-sorted record list per physical file of a source.

        The per-file granularity is what the stream assemblers merge
        (:func:`_merge_records`); :meth:`read_source` flattens it for
        callers who want a single stream.
        """
        policy = ErrorPolicy.coerce(policy)
        clock = clock or self.manifest().clock()
        parser = LineParser(clock, catalog=self.catalog)
        bucket = health.source(source) if health is not None else None
        if policy is ErrorPolicy.QUARANTINE:
            self._reset_quarantine(source)
        files = self.source_files(source)
        if not files and health is not None:
            health.note(f"source {source.value!r} has no log files")
        for path in files:
            try:
                records, file_health, quarantined = parse_log_file(
                    path, parser, policy, cache=self.cache)
            except IngestionError:
                if policy is ErrorPolicy.STRICT:
                    raise
                if health is not None:
                    bucket.files += 1
                    bucket.retried_files += 1
                    health.note(f"unreadable file skipped: {path.name}")
                if OBS.enabled:
                    OBS.metrics.counter("ingest.files_lost").inc()
                continue
            self._write_quarantine(source, quarantined)
            if bucket is not None:
                bucket.merge(file_health)
            yield records

    def read_source(
        self,
        source: LogSource,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> Iterator[ParsedRecord]:
        """Stream parsed records of one source family, in file order.

        Handles the plain single-file layout, daily-rotated files and
        gzipped segments transparently.  ``policy`` decides the fate of
        unparseable lines (see :class:`~repro.logs.health.ErrorPolicy`);
        ``health`` accumulates the per-source line accounting when the
        caller wants it.  Each file's records come out time-sorted (see
        :func:`parse_log_file`).
        """
        for records in self._read_source_lists(source, clock, policy, health):
            yield from records

    def read_internal(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All node-internal records (console+messages+consumer), time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in (LogSource.CONSOLE, LogSource.MESSAGES, LogSource.CONSUMER):
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def read_external(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All environmental records (controller+ERD), time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in (LogSource.CONTROLLER, LogSource.ERD):
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def read_scheduler(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All scheduler records, in file order (already time-ordered)."""
        return list(self.read_source(LogSource.SCHEDULER, clock, policy, health))

    def read_all(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """Every record from every source, time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in _SOURCE_PATHS:
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def line_counts(self) -> dict[str, int]:
        """Lines per source (Table II style size census, both layouts).

        Lines end at ``"\\n"`` only, the readers' rule (a lone
        ``"\\r"`` is not a break), and a torn final line counts as one.
        """
        counts: dict[str, int] = {}
        for source in _SOURCE_PATHS:
            total = 0
            for path in self.source_files(source):
                last = "\n"
                with open_log_text(path) as handle:
                    while chunk := handle.read(1 << 20):
                        total += chunk.count("\n")
                        last = chunk[-1]
                total += last != "\n"
            counts[source.value] = total
        return counts
