"""Persistent, content-addressed parse cache: never parse a file twice.

BENCH_pr3 measured the cold truth: a full diagnosis runs in ~61 ms but
pipeline *construction* pays ~466 ms because every run re-parses every
log file from scratch.  Production failure-analysis over years of
RAS/syslog archives only stays tractable by ingesting incrementally --
this module is that discipline for the batch readers: a cold run
populates the cache, a warm run loads parsed records straight from disk
with **zero re-parse**, a changed directory parses only the changed
files, and a file that grew by appends parses only its new lines
(every batch read goes through :meth:`ParseCache.parse`, one file at a
time, from :class:`~repro.logs.store.LogStore`).

Key scheme
----------
An entry is addressed by ``(file content hash, environment fingerprint)``:

* the **content hash** is the sha256 of the file's *decoded text* --
  hashing after gzip decompression and tolerant decoding means a
  renamed file, and a plain file versus its gzipped twin, share one
  entry (content identity, not file identity);
* the **environment fingerprint** folds in everything else the parse is
  a function of: the catalog dispatch tables (every
  :class:`~repro.logs.catalog.EventSpec` pattern/template/severity),
  the :class:`~repro.logs.parsing.ParsedRecord` field layout, the wire
  format version, the store's clock epoch, and the parser's skew bound.
  Changing any of them changes the fingerprint, so stale entries are
  simply never *addressed* again -- invalidation is automatic and
  needs no scanning (``repro cache clear`` garbage-collects orphans).

Path records and appended files
-------------------------------
Content addressing alone would re-parse a live, growing file from its
first line after every append and keep one whole-file entry per
version.  So each ``(resolved path, environment fingerprint)`` also
has a small **path record** under ``<cache>/paths/``: the content key
of the entry last stored or served for that path, the consumed length
``L`` (the text up to its last ``"\n"``; a torn tail is not consumed)
and the sha256 of that consumed prefix.  On an exact miss the file is
**delta-parsed** when the text is longer than ``L``, ``text[:L]``
hashes to the recorded prefix digest, and the recorded entry loads and
passes its checksum.  Then only ``text[L:]`` is parsed, with the
parser's skew state resumed at the prefix's latest stamp (the entry's
last time); the new records are appended to the stored ones (one
stable sort only when a new record is earlier than that stamp, which
yields exactly a full parse's order), the line accounting is summed,
and the new malformed lines follow the stored ones.  The full new
entry is stored, the record repointed, and the old entry unlinked, so
a growing file keeps one entry.  Anything short of that -- no record,
a rotted record or base entry, a rewritten or truncated file -- is a
full parse that rewrites the record.  One hash pass serves all checks:
the hasher is copied at ``L`` and at the consumed length on its way to
the content key.

Known trade-off: two paths holding identical content share one entry;
when one of them grows, its delta unlinks the shared entry and the
other path re-parses once on its next read.  That costs time, never
bytes.  Records of paths that no longer exist stay until ``repro cache
clear``; each is under 300 bytes.

Entries are **policy-independent**: the parse is stored in the
canonical form every batch parse returns (records + line accounting +
the malformed raw lines, all counted ``quarantined``), and the requested
:class:`~repro.logs.health.ErrorPolicy` is applied after the load by
:func:`repro.logs.store.apply_policy`, the one policy step an uncached
read takes too -- ``skip`` folds malformed lines into ``ignored``,
``quarantine`` hands them back for the quarantine file, ``strict``
raises on the first of them.  One cached parse therefore serves every
policy byte-for-byte.

Wire format and self-healing
----------------------------
The payload holds the records as eight flat lists, one per
:class:`~repro.logs.parsing.ParsedRecord` field, pickled with protocol
5 -- entries are local artifacts written and read only by this package.
They are the columns the parse returns
(:func:`repro.logs.store._parse_log_text`), stored as they come: a miss
stores its parse's columns, a delta the stored columns with the new
ones appended (reordered by one stable permutation when a new record is
earlier than the stored last one), and a hit builds its records from
them with one ``map``, the call the uncached read makes.  The parse
classifies each distinct line tail of a file once, so equal component,
daemon and attrs key/value strings are one object, and records with
equal line tails hold one attrs dict and one body.  The pickle memo
then writes each of them once and a hit decodes and frees it once (the
hit's records share them too); a delta shares within its own new
records, so a string appears once per full parse plus at most once per
delta since.  Sharing changes neither the column types nor
``CACHE_FORMAT``: entries written without it load the same way, just
larger, until they are rewritten or ``repro cache clear`` runs.  The
payload is published through the atomic checksummed blob writer in
:mod:`repro.core.artifacts`.  A rotted entry (truncation, bit flips,
foreign bytes, undecodable payload) fails its checksum at load, is
silently evicted, and the file is re-parsed and re-written -- exactly
the self-healing contract fleet shard artifacts follow.  Writers are
multi-process safe: the temp-file + ``os.replace`` publication means
two processes populating one cache directory race benignly (last
writer wins with identical bytes).

Observability: ``cache.hit`` / ``cache.miss`` / ``cache.delta`` /
``cache.invalidate`` / ``cache.store`` counters (a delta parse counts
as a miss and a delta) and a ``cache.load`` span per entry probe that
times the read, checksum and decode (a rotted entry's span carries an
``error`` tag, an absent entry's a ``miss`` tag); a delta probes two
entries, the exact key and the recorded base.  Every reader --
lookup, ``stats``, ``verify`` -- validates an entry through the one
:func:`_decode_entry`, so they never disagree about which entries are
sound.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import NamedTuple, Optional

from repro.core.artifacts import (
    BlobIntegrityError,
    BlobMissingError,
    atomic_write_text,
    blob_footer_len,
    read_checksummed_blob,
    write_checksummed_blob,
)
from repro.logs.health import ErrorPolicy, SourceHealth
from repro.logs.parsing import LineParser, ParsedRecord, build_records
from repro.obs import OBS

__all__ = [
    "ParseCache",
    "CacheStats",
    "catalog_fingerprint",
    "CACHE_MAGIC",
    "CACHE_FORMAT",
    "ENTRY_SUFFIX",
]

#: checksummed-blob magic of one cache entry file
CACHE_MAGIC = b"RPRCACHE1\n"

#: bump when the pickled payload layout or the line rule changes (part
#: of the environment fingerprint, so a bump orphans -- never corrupts
#: -- every existing entry).  2: lines end at "\n" only.
CACHE_FORMAT = 2

#: cache entry file suffix (``<content64>-<env16>.rpc``)
ENTRY_SUFFIX = ".rpc"

#: subdirectory of the path records (``paths/<path-and-env64>.json``)
PATHS_DIRNAME = "paths"

_catalog_fp: dict[str, str] = {}


def catalog_fingerprint(catalog=None) -> str:
    """Digest of one catalog's vocabulary and the record layout (memoised).

    Per platform catalog: the catalog's own content fingerprint (every
    :class:`~repro.logs.catalog.EventSpec`'s key, source, daemon,
    severity, template and pattern -- the complete input of the compiled
    dispatch tables) plus the :class:`~repro.logs.parsing.ParsedRecord`
    slot layout.  Editing a vocabulary or the record shape therefore
    re-keys that catalog's cache entries automatically, and two dialects
    sharing one cache directory can never collide: identical bytes
    parsed under ``cray-xc`` and ``bgq-ras`` key distinct entries.

    ``catalog`` is a :class:`~repro.logs.catalogs.PlatformCatalog`, a
    registered name, or ``None`` for the default dialect.
    """
    from repro.logs.catalogs import resolve_catalog

    catalog = resolve_catalog(catalog)
    fp = _catalog_fp.get(catalog.name)
    if fp is None:
        hasher = hashlib.sha256()
        hasher.update(catalog.fingerprint.encode())
        hasher.update(b"\x00")
        hasher.update("\x02".join(
            f.name for f in ParsedRecord.__dataclass_fields__.values()
        ).encode())
        fp = hasher.hexdigest()
        _catalog_fp[catalog.name] = fp
    return fp


def _content_hash(text: str,
                  cuts: tuple[int, ...] = ()) -> tuple[str, list[str]]:
    """sha256 of one file's decoded text, plus digests of its prefixes.

    Returns ``(content key, [digest of text[:cut] per cut])`` from one
    pass: the hasher is copied at each (ascending) cut on its way to the
    end of the text, so no byte is hashed twice.
    """
    hasher = hashlib.sha256()
    prefixes = []
    start = 0
    for cut in cuts:
        hasher.update(text[start:cut].encode("utf-8"))
        prefixes.append(hasher.copy().hexdigest())
        start = cut
    hasher.update(text[start:].encode("utf-8"))
    return hasher.hexdigest(), prefixes


class PathRecord(NamedTuple):
    """What the cache last stored or served for one path (see module doc)."""

    #: content key of the entry
    key: str
    #: consumed length: the text up to its last "\n"
    length: int
    #: sha256 of the consumed prefix
    prefix: str


class CacheStats:
    """What one cache directory holds (``repro cache stats``)."""

    __slots__ = ("entries", "total_bytes", "records", "invalid")

    def __init__(self, entries: int = 0, total_bytes: int = 0,
                 records: int = 0, invalid: int = 0) -> None:
        self.entries = entries
        self.total_bytes = total_bytes
        self.records = records
        self.invalid = invalid

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class ParseCache:
    """One persistent parse-cache directory.

    Cheap to construct (no I/O until the first lookup); share one
    instance across reads of a store so the in-process counters make
    sense, but correctness never depends on sharing -- the directory is
    the source of truth and concurrent processes compose safely.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        #: in-process tallies (mirrored to obs metrics when enabled)
        self.hits = 0
        #: files parsed, whole or (a delta) their appended lines only
        self.misses = 0
        #: the misses that parsed only appended lines
        self.deltas = 0
        self.invalidated = 0

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    def _env_fingerprint(self, parser: LineParser) -> str:
        """Everything besides content the parse is a function of.

        Includes the parser's platform catalog, so one shared cache
        directory keeps per-dialect entries strictly apart.
        """
        raw = (f"{CACHE_FORMAT}\x00{catalog_fingerprint(parser.catalog)}\x00"
               f"{parser.clock.epoch.isoformat()}\x00{parser.max_skew}")
        return hashlib.sha256(raw.encode()).hexdigest()

    def entry_path(self, content_hash: str, env: str) -> Path:
        """Where one entry lives (sharded by hash prefix)."""
        return (self.root / content_hash[:2]
                / f"{content_hash}-{env[:16]}{ENTRY_SUFFIX}")

    def _record_path(self, path: Path, env: str) -> Path:
        """Where the path record of one file under one environment lives."""
        raw = f"{os.path.realpath(path)}\x00{env}".encode()
        return (self.root / PATHS_DIRNAME
                / f"{hashlib.sha256(raw).hexdigest()}.json")

    # ------------------------------------------------------------------
    # the cached parse
    # ------------------------------------------------------------------
    def parse(
        self,
        path: Path,
        parser: LineParser,
        policy: ErrorPolicy = ErrorPolicy.SKIP,
    ) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
        """Drop-in replacement for the uncached per-file parse.

        Reads and hashes the file once; a valid entry yields the stored
        columns (zero re-parse).  A miss on a file that only grew since
        its path record was written parses just the appended lines (see
        the module doc); any other miss parses the *same* text whole.
        Either way the canonical entry is stored before returning, and
        :meth:`_adapt` applies the policy.  Output is byte-identical to
        :func:`repro.logs.store.parse_log_file` without a cache, for
        every error policy -- including the ``strict`` refusal, raised
        from the cached malformed lines by the same policy step.
        """
        # imported here: store.py deliberately does not import this
        # module at top level (it passes the cache through by duck
        # typing), so the two stay import-cycle free
        from repro.logs.store import (_load_log_text, _time_sorted,
                                      _traced_parse)

        text, retried = _load_log_text(path)
        env = self._env_fingerprint(parser)
        record_path = self._record_path(path, env)
        record = _read_path_record(record_path)
        consumed = text.rfind("\n") + 1
        # a delta needs new text after a prefix the record vouches for
        # (a recorded prefix ends at "\n", so it is never past ``consumed``)
        resumable = (record is not None and record.length <= consumed
                     and record.length < len(text))
        cuts = (record.length, consumed) if resumable else (consumed,)
        content, prefixes = _content_hash(text, cuts)
        current = PathRecord(content, consumed, prefixes[-1])
        entry = self._load_entry(self.entry_path(content, env), path)
        if entry is not None:
            self.hits += 1
            _tally("cache.hit")
            if record != current:
                self._write_record(record_path, current)
            return self._adapt(entry, policy, path)
        self.misses += 1
        _tally("cache.miss")
        base = None
        if resumable and prefixes[0] == record.prefix:
            base = self._load_entry(self.entry_path(record.key, env), path)
        if base is None:
            columns, health, malformed = _traced_parse(
                text, parser, path, retried, cache_tag="miss")
        else:
            self.deltas += 1
            _tally("cache.delta")
            stored = base["columns"]
            resume_at = stored[0][-1] if stored[0] else None
            new, delta_health, new_malformed = _traced_parse(
                text[record.length:], parser, path, retried, resume_at,
                cache_tag="delta")
            columns = tuple(old + added for old, added in zip(stored, new))
            if new[0] and resume_at is not None and new[0][0] < resume_at:
                # backward jitter across the boundary: the one stable
                # sort a full parse would have run over the same lines
                columns = _time_sorted(columns)
            health = _joined_health(base["health"], delta_health)
            malformed = base["malformed"] + new_malformed
        entry = {
            "columns": columns,
            "health": _canonical_health_dict(health),
            "malformed": malformed,
        }
        self._store_entry(self.entry_path(content, env), entry)
        if record != current:
            self._write_record(record_path, current)
        if base is not None:
            # the grown file's previous version is superseded
            _unlink(self.entry_path(record.key, env))
        return self._adapt(entry, policy, path)

    def lookup(
        self,
        path: Path,
        parser: LineParser,
        policy: ErrorPolicy = ErrorPolicy.SKIP,
    ) -> Optional[tuple[list[ParsedRecord], SourceHealth, list[str]]]:
        """Hit-only probe: the adapted triple on a hit, ``None`` on a miss.

        Never parses and never writes (not even a path record): it
        answers "is this file's parse already stored?" for tools and
        tests.  The batch readers call :meth:`parse`, which serves the
        same hit and parses a miss.  Counts a miss neither here nor in
        the metrics; the caller owns what happens to the file next.

        Raises :class:`~repro.logs.health.IngestionError` exactly when
        the cached parse would: an unreadable file, or a ``strict``
        policy against an entry holding malformed lines.
        """
        from repro.logs.store import _load_log_text

        text, _retried = _load_log_text(path)
        content, _ = _content_hash(text)
        entry = self._load_entry(
            self.entry_path(content, self._env_fingerprint(parser)), path)
        if entry is None:
            return None
        self.hits += 1
        _tally("cache.hit")
        return self._adapt(entry, policy, path)

    # ------------------------------------------------------------------
    # entry I/O
    # ------------------------------------------------------------------
    def _load_entry(self, entry_path: Path, path: Path) -> Optional[dict]:
        """Load and validate one entry; evict and return None on rot.

        A missing entry is a plain miss: no invalidation, no eviction.
        Hits are tallied by the caller: a delta's base load is part of
        a miss.
        """
        # the span times the read, checksum and decode of the entry; a
        # rotted entry closes it with an ``error`` tag, a missing one
        # with ``miss``
        with OBS.span("cache.load", "cache", file=path.name) as span:
            try:
                payload = read_checksummed_blob(entry_path, CACHE_MAGIC)
                entry = _decode_entry(payload)
            except BlobMissingError:
                span.tag(miss=True)
                return None
            except _ENTRY_ERRORS as exc:
                span.tag(error=type(exc).__name__)
                entry = None
            else:
                span.add(records=len(entry["columns"][0]),
                         bytes=len(payload) + _FOOTER_LEN)
        if entry is None:
            # self-heal: a rotted entry is "no entry", never a crash --
            # evict it so the re-parse below rewrites a healthy one
            self.invalidated += 1
            _tally("cache.invalidate")
            _unlink(entry_path)
        return entry

    def _store_entry(self, entry_path: Path, entry: dict) -> None:
        """Atomically publish one entry (concurrent writers race benignly).

        A failed write (read-only log directory, disk full) degrades to
        an uncached parse instead of failing the read: the cache is an
        accelerator, never a correctness dependency.
        """
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            write_checksummed_blob(entry_path, payload, CACHE_MAGIC)
        except OSError:
            if OBS.enabled:
                OBS.metrics.counter("cache.store_failed").inc()
            return
        if OBS.enabled:
            OBS.metrics.counter("cache.store").inc()
            OBS.metrics.counter("cache.stored_bytes").inc(len(payload))

    @staticmethod
    def _write_record(record_path: Path, record: PathRecord) -> None:
        """Atomically publish one path record (a failed write is no record)."""
        try:
            atomic_write_text(record_path, json.dumps(record._asdict()))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # policy adaptation
    # ------------------------------------------------------------------
    @staticmethod
    def _adapt(
        entry: dict,
        policy: ErrorPolicy,
        path: Path,
    ) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
        """Build the canonical entry's records and apply the policy.

        The records come from the entry's columns through
        :func:`~repro.logs.parsing.build_records`, the call an uncached
        read makes; the policy step is
        :func:`repro.logs.store.apply_policy`, the one every batch read
        takes.
        """
        from repro.logs.store import apply_policy

        return apply_policy(build_records(entry["columns"]),
                            SourceHealth(**entry["health"]),
                            entry["malformed"], policy, path)

    # ------------------------------------------------------------------
    # maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------
    def entry_files(self) -> list[Path]:
        """Every entry file under the cache root, sorted for determinism."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{ENTRY_SUFFIX}"))

    def stats(self, count_records: bool = False) -> CacheStats:
        """Entry count and byte total (optionally decode record counts)."""
        stats = CacheStats()
        for entry_path in self.entry_files():
            try:
                size = entry_path.stat().st_size
            except OSError:
                continue
            stats.entries += 1
            stats.total_bytes += size
            if count_records:
                try:
                    stats.records += len(_read_entry(entry_path)["columns"][0])
                except _ENTRY_ERRORS:
                    stats.invalid += 1
        return stats

    def clear(self) -> int:
        """Delete every entry and path record; returns the entries removed."""
        removed = 0
        for entry_path in self.entry_files():
            try:
                entry_path.unlink()
                removed += 1
            except OSError:
                pass
        for record_path in (self.root / PATHS_DIRNAME).glob("*.json"):
            _unlink(record_path)
        return removed

    def verify(self, heal: bool = True) -> tuple[int, list[Path]]:
        """Validate every entry's checksum and payload shape.

        Returns ``(valid_count, invalid_paths)``.  With ``heal`` (the
        default) invalid entries are deleted on the spot -- verification
        *is* the self-healing pass, matching what a read would do lazily.
        """
        valid = 0
        invalid: list[Path] = []
        for entry_path in self.entry_files():
            try:
                _read_entry(entry_path)
                valid += 1
            except _ENTRY_ERRORS:
                invalid.append(entry_path)
                if heal:
                    _unlink(entry_path)
        return valid, invalid


#: what decoding a checksummed but foreign, stale or damaged payload
#: raises: a failed checksum or shape check, a truncated or garbled
#: pickle, a pickle naming a class or module that no longer exists
_ENTRY_ERRORS = (BlobIntegrityError, pickle.UnpicklingError, EOFError,
                 AttributeError, ImportError, IndexError, KeyError,
                 TypeError, ValueError)

_ENTRY_KEYS = frozenset(("columns", "health", "malformed"))

#: one column per :class:`ParsedRecord` field
_COLUMN_COUNT = len(ParsedRecord.__dataclass_fields__)

_FOOTER_LEN = blob_footer_len(CACHE_MAGIC)


def _decode_entry(payload: bytes) -> dict:
    """Unpickle one entry payload and check its shape.

    The single validation every reader shares (lookup, ``stats``,
    ``verify``): a dict with ``columns``, ``health`` and ``malformed``,
    whose ``columns`` are eight equal-length sequences.  Anything else
    raises one of :data:`_ENTRY_ERRORS`.
    """
    entry = pickle.loads(payload)
    if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
        raise BlobIntegrityError("cache entry has an alien payload shape")
    columns = entry["columns"]
    if (not isinstance(columns, (tuple, list))
            or len(columns) != _COLUMN_COUNT
            or len(set(map(len, columns))) != 1
            or not isinstance(entry["health"], dict)
            or not isinstance(entry["malformed"], list)):
        raise BlobIntegrityError("cache entry columns are malformed")
    return entry


def _tally(name: str) -> None:
    """Advance one ``cache.*`` obs counter (no-op when obs is off)."""
    if OBS.enabled:
        OBS.metrics.counter(name).inc()


def _unlink(path: Path) -> None:
    """Remove one cache file if it is still there."""
    try:
        path.unlink()
    except OSError:
        pass


_HEX64 = re.compile(r"[0-9a-f]{64}\Z")


def _read_path_record(record_path: Path) -> Optional[PathRecord]:
    """Load one path record; unreadable or malformed is no record."""
    try:
        data = json.loads(record_path.read_bytes())
        record = PathRecord(data["key"], data["length"], data["prefix"])
        valid = (type(record.length) is int and record.length >= 0
                 and _HEX64.match(record.key) is not None
                 and _HEX64.match(record.prefix) is not None)
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return record if valid else None


def _read_entry(entry_path: Path) -> dict:
    """Read, checksum and decode one entry file (maintenance readers)."""
    return _decode_entry(read_checksummed_blob(entry_path, CACHE_MAGIC))


def _joined_health(stored: dict[str, int],
                   delta: SourceHealth) -> SourceHealth:
    """One file's accounting: its stored prefix plus this read's delta.

    Line counts add up; the file is still one file, and
    ``retried_files`` and ``partial_tail`` describe this read.
    """
    health = SourceHealth(**stored)
    health.merge(delta)
    health.files = delta.files
    health.retried_files = delta.retried_files
    health.partial_tail = delta.partial_tail
    return health


def _canonical_health_dict(health: SourceHealth) -> dict[str, int]:
    """The policy-independent, run-independent accounting of one entry.

    ``retried_files`` is zeroed: transient I/O retries are a property of
    one read, not of the content -- a cache hit performed no retries,
    and a clean uncached read reports 0 too, so parity holds.
    """
    counts = health.as_dict()
    counts["retried_files"] = 0
    return counts
