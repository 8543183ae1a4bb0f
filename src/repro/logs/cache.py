"""Persistent, content-addressed parse cache: never parse a file twice.

BENCH_pr3 measured the cold truth: a full diagnosis runs in ~61 ms but
pipeline *construction* pays ~466 ms because every run re-parses every
log file from scratch.  Production failure-analysis over years of
RAS/syslog archives only stays tractable by ingesting incrementally --
this module is that discipline for the batch readers: a cold run
populates the cache, a warm run loads parsed records straight from disk
with **zero re-parse**, and a changed directory parses only the delta
files (see :func:`repro.logs.parallel.parallel_read`).

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

Entries are **policy-independent**: the parse is stored in canonical
form (records + line accounting + the malformed raw lines), and the
requested :class:`~repro.logs.health.ErrorPolicy` is applied at load
time -- ``skip`` folds malformed lines into ``ignored``, ``quarantine``
hands them back for the quarantine file, ``strict`` re-raises the exact
:class:`~repro.logs.health.IngestionError` the direct parse would have
raised.  One cached parse therefore serves every policy byte-for-byte.

Wire format and self-healing
----------------------------
The payload is the columnar pool wire format already defined in
:mod:`repro.logs.parallel` (eight flat columns, pickled with protocol
5 -- entries are local artifacts written and read only by this
package), published through the atomic checksummed blob writer in
:mod:`repro.core.artifacts`.  A rotted entry (truncation, bit flips,
foreign bytes, undecodable payload) fails its checksum at load, is
silently evicted, and the file is re-parsed and re-written -- exactly
the self-healing contract fleet shard artifacts follow.  Writers are
multi-process safe: the temp-file + ``os.replace`` publication means
two processes populating one cache directory race benignly (last
writer wins with identical bytes).

Observability: ``cache.hit`` / ``cache.miss`` / ``cache.invalidate`` /
``cache.store`` counters and a ``cache.load`` span per entry probe that
times the read, checksum and decode (a rotted entry's span carries an
``error`` tag, an absent entry's a ``miss`` tag).  Every reader --
lookup, ``stats``, ``verify`` -- validates an entry through the one
:func:`_decode_entry`, so they never disagree about which entries are
sound.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Optional

from repro.core.artifacts import (
    BlobIntegrityError,
    BlobMissingError,
    blob_footer_len,
    read_checksummed_blob,
    write_checksummed_blob,
)
from repro.logs.health import ErrorPolicy, IngestionError, SourceHealth
from repro.logs.parsing import LineParser, ParsedRecord
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

#: bump when the pickled payload layout changes (part of the
#: environment fingerprint, so a bump orphans -- never corrupts --
#: every existing entry)
CACHE_FORMAT = 1

#: cache entry file suffix (``<content64>-<env16>.rpc``)
ENTRY_SUFFIX = ".rpc"

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


def _content_hash(text: str) -> str:
    """sha256 of one file's decoded text (the content-identity key)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
        self.misses = 0
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
        columns (zero re-parse), a miss parses the *same* text and
        stores the canonical entry before returning.  Output is
        byte-identical to :func:`repro.logs.store.parse_log_file`
        without a cache, for every error policy -- including the
        ``strict`` refusal, which is re-raised from the cached malformed
        lines with the identical message.
        """
        # imported here: store.py deliberately does not import this
        # module at top level (it passes the cache through by duck
        # typing), so the two stay import-cycle free
        from repro.logs.store import (
            _emit_ingest_metrics,
            _load_log_text,
            _parse_log_text,
        )

        text, retried = _load_log_text(path)
        content = _content_hash(text)
        env = self._env_fingerprint(parser)
        entry = self._load_entry(self.entry_path(content, env), path)
        if entry is not None:
            return self._adapt(entry, policy, path)
        self.misses += 1
        if OBS.enabled:
            OBS.metrics.counter("cache.miss").inc()
        # canonical parse: collect malformed lines (quarantine
        # semantics) so one entry serves every policy; the requested
        # policy is applied by _adapt below, including the strict raise
        if OBS.enabled:
            with OBS.span("logs.parse_file", "ingest", file=path.name,
                          cache="miss") as span:
                records, health, malformed = _parse_log_text(
                    text, parser, ErrorPolicy.QUARANTINE, path, retried)
                span.add(records=health.parsed, read=health.read,
                         quarantined=health.quarantined,
                         recovered=health.recovered,
                         bytes=path.stat().st_size)
                _emit_ingest_metrics(health)
        else:
            records, health, malformed = _parse_log_text(
                text, parser, ErrorPolicy.QUARANTINE, path, retried)
        entry = {
            "columns": _pack(records),
            "health": _canonical_health_dict(health),
            "malformed": malformed,
        }
        self._store_entry(self.entry_path(content, env), entry)
        return self._adapt(entry, policy, path, records=records)

    def lookup(
        self,
        path: Path,
        parser: LineParser,
        policy: ErrorPolicy = ErrorPolicy.SKIP,
    ) -> Optional[tuple[list[ParsedRecord], SourceHealth, list[str]]]:
        """Hit-only probe: the adapted triple on a hit, ``None`` on a miss.

        Never parses.  This is what delta-only ingest is built from:
        :func:`repro.logs.parallel.parallel_read` probes every file in
        the parent with this, then ships only the misses -- the *delta*
        -- to the worker pool.  Counts a miss neither here nor in the
        metrics; the caller owns what happens to the file next.

        Raises :class:`IngestionError` exactly when the cached parse
        would: an unreadable file, or a ``strict`` policy against an
        entry holding malformed lines.
        """
        from repro.logs.store import _load_log_text

        text, _retried = _load_log_text(path)
        entry = self._load_entry(
            self.entry_path(_content_hash(text),
                            self._env_fingerprint(parser)), path)
        if entry is None:
            return None
        return self._adapt(entry, policy, path)

    # ------------------------------------------------------------------
    # entry I/O
    # ------------------------------------------------------------------
    def _load_entry(self, entry_path: Path, path: Path) -> Optional[dict]:
        """Load and validate one entry; evict and return None on rot.

        A missing entry is a plain miss: no invalidation, no eviction.
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
            if OBS.enabled:
                OBS.metrics.counter("cache.invalidate").inc()
            try:
                entry_path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        if OBS.enabled:
            OBS.metrics.counter("cache.hit").inc()
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

    # ------------------------------------------------------------------
    # policy adaptation
    # ------------------------------------------------------------------
    @staticmethod
    def _adapt(
        entry: dict,
        policy: ErrorPolicy,
        path: Path,
        records: Optional[list[ParsedRecord]] = None,
    ) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
        """Materialise the canonical entry under the requested policy.

        Mirrors line-for-line what :func:`_parse_log_text` does with
        the policy inline: ``strict`` raises on the first malformed
        line (same message, same metadata), ``skip`` counts malformed
        lines as ignored, ``quarantine`` hands them back raw.
        """
        malformed: list[str] = entry["malformed"]
        if policy is ErrorPolicy.STRICT and malformed:
            line = malformed[0]
            raise IngestionError(
                f"malformed line in {path}: {line[:120]!r}",
                path=str(path), line=line)
        if records is None:
            records = _unpack(entry["columns"])
        health = SourceHealth(**entry["health"])
        if policy is ErrorPolicy.QUARANTINE:
            return records, health, list(malformed)
        health.ignored += health.quarantined
        health.quarantined = 0
        return records, health, []

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
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry_path in self.entry_files():
            try:
                entry_path.unlink()
                removed += 1
            except OSError:
                pass
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
                    try:
                        entry_path.unlink()
                    except OSError:
                        pass
        return valid, invalid


#: what decoding a checksummed but foreign, stale or damaged payload
#: raises: a failed checksum or shape check, a truncated or garbled
#: pickle, a pickle naming a class or module that no longer exists
_ENTRY_ERRORS = (BlobIntegrityError, pickle.UnpicklingError, EOFError,
                 AttributeError, ImportError, IndexError, KeyError,
                 TypeError, ValueError)

_ENTRY_KEYS = frozenset(("columns", "health", "malformed"))

#: one column per :class:`ParsedRecord` field (the pool wire format)
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


def _read_entry(entry_path: Path) -> dict:
    """Read, checksum and decode one entry file (maintenance readers)."""
    return _decode_entry(read_checksummed_blob(entry_path, CACHE_MAGIC))


def _canonical_health_dict(health: SourceHealth) -> dict[str, int]:
    """The policy-independent, run-independent accounting of one entry.

    ``retried_files`` is zeroed: transient I/O retries are a property of
    one read, not of the content -- a cache hit performed no retries,
    and a clean uncached read reports 0 too, so parity holds.
    """
    counts = health.as_dict()
    counts["retried_files"] = 0
    return counts


def _pack(records: list[ParsedRecord]):
    """The columnar pool wire format (shared with the process pool)."""
    from repro.logs.parallel import _pack_records

    return _pack_records(records)


def _unpack(columns) -> list[ParsedRecord]:
    """Rebuild records from stored columns (single C-level ``map``)."""
    from repro.logs.parallel import _unpack_records

    return _unpack_records(columns)
