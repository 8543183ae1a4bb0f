"""LRU report cache keyed on canonical request keys, fingerprint-fresh.

A served diagnosis is a pure function of (logdir *content*, window
geometry, analysis subset, error policy, platform dialect): the report
cache stores the exact response bytes under the canonical JSON of that
tuple, so a warm repeat costs a fingerprint probe instead of a pipeline
run -- and still returns byte-identical output, because the bytes *are*
the first run's.

Freshness comes from the parse cache's fingerprint discipline rather
than TTLs: the key folds in

* a **logdir content fingerprint** -- manifest bytes plus the
  ``(relative path, size, mtime_ns)`` of every file the store's own
  listing (:meth:`~repro.logs.store.LogStore.listed_files`) hands a
  diagnosis, so an appended line, a rotated or gzipped segment or a
  swapped manifest re-keys every request against that directory, and
  nothing the diagnosis does not read (a parse cache, quarantine, a
  stray file) ever does;
* the **environment fingerprint** of :mod:`repro.logs.cache` (catalog
  vocabulary + record layout + cache format), so editing a platform
  catalog invalidates served reports exactly when it invalidates
  parse-cache entries.

A new fingerprint simply addresses new keys; the stale entries for the
same logdir are *explicitly* purged (:meth:`ReportCache.put` evicts
same-logdir entries with a different fingerprint) so a live directory
being appended to cannot pin dead reports in the LRU.  Capacity
eviction is least-recently-used.  ``cache.hit`` / ``cache.miss``
mirrors land in obs as ``serve.cache.hit`` / ``serve.cache.miss``.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.serialize import canonical_json
from repro.logs.cache import CACHE_FORMAT, catalog_fingerprint
from repro.logs.store import LogStore

__all__ = [
    "CachedResponse",
    "ReportCache",
    "logdir_fingerprint",
    "request_key",
]


def logdir_fingerprint(logdir: Path | str,
                       platform: Optional[str] = None) -> str:
    """Content fingerprint of one log directory under one dialect.

    sha256 over the parse cache's environment fingerprint (format +
    catalog vocabulary + parsed-record layout) of the dialect the
    directory would be read under, the manifest bytes, and the
    ``(store-relative path, size, mtime_ns)`` of every file
    :meth:`~repro.logs.store.LogStore.listed_files` lists -- exactly
    the files a diagnosis reads, through symlinked source directories
    too.  Cheap (one listing per source directory and a ``stat`` per
    file, no content reads) yet conservative: any append, rotation,
    truncation, manifest or catalog edit changes it.  Nothing else in
    the directory counts: a parse cache or quarantine anywhere inside
    it, or a stray non-log file, never re-keys a request.
    """
    root = Path(logdir)
    hasher = hashlib.sha256()
    hasher.update(f"{CACHE_FORMAT}\x00".encode())
    try:
        hasher.update(catalog_fingerprint(platform).encode())
    except KeyError:
        # unknown dialect name: the request will fail later with the
        # registry's own error; fingerprint just the name here
        hasher.update(f"unknown:{platform}".encode())
    hasher.update(b"\x00")
    manifest = root / "manifest.json"
    if manifest.is_file():
        hasher.update(manifest.read_bytes())
    hasher.update(b"\x00")
    for files in LogStore(root).listed_files().values():
        for rel in files:
            try:
                stat = os.stat(os.path.join(root, rel))
            except OSError:
                continue  # a dangling link, or gone since the listing
            hasher.update(
                f"{rel}\x00{stat.st_size}\x00{stat.st_mtime_ns}\x01".encode())
    return hasher.hexdigest()


def request_key(
    logdir: Path | str,
    fingerprint: str,
    *,
    endpoint: str,
    window_days: Optional[int] = None,
    stride_days: Optional[int] = None,
    only=None,
    error_policy: str = "skip",
    platform: Optional[str] = None,
) -> str:
    """The canonical coalescing/cache key of one service request.

    Canonical JSON of the full parameter tuple (sorted keys, exact
    float/None spelling), hashed for compactness.  Two requests share a
    key iff a correct server could serve them the same bytes.
    """
    payload = canonical_json({
        "endpoint": endpoint,
        "logdir": str(Path(logdir)),
        "fingerprint": fingerprint,
        "window_days": window_days,
        "stride_days": stride_days,
        "only": sorted(only) if only else None,
        "error_policy": error_policy,
        "platform": platform,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CachedResponse:
    """One cached response: the exact bytes plus its freshness anchor."""

    body: bytes
    #: the logdir the entry answers for (purge anchor)
    logdir: str
    #: the content fingerprint the body was computed against
    fingerprint: str


class ReportCache:
    """Bounded LRU of canonical request key -> response bytes."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedResponse] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: entries purged because their logdir's fingerprint moved on
        self.invalidated = 0
        #: entries dropped by LRU capacity pressure
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: str) -> Optional[CachedResponse]:
        """The cached response, freshened to most-recently-used."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CachedResponse) -> None:
        """Store a response; purge stale same-logdir entries first.

        The explicit-invalidation half of the freshness contract: a
        fresh fingerprint for a logdir evicts every entry computed
        against an older fingerprint of that same directory, so a
        mutating directory cannot pin dead bytes until capacity
        pressure happens to find them.
        """
        stale = [k for k, v in self._entries.items()
                 if v.logdir == entry.logdir
                 and v.fingerprint != entry.fingerprint]
        for k in stale:
            del self._entries[k]
            self.invalidated += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evicted += 1

    def clear(self) -> int:
        """Drop everything; returns the count."""
        count = len(self._entries)
        self._entries.clear()
        return count

    def stats(self) -> dict:
        """JSON-ready view for ``/v1/health``."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "invalidated": self.invalidated,
            "evicted": self.evicted,
        }
