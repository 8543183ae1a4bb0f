"""Every reader of a corrupted store reports the same ingestion.

Uncached, cold-cache, warm-cache and delta batch reads and a tailer run
to completion all take one policy step after a canonical parse, and all
count a source's files as the files its listing holds.  Over a store
damaged by a :mod:`repro.logs.corruption` plan they must agree on the
records, on every field of every source's health, on the notes and on
the quarantine files -- or, under ``strict``, refuse with the same
message.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.serialize import canonical_json
from repro.logs.corruption import (
    ALL_MODES,
    CorruptionInjector,
    CorruptionSpec,
)
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth
from repro.logs.record import LogSource
from repro.logs.store import QUARANTINE_DIR, LogStore
from repro.simul.clock import DAY, SimClock
from repro.stream.tailer import LogTailer

from .conftest import small_bus

DAYS = 6


@pytest.fixture
def corrupted(tmp_path) -> LogStore:
    """Daily-rotated :func:`small_bus` logs under every content fault."""
    store = LogStore(tmp_path / "logs")
    store.write(small_bus(DAYS), SimClock(), system="TT", seed=1,
                duration_seconds=DAYS * DAY, rotate_daily=True)
    report = CorruptionInjector(store, seed=5).apply(
        CorruptionSpec(modes=ALL_MODES, rate=0.2))
    assert report.gzipped_files and report.dropped_sources
    return store


def batch_read(store, policy):
    health = IngestionHealth()
    clock = store.manifest().clock()
    streams = (store.read_internal(clock, policy, health),
               store.read_external(clock, policy, health),
               store.read_scheduler(clock, policy, health))
    return streams, health


def tail_read(store, policy):
    tailer = LogTailer(store, policy=policy)
    streams = ([], [], [])
    while True:
        increment = tailer.poll()
        if not increment.bytes_read:
            break
        for stream, records in zip(streams, (increment.internal,
                                             increment.external,
                                             increment.scheduler)):
            stream.extend(records)
    tailer.finalize_health()
    return streams, tailer.health


def state(store, read, policy):
    """What one reader reports: its outcome and the quarantine files.

    The outcome is ``(records, per-source health, notes)``, or the
    refusal message under ``strict``.
    """
    shutil.rmtree(store.root / QUARANTINE_DIR, ignore_errors=True)
    try:
        streams, health = read(store, policy)
    except IngestionError as exc:
        outcome = str(exc)
    else:
        outcome = ([canonical_json(list(stream)) for stream in streams],
                   {source: health.source(source).as_dict()
                    for source in LogSource},
                   health.notes)
    quarantine = {source: path.read_bytes() for source in LogSource
                  if (path := store.quarantine_path(source)).is_file()}
    return outcome, quarantine


def cut_and_regrow(store, cache_root):
    """Read the store through a cache with one file cut back, regrow it.

    The cut file is the largest plain one, cut at a line start past its
    middle; after the regrowth the next read through the cache parses
    only its appended lines (a delta).
    """
    path = max((path for source in LogSource
                for path in store.source_files(source)
                if path.suffix != ".gz"),
               key=lambda path: path.stat().st_size)
    data = path.read_bytes()
    cut = data.index(b"\n", len(data) // 2) + 1
    path.write_bytes(data[:cut])
    cached = store.with_cache(cache_root)
    batch_read(cached, ErrorPolicy.QUARANTINE)
    with path.open("ab") as handle:
        handle.write(data[cut:])
    return cached


@pytest.mark.parametrize("policy", list(ErrorPolicy),
                         ids=[policy.value for policy in ErrorPolicy])
def test_every_reader_reports_the_same_ingestion(corrupted, tmp_path,
                                                 policy):
    delta = cut_and_regrow(corrupted, tmp_path / "delta-cache")
    want = state(corrupted, batch_read, policy)
    if policy is ErrorPolicy.STRICT:
        assert isinstance(want[0], str)
        assert want[0].startswith("malformed line in ")
    else:
        health = want[0][1]
        assert sum(bucket["quarantined" if policy is ErrorPolicy.QUARANTINE
                          else "ignored"] for bucket in health.values())
        assert {bucket["files"] for bucket in health.values()} >= {0, DAYS}
        assert bool(want[1]) == (policy is ErrorPolicy.QUARANTINE)

    cached = corrupted.with_cache(tmp_path / "cache")
    assert state(cached, batch_read, policy) == want                # cold
    misses = cached.cache.misses
    assert state(cached, batch_read, policy) == want                # warm
    assert cached.cache.hits and cached.cache.misses == misses
    assert state(delta, batch_read, policy) == want                 # delta
    if policy is not ErrorPolicy.STRICT:
        assert delta.cache.deltas == 1
    assert state(corrupted, tail_read, policy) == want              # tailer
