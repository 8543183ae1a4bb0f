"""Bench: persistent parse cache -- cold populate, warm hits, delta ingest.

Four legs, each timing ``LogStore.read_all`` (the batch read every
product path uses) except warm construction, and one gate;
``BENCH_pr8.json`` holds the figures of the revision that added the
cache, as frozen history (``perfbench`` is the benchmark of record):

* **cold populate** -- first read through an empty cache: full parse
  plus the price of packing + checksumming every entry to disk.  This
  is the worst case; it bounds the write-side overhead vs an uncached
  read.
* **warm hit** -- the same store re-read with every entry present:
  hash + unpickle only, zero files re-parsed (asserted, not assumed).
* **warm beats uncached** -- the gate: the warm read against the same
  read without a cache, timed by :func:`benchmarks.timing.compare`;
  a cache that does not beat parsing is pure cost.
* **delta ingest** -- one fresh daily segment appears in an otherwise
  warm store: only the new file is parsed, everything else is a hit.
* **warm construction** -- ``HolisticDiagnosis.from_store`` end to end
  on a warm cache, i.e. what a second ``repro diagnose`` invocation
  actually pays for ingest + analysis.

The cache directory is rebuilt per round for the cold leg (pedantic
setup) so rounds never poison each other; the delta leg writes a
unique segment per round so the miss is real every time.
"""

import itertools
import shutil

import pytest

from benchmarks.timing import compare
from repro.core.pipeline import HolisticDiagnosis
from repro.logs.cache import ParseCache
from repro.logs.store import LogStore


@pytest.fixture(scope="module")
def warm_store(store_s3, tmp_path_factory):
    """store_s3 wrapped in a fully populated cache (hits only)."""
    store = store_s3.with_cache(
        tmp_path_factory.mktemp("warm") / "parse-cache")
    store.read_all()
    return store


def test_cache_cold_populate(benchmark, store_s3, tmp_path_factory):
    def fresh():
        root = tmp_path_factory.mktemp("cold") / "parse-cache"
        return (store_s3.with_cache(root),), {}

    records = benchmark.pedantic(
        LogStore.read_all, setup=fresh, rounds=5, warmup_rounds=1)
    assert records


def test_cache_warm_hit(benchmark, warm_store):
    populate_misses = warm_store.cache.misses
    records = benchmark(warm_store.read_all)
    assert records
    # the property the leg exists to price: hits only, nothing re-parsed
    assert warm_store.cache.hits
    assert warm_store.cache.misses == populate_misses


def test_warm_beats_uncached(store_s3, warm_store):
    assert store_s3.cache is None
    misses = warm_store.cache.misses
    timing = compare(warm_store.read_all, store_s3.read_all, rounds=5)
    assert warm_store.cache.misses == misses  # hits only, as timed
    print(f"\nuncached / warm-cache read_all: {timing.ratio:.2f}x "
          f"(per-round quartiles {timing.spread()})")
    assert timing.ratio > 1.0  # the cache must never lose to parsing


def test_cache_delta_ingest(benchmark, store_s3, tmp_path_factory):
    root = tmp_path_factory.mktemp("delta") / "store"
    shutil.copytree(store_s3.root, root)
    store = LogStore(root, cache=tmp_path_factory.mktemp("dc") / "pc")
    store.read_all()                          # warm everything up front
    fresh_day = itertools.count(1)
    head = (root / "p0" / "console.log").read_text().splitlines(True)[:4]

    def one_new_segment():
        day = next(fresh_day)
        seg = root / "p0" / f"console-2999{day:04d}.log"
        # unique trailing comment line -> unique content hash -> a
        # guaranteed single-file miss against the warm cache
        seg.write_text("".join(head) + f"# delta round {day}\n")
        return (store,), {}

    records = benchmark.pedantic(
        LogStore.read_all, setup=one_new_segment, rounds=5, warmup_rounds=1)
    assert records


def test_cache_warm_construction(benchmark, warm_store):
    diag = benchmark(HolisticDiagnosis.from_store, warm_store)
    assert diag.failures
