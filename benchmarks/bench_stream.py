"""Bench: the streaming paths that keep `repro watch` cheap per poll.

Two costs matter for a daemon that polls for days.  First, extending
the record index must not lose to a rebuild: ``append_records`` extends
the stream in place, keeps the already-extracted time prefix and drops
the bucket caches.  This leg queries ``by_event`` after every append,
which the daemon never does on its own index, so the rebuilt buckets
make it a worst case; rebuild-per-chunk also copies the whole stream
and re-extracts every time.  Second, an *idle* poll (stat every source
file, find nothing new) must be far below the poll interval, or the
daemon eats a core doing nothing.  Both legs run on the S3 scenario so
the numbers are comparable with the ingestion benches.
"""

import time

from repro.core.index import StreamIndex
from repro.logs.health import ErrorPolicy
from repro.stream.daemon import WatchConfig, WatchDaemon
from repro.stream.replay import ReplayWriter

CHUNKS = 20


def _chunked(records):
    step = max(1, len(records) // CHUNKS)
    return [records[i:i + step] for i in range(0, len(records), step)]


def _stream_append(chunks):
    index = StreamIndex(list(chunks[0]))
    for chunk in chunks[1:]:
        index.append_records(chunk)
        _ = index.by_event, index.times  # buckets rebuild, times extend
    return index


def _rebuild_per_chunk(chunks):
    records = []
    for chunk in chunks:
        records.extend(chunk)
        index = StreamIndex(list(records))
        _ = index.by_event, index.times
    return index


def _records(store):
    clock = store.manifest().clock()
    return store.read_all(clock, policy=ErrorPolicy.SKIP)


def test_index_append_streaming(benchmark, store_s3):
    chunks = _chunked(_records(store_s3))
    index = benchmark(_stream_append, chunks)
    assert len(index) == sum(len(c) for c in chunks)


def test_index_rebuild_per_chunk(benchmark, store_s3):
    chunks = _chunked(_records(store_s3))
    index = benchmark(_rebuild_per_chunk, chunks)
    assert len(index) == sum(len(c) for c in chunks)


def test_append_beats_rebuild(store_s3):
    chunks = _chunked(_records(store_s3))
    append_times, rebuild_times = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        _stream_append(chunks)
        append_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _rebuild_per_chunk(chunks)
        rebuild_times.append(time.perf_counter() - t0)
    ratio = min(rebuild_times) / min(append_times)
    print(f"\nindex rebuild-per-chunk / streamed-append: {ratio:.1f}x "
          f"({CHUNKS} chunks)")
    assert ratio > 1.0  # appending must never lose to rebuilding


def test_idle_poll_overhead(benchmark, store_s3, tmp_path):
    """An idle tick: stat every live file, parse nothing, close nothing."""
    writer = ReplayWriter(store_s3.root, tmp_path / "live")
    writer.feed_all()
    daemon = WatchDaemon(WatchConfig(
        logdir=writer.store.root, out=tmp_path / "watch", window_days=7))
    daemon.start()
    assert daemon.tick() > 0  # swallow the whole store once
    benchmark(daemon.tick)  # every further tick finds nothing new
