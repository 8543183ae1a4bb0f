"""Bench: the streaming paths that keep `repro watch` cheap per poll.

Two costs matter for a daemon that polls for days.  First, extending
the record index must not lose to a rebuild: ``append_records`` extends
the stream in place, keeps the already-extracted time prefix and drops
the bucket caches.  This leg queries ``by_event`` after every append,
which the daemon never does on its own index, so the rebuilt buckets
make it a worst case; rebuild-per-chunk also copies the whole stream
and re-extracts every time.  Second, an *idle* poll (list each source
directory, stat every live file, find nothing new) must be far below
the poll interval, or the daemon eats a core doing nothing, and it must
not grow with the rotated history a long-running daemon accumulates:
finalized ``.gz`` segments are never stat'ed or read again.  The legs
run on the S3 scenario so the numbers are comparable with the ingestion
benches.
"""

from benchmarks.timing import compare
from repro.core.index import StreamIndex
from repro.logs.health import ErrorPolicy
from repro.logs.record import LogSource
from repro.simul.clock import DAY
from repro.stream.daemon import WatchConfig, WatchDaemon
from repro.stream.replay import ReplayWriter

CHUNKS = 20
#: days of daily rotate+gzip (every source, empty or not, as
#: logrotate's default ``ifempty`` does) behind the history idle tick
HISTORY_DAYS = 60
#: idle ticks per timed round, and rounds (the minimum round counts)
IDLE_TICKS, IDLE_ROUNDS = 50, 5


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
    timing = compare(lambda: _stream_append(chunks),
                     lambda: _rebuild_per_chunk(chunks), rounds=3)
    print(f"\nindex rebuild-per-chunk / streamed-append: {timing.ratio:.1f}x "
          f"(per-round quartiles {timing.spread()}; {CHUNKS} chunks)")
    assert timing.ratio > 1.0  # appending must never lose to rebuilding


def _idle_daemon(store, base, history_days=0):
    """A daemon that has swallowed a live copy of ``store`` once.

    With ``history_days`` the copy is fed a day at a time and every
    source is rotated and gzipped after each day, so the live directory
    holds ``history_days`` finalized segments per source.
    """
    writer = ReplayWriter(store.root, base / "live")
    for day in range(1, history_days + 1):
        writer.feed_until(day * DAY)
        for source in LogSource:
            writer.gzip_rotated(source, writer.rotate(source))
    writer.feed_all()
    daemon = WatchDaemon(WatchConfig(
        logdir=writer.store.root, out=base / "watch", window_days=7))
    daemon.start()
    assert daemon.tick() > 0  # swallow the whole store once
    return daemon


def _idle_ticks(daemon):
    for _ in range(IDLE_TICKS):
        assert daemon.tick() == 0


def test_idle_poll_overhead(benchmark, store_s3, tmp_path):
    """An idle tick: stat every live file, parse nothing, close nothing."""
    daemon = _idle_daemon(store_s3, tmp_path)
    benchmark(daemon.tick)  # every further tick finds nothing new


def test_idle_poll_ignores_rotated_history(store_s3, tmp_path):
    """An idle tick over 60 days of gzipped segments costs about what
    one over the history-free directory does."""
    fresh = _idle_daemon(store_s3, tmp_path / "fresh")
    history = _idle_daemon(store_s3, tmp_path / "history", HISTORY_DAYS)
    segments = sum(len(history.store.source_files(source)) - 1
                   for source in LogSource)
    assert segments == HISTORY_DAYS * len(LogSource)
    timing = compare(lambda: _idle_ticks(fresh), lambda: _idle_ticks(history),
                     rounds=IDLE_ROUNDS)
    print(f"\nidle tick with {segments} gzipped segments / without: "
          f"{timing.ratio:.2f}x ({timing.b / IDLE_TICKS * 1e3:.3f} / "
          f"{timing.a / IDLE_TICKS * 1e3:.3f} ms; per-round quartiles "
          f"{timing.spread()})")
    assert timing.ratio < 2.0  # the history is listed, never stat'ed or read
