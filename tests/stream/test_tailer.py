"""The resilient tailer: identity tracking under hostile file lifecycles."""

from __future__ import annotations

import builtins
import gzip
import io
import os
from collections import Counter

import pytest

from repro.core.serialize import canonical_json
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth
from repro.logs.record import LogSource
from repro.logs.store import LogStore
from repro.simul.clock import DAY, SimClock
from repro.stream.checkpoint import WatchCheckpoint
from repro.stream.replay import ReplayWriter
from repro.stream.tailer import LogTailer

from .conftest import small_bus


def make_pair(tmp_path, days=3):
    """(writer, tailer) over a fresh replay of a small complete store."""
    complete = LogStore(tmp_path / "complete")
    complete.write(small_bus(days), SimClock(), system="TT", seed=1,
                   duration_seconds=days * DAY)
    writer = ReplayWriter(complete.root, tmp_path / "live")
    tailer = LogTailer(writer.store, boundary_seconds=DAY)
    return writer, tailer


def drain(writer, tailer, step=0.25):
    """Feed-and-poll to exhaustion; returns every record seen.

    Accumulated per stream (internal, then external, then scheduler) so
    the result is order-comparable with a batch read, which concatenates
    whole streams rather than interleaving them poll by poll.
    """
    internal, external, scheduler = [], [], []
    t = 0.0
    while writer.pending_count() or t <= writer.end_time + step * DAY:
        t += step * DAY
        writer.feed_until(t)
        inc = tailer.poll()
        internal.extend(inc.internal)
        external.extend(inc.external)
        scheduler.extend(inc.scheduler)
        if t > writer.end_time + 2 * step * DAY:
            break
    return internal + external + scheduler


def batch_records(store):
    health = IngestionHealth()
    clock = store.manifest().clock()
    return (list(store.read_internal(clock, "skip", health))
            + list(store.read_external(clock, "skip", health))
            + list(store.read_scheduler(clock, "skip", health)), health)


class TestIncrementalEqualsBatch:
    def test_clean_stream_matches_batch(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        streamed = drain(writer, tailer)
        tailer.finalize_health()
        expected, batch_health = batch_records(writer.store)
        assert canonical_json(streamed) == canonical_json(expected)
        # the shared health must match a batch read of the final dir
        for source in LogSource:
            assert (tailer.health.source(source).as_dict()
                    == batch_health.source(source).as_dict())

    def test_single_poll_reads_everything(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_all()
        inc = tailer.poll()
        expected, _ = batch_records(writer.store)
        assert inc.records == len(expected)


#: characters ``str.splitlines`` breaks a line at, besides "\n"
SPLITLINES_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                     "\u2028", "\u2029")


class TestLineRule:
    """Batch, cached batch and the tailer end a line at "\\n" only, and
    drop one "\\r" right before it."""

    @pytest.mark.parametrize("case", [
        *(pytest.param(ch, id=f"mid-line-{ord(ch):#x}")
          for ch in SPLITLINES_BREAKS),
        "crlf", "crlf-gz"])
    def test_batch_cache_and_tailer_split_alike(self, small_store, tmp_path,
                                                case):
        clean, _ = batch_records(small_store)
        path = small_store.path_for(LogSource.CONSOLE)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        if case.startswith("crlf"):
            text = "".join(line + "\r\n" for line in lines)
        else:
            text = "".join(line[:len(line) // 2] + case
                           + line[len(line) // 2:] + "\n" for line in lines)
        data = text.encode("utf-8")
        if case == "crlf-gz":
            path.unlink()
            path = path.with_name(path.name + ".gz")
            data = gzip.compress(data)
        path.write_bytes(data)

        want, want_health = batch_records(small_store)
        assert want_health.source(LogSource.CONSOLE).read == len(lines)
        if case.startswith("crlf"):
            assert canonical_json(want) == canonical_json(clean)

        def assert_same(records, health):
            assert canonical_json(records) == canonical_json(want)
            assert health.notes == want_health.notes
            for source in LogSource:
                assert (health.source(source).as_dict()
                        == want_health.source(source).as_dict())

        cached = small_store.with_cache(tmp_path / "pc")
        assert_same(*batch_records(cached))                   # cold
        assert_same(*batch_records(cached))                   # warm
        assert cached.cache.hits
        tailer = LogTailer(small_store)
        inc = tailer.poll()
        tailer.finalize_health()
        assert_same(inc.internal + inc.external + inc.scheduler,
                    tailer.health)


class TestRotation:
    def test_rename_rotation_never_rereads(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(0.5 * DAY)
        tailer.poll()
        writer.rotate(LogSource.CONSOLE)
        writer.feed_all()
        tailer.poll()
        assert tailer.stats.rotations == 1
        # no duplicates: accounting equals a batch read of the final dir
        _, bh = batch_records(writer.store)
        bucket = tailer.health.source(LogSource.CONSOLE)
        assert bucket.read == bh.source(LogSource.CONSOLE).read
        assert bucket.files == bh.source(LogSource.CONSOLE).files == 2

    def test_copytruncate_adopts_the_copy(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(1.2 * DAY)
        tailer.poll()
        writer.copytruncate(LogSource.CONTROLLER)
        writer.feed_all()
        tailer.poll()
        tailer.poll()  # a second poll must not flap identities
        _, bh = batch_records(writer.store)
        bucket = tailer.health.source(LogSource.CONTROLLER)
        expected = bh.source(LogSource.CONTROLLER)
        assert bucket.read == expected.read
        assert bucket.files == expected.files == 2
        assert tailer.stats.rotations == 1
        assert tailer.stats.truncations == 0

    def test_gzip_finalization_skips_consumed_prefix(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(0.5 * DAY)
        tailer.poll()
        writer.rotate(LogSource.MESSAGES)
        writer.gzip_rotated(LogSource.MESSAGES)
        writer.feed_all()
        tailer.poll()
        assert tailer.stats.gzip_finalized == 1
        _, bh = batch_records(writer.store)
        assert (tailer.health.source(LogSource.MESSAGES).read
                == bh.source(LogSource.MESSAGES).read)

    def test_vanish_and_reappear_adopts_by_content(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(1.0 * DAY)
        tailer.poll()
        writer.vanish(LogSource.ERD)
        tailer.poll()  # file gone: state parked as orphan
        writer.restore(LogSource.ERD)
        before = tailer.health.source(LogSource.ERD).read
        tailer.poll()
        assert tailer.stats.reappeared == 1
        # same content, new inode: nothing re-read
        assert tailer.health.source(LogSource.ERD).read == before

    def test_deleted_finalized_segment_keeps_its_offset(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(0.5 * DAY)
        tailer.poll()
        gz = writer.gzip_rotated(LogSource.MESSAGES,
                                 writer.rotate(LogSource.MESSAGES))
        tailer.poll()
        assert tailer.stats.gzip_finalized == 1
        rel = gz.relative_to(writer.live_root).as_posix()
        first = tailer.boundary_snapshot(1)
        assert first[rel]["final"]
        read = tailer.health.source(LogSource.MESSAGES).read
        gz.unlink()
        writer.feed_all()
        tailer.poll()
        # gone from disk: nothing re-read; its final offset was written
        # once, and a checkpoint replay keeps it
        second = tailer.boundary_snapshot(2)
        assert rel not in second
        checkpoint = WatchCheckpoint(tmp_path / "watch")
        for window, offsets in enumerate((first, second)):
            checkpoint.append("window-close", window=window,
                              offsets=offsets)
        assert checkpoint.load().offsets[rel] == first[rel]
        assert tailer.stats.gzip_finalized == 1
        _, bh = batch_records(writer.store)
        assert (tailer.health.source(LogSource.MESSAGES).read - read
                == bh.source(LogSource.MESSAGES).read)

    def test_true_truncation_counts_and_drops(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(1.0 * DAY)
        tailer.poll()
        base = writer.store.path_for(LogSource.CONSOLE)
        base.write_bytes(b"")  # content destroyed, same inode
        writer.feed_all()
        tailer.poll()
        assert tailer.stats.truncations == 1


class TestPartialTail:
    def test_torn_line_held_back_then_completed(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(0.3 * DAY)
        writer.tear_tail(LogSource.CONSOLE, keep=12)
        inc = tailer.poll()
        held = tailer._tracked[LogSource.CONSOLE]
        state = next(iter(held.values()))
        assert state.pending_tail > 0
        assert tailer.stats.partial_holds == 1
        count_before = len(inc.internal)
        writer.feed_all()
        inc2 = tailer.poll()
        # the completed line parses whole, exactly once
        expected, _ = batch_records(writer.store)
        assert (count_before + len(inc2.internal)
                + len(inc.external) + len(inc2.external)
                + len(inc.scheduler) + len(inc2.scheduler)) == len(expected)

    def test_finalize_health_flags_current_torn_tail(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(0.3 * DAY)
        writer.tear_tail(LogSource.CONSOLE, keep=12)
        tailer.poll()
        tailer.finalize_health()
        assert tailer.health.source(LogSource.CONSOLE).partial_tail == 1
        # completing the line clears the flag (current-state semantics)
        writer.feed_all()
        tailer.poll()
        tailer.finalize_health()
        assert tailer.health.source(LogSource.CONSOLE).partial_tail == 0


class TestBoundaries:
    def test_boundary_pair_is_resume_consistent(self, tmp_path):
        """Seeding a second tailer from (snapshot, health) at a boundary
        and draining reproduces the crash-free health exactly."""
        writer, tailer = make_pair(tmp_path)
        writer.feed_until(1.4 * DAY)
        tailer.poll()
        health_at_1 = tailer.boundary_health(1)
        offsets_at_1 = tailer.boundary_snapshot(1)
        # crash-free continuation
        writer.feed_all()
        tailer.poll()
        tailer.finalize_health()
        # resumed continuation from the boundary pair
        resumed = LogTailer(writer.store, health=health_at_1,
                            boundary_seconds=DAY, reset_quarantine=False)
        resumed.seed(offsets_at_1)
        resumed.poll()
        resumed.finalize_health()
        for source in LogSource:
            assert (resumed.health.source(source).as_dict()
                    == tailer.health.source(source).as_dict()), source

    def test_snapshot_prunes_consumed_marks(self, tmp_path):
        writer, tailer = make_pair(tmp_path)
        writer.feed_all()
        tailer.poll()
        tailer.boundary_health(1)
        tailer.boundary_snapshot(1)
        for source in LogSource:
            for state in tailer._iter_states(source):
                assert all(k > 1 for k in state.boundaries)
                assert all(k > 1 for k in state.boundary_counts)


class TestErrorPolicies:
    def test_strict_raises_on_malformed(self, tmp_path):
        writer, _ = make_pair(tmp_path)
        tailer = LogTailer(writer.store, policy=ErrorPolicy.STRICT)
        writer.feed_until(0.2 * DAY)
        with writer.store.path_for(LogSource.CONSOLE).open("ab") as handle:
            handle.write(b"utter garbage, no structure\n")
        with pytest.raises(IngestionError):
            tailer.poll()

    def test_quarantine_writes_and_counts(self, tmp_path):
        writer, _ = make_pair(tmp_path)
        tailer = LogTailer(writer.store, policy=ErrorPolicy.QUARANTINE)
        writer.feed_until(0.2 * DAY)
        with writer.store.path_for(LogSource.CONSOLE).open("ab") as handle:
            handle.write(b"utter garbage, no structure\n")
        tailer.poll()
        assert tailer.health.source(LogSource.CONSOLE).quarantined == 1
        assert writer.store.quarantine_path(LogSource.CONSOLE).is_file()


def history_store(root, segments):
    """A live store whose sources each hold ``segments`` gzipped days.

    Written one file per day; every day but the last is gzipped in
    place (a finalized segment to the tailer), the last becomes the
    live base file.
    """
    store = LogStore(root)
    store.write(small_bus(segments + 1), SimClock(), system="TT", seed=1,
                duration_seconds=(segments + 1) * DAY, rotate_daily=True)
    for source in LogSource:
        files = store.source_files(source)
        if not files:
            continue
        *history, newest = files
        for path in history:
            path.with_name(path.name + ".gz").write_bytes(
                gzip.compress(path.read_bytes()))
            path.unlink()
        newest.rename(store.path_for(source))
    return store


def counted_poll(tailer, monkeypatch):
    """One poll with ``os.stat``, directory listings and ``open`` counted."""
    calls = Counter()

    def spy(kind, real):
        def call(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        for owner, name, kind in ((os, "stat", "stat"),
                                  (os, "scandir", "list"),
                                  (os, "listdir", "list"),
                                  (io, "open", "open"),
                                  (builtins, "open", "open")):
            patch.setattr(owner, name, spy(kind, getattr(owner, name)))
        increment = tailer.poll()
    return calls, increment


class TestPollCost:
    """A poll's system calls grow with the live files, not the history."""

    def poll_costs(self, tmp_path, monkeypatch, segments):
        store = history_store(tmp_path / f"history-{segments}", segments)
        tailer = LogTailer(store, boundary_seconds=DAY)
        first = tailer.poll()
        # every segment was read once and is final from here on
        assert tailer.stats.gzip_finalized == 5 * segments
        idle_calls, idle = counted_poll(tailer, monkeypatch)
        assert idle.records == 0
        base = store.path_for(LogSource.CONSOLE)
        with base.open("ab") as handle:
            handle.write(base.read_bytes().splitlines(keepends=True)[-1])
        append_calls, appended = counted_poll(tailer, monkeypatch)
        assert appended.records == 1
        tailer.finalize_health()
        streamed = (first.internal + appended.internal + first.external
                    + first.scheduler)
        expected, batch_health = batch_records(store)
        assert canonical_json(streamed) == canonical_json(expected)
        for source in LogSource:
            assert (tailer.health.source(source).as_dict()
                    == batch_health.source(source).as_dict()), source
        return idle_calls, append_calls

    def test_poll_calls_do_not_grow_with_history(self, tmp_path,
                                                 monkeypatch):
        idle_short, append_short = self.poll_costs(tmp_path, monkeypatch, 3)
        idle_long, append_long = self.poll_costs(tmp_path, monkeypatch, 40)
        assert idle_long == idle_short
        assert append_long == append_short
        # one listing per source directory (p0/ holds three sources)
        assert idle_short["list"] == append_short["list"] == 4
