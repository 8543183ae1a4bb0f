"""The watch daemon: streamed == batch, crash safety, bounded memory."""

from __future__ import annotations

import json

import pytest

from repro.core.serialize import report_digest
from repro.logs.record import LogRecord, LogSource
from repro.logs.store import LogStore
from repro.simul.clock import DAY, SimClock
from repro.stream.checkpoint import CheckpointError, WatchCheckpoint
from repro.stream.daemon import (
    WatchConfig,
    WatchDaemon,
    streamed_batch_equivalent,
)
from repro.stream.replay import ReplayWriter

from .conftest import drive_daemon, small_bus

FAULTS = {
    5: lambda w: w.rotate(LogSource.CONSOLE),
    7: lambda w: (w.rotate(LogSource.MESSAGES),
                  w.gzip_rotated(LogSource.MESSAGES)),
    11: lambda w: w.copytruncate(LogSource.CONTROLLER),
    13: lambda w: w.tear_tail(LogSource.CONSOLE, keep=12),
    17: lambda w: w.vanish(LogSource.ERD),
    19: lambda w: w.restore(LogSource.ERD),
}


def make_setup(small_store, tmp_path, resume=False):
    writer = ReplayWriter(small_store.root, tmp_path / "live")
    out = tmp_path / "watch"

    def make(resume=resume):
        return WatchDaemon(WatchConfig(logdir=writer.store.root, out=out,
                                       window_days=1, resume=resume))

    return writer, out, make


class TestParity:
    def test_streamed_equals_batch_clean(self, small_store, tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        report = drive_daemon(writer, make())
        assert report.window_count == 3
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))
        # the artifact on disk is the canonical form of the windows
        on_disk = json.loads(report.report_path.read_text())
        assert report_digest(on_disk) == report.digest

    def test_streamed_equals_batch_under_faults(self, small_store,
                                                tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        report = drive_daemon(writer, make(), faults=FAULTS)
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))


@pytest.fixture
def jobs_store(tmp_path) -> LogStore:
    """:func:`small_bus` plus one started and completed job a day."""
    bus = small_bus()
    for day in range(3):
        t0 = day * DAY
        bus.emit(LogRecord(t0 + 8100.0, LogSource.SCHEDULER, "sdb",
                           "slurm_start",
                           {"job": day, "nodes": "c0-0c0s0n0", "cpus": 32,
                            "user": "u1", "app": "a.out"}))
        bus.emit(LogRecord(t0 + 9900.0, LogSource.SCHEDULER, "sdb",
                           "slurm_complete", {"job": day, "code": 0}))
    store = LogStore(tmp_path / "complete")
    store.write(bus, SimClock(), system="TT", seed=1,
                duration_seconds=3 * DAY)
    return store


class TestRotatedSegmentOrder:
    """A rotated segment is older than the live base file it left behind:
    batch reads must list it first, so the concatenated scheduler stream
    is time-sorted and the batch side matches the streamed one with no
    rotation of the non-empty live files before finalize."""

    @pytest.mark.parametrize("gzip", [False, True])
    def test_scheduler_stream_is_time_sorted(self, jobs_store, tmp_path,
                                             gzip):
        def rotate(w):
            rotated = w.rotate(LogSource.SCHEDULER)
            if gzip:
                w.gzip_rotated(LogSource.SCHEDULER, rotated)

        writer, out, make = make_setup(jobs_store, tmp_path)
        drive_daemon(writer, make(), faults={12: rotate})
        store = writer.store
        files = store.source_files(LogSource.SCHEDULER)
        assert len(files) == 2 and files[-1] == store.path_for(
            LogSource.SCHEDULER)
        assert files[-1].stat().st_size > 0  # the live base holds lines
        times = [r.time for r in store.read_scheduler()]
        assert len(times) == 9 and times == sorted(times)

    def test_streamed_equals_batch_with_live_tails(self, jobs_store,
                                                   tmp_path):
        writer, out, make = make_setup(jobs_store, tmp_path)
        faults = {12: lambda w: w.rotate(LogSource.SCHEDULER),
                  15: lambda w: w.rotate(LogSource.CONSOLE)}
        report = drive_daemon(writer, make(), faults=faults)
        assert all(writer.store.path_for(s).stat().st_size
                   for s in (LogSource.SCHEDULER, LogSource.CONSOLE))
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))


class TestCrashSafety:
    @pytest.mark.parametrize("kill_at", [4, 11, 17, 21])
    def test_kill_and_resume_reproduces_the_run(self, small_store,
                                                tmp_path, kill_at):
        clean_writer, clean_out, clean_make = make_setup(
            small_store, tmp_path / "clean")
        clean = drive_daemon(clean_writer, clean_make(), faults=FAULTS)
        clean_alerts = (clean_out / "alerts.jsonl").read_bytes()

        writer, out, make = make_setup(small_store, tmp_path / "killed")
        report = drive_daemon(
            writer, make(), faults=FAULTS, kill_and_resume_at=kill_at,
            make_daemon=lambda: make(resume=True))
        assert report.resumed
        assert report.digest == clean.digest
        # exactly-once: the alert stream is byte-identical, no dup, no loss
        assert (out / "alerts.jsonl").read_bytes() == clean_alerts

    def test_resume_after_completion_is_idempotent(self, small_store,
                                                   tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        finished = drive_daemon(writer, make())
        alerts_before = (out / "alerts.jsonl").read_bytes()
        again = make(resume=True)
        again.start()
        again.tick()
        report = again.finalize()
        assert report.resumed
        assert report.digest == finished.digest
        assert report.alerts_emitted == 0
        assert (out / "alerts.jsonl").read_bytes() == alerts_before

    def test_resume_with_changed_geometry_is_refused(self, small_store,
                                                     tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        drive_daemon(writer, make())
        wrong = WatchDaemon(WatchConfig(logdir=writer.store.root, out=out,
                                        window_days=7, resume=True))
        with pytest.raises(CheckpointError):
            wrong.start()


def rotate_and_gzip_all(writer):
    for source in LogSource:
        writer.gzip_rotated(source, writer.rotate(source))


class TestCheckpointOffsets:
    """A window-close carries the live files, not the rotated history."""

    DAYS = 8

    def make_daily_setup(self, tmp_path):
        complete = LogStore(tmp_path / "complete")
        complete.write(small_bus(self.DAYS), SimClock(), system="TT",
                       seed=1, duration_seconds=self.DAYS * DAY)
        writer, out, make = make_setup(complete, tmp_path)
        faults = dict.fromkeys(range(1, self.DAYS + 1), rotate_and_gzip_all)
        return writer, out, make, faults

    def test_finalized_segments_are_written_once(self, tmp_path):
        writer, out, make, faults = self.make_daily_setup(tmp_path)
        drive_daemon(writer, make(), step_days=1.0, faults=faults)
        closes = [event for event in map(
            json.loads, (out / "checkpoint.jsonl").read_text().splitlines())
            if event["event"] == "window-close"]
        assert len(closes) == self.DAYS
        files = {path.relative_to(writer.live_root).as_posix()
                 for source in LogSource
                 for path in writer.store.source_files(source)}
        segments = {rel for rel in files if rel.endswith(".gz")}
        assert len(segments) == self.DAYS * len(LogSource)
        final: set[str] = set()
        for close in closes:
            # written once more when final, then omitted
            assert not final & close["offsets"].keys()
            final |= {rel for rel, entry in close["offsets"].items()
                      if entry.get("final")}
        assert final == segments
        # the last close: the base files and the segments gzipped since
        # the close before it, not the history
        assert len(closes[-1]["offsets"]) <= 2 * len(LogSource)
        # the replay puts the omitted entries back
        assert WatchCheckpoint(out).load().offsets.keys() == files

    def test_files_rotated_before_any_poll_count_as_batch(self, tmp_path):
        # each day's base file is rotated and gzipped before a poll sees
        # its content: no state carries over to the .gz, yet it is one
        # file, as in a batch read of the directory
        writer, _, make, faults = self.make_daily_setup(tmp_path)
        report = drive_daemon(writer, make(), step_days=1.0, faults=faults)
        batch = streamed_batch_equivalent(writer.store, 1)
        assert report.digest == report_digest(batch)
        health = report.windows[-1]["report"]["ingestion_health"]
        assert {bucket["files"] for bucket in
                health["sources"].values()} == {self.DAYS + 1}

    def test_resume_forgets_deleted_segments(self, tmp_path):
        def rotate_keep_two(writer):
            rotate_and_gzip_all(writer)
            for source in LogSource:
                for path in writer.store.source_files(source)[:-3]:
                    path.unlink()  # logrotate's ``rotate 2``

        def resumed_and_polled():
            daemon = make(resume=True)
            daemon.start()
            daemon.tick()  # `repro watch --resume` polls at once
            return daemon

        last_offsets = []
        for kill_at in (None, 4):
            writer, out, make, _ = self.make_daily_setup(
                tmp_path / str(kill_at))
            faults = dict.fromkeys(range(1, self.DAYS + 1), rotate_keep_two)
            drive_daemon(writer, make(), step_days=1.0, faults=faults,
                         kill_and_resume_at=kill_at,
                         make_daemon=resumed_and_polled)
            closes = [event for event in map(
                json.loads,
                (out / "checkpoint.jsonl").read_text().splitlines())
                if event["event"] == "window-close"]
            last_offsets.append(closes[-1]["offsets"].keys())
        # segments deleted before the resume are not seeded back in as
        # files to checkpoint for the rest of the run
        assert last_offsets[1] == last_offsets[0]

    def run_clean_and_killed(self, tmp_path):
        writer, _, make, faults = self.make_daily_setup(tmp_path / "clean")
        clean = drive_daemon(writer, make(), step_days=1.0, faults=faults)
        writer, _, make, faults = self.make_daily_setup(tmp_path / "killed")
        resumed = drive_daemon(
            writer, make(), step_days=1.0, faults=faults,
            kill_and_resume_at=self.DAYS - 1,
            make_daemon=lambda: make(resume=True))
        assert resumed.resumed
        return clean, resumed

    def test_resume_from_merged_offsets_reads_each_line_once(self, tmp_path):
        clean, resumed = self.run_clean_and_killed(tmp_path)
        assert (resumed.alerts_path.read_bytes()
                == clean.alerts_path.read_bytes())

        # every window's report, line and file accounting included, is
        # the clean run's
        assert (json.loads(resumed.report_path.read_text())
                == json.loads(clean.report_path.read_text()))

    def test_resume_from_merged_offsets_reproduces_the_run(self, tmp_path):
        clean, resumed = self.run_clean_and_killed(tmp_path)
        assert resumed.digest == clean.digest


class TestTornCheckpoint:
    """A kill mid-append tears the checkpoint's last line; the first
    resume cuts it, so later resumes still replay the checkpoint."""

    DAYS = 6

    def test_two_resumes_after_a_torn_tail_match_batch(self, tmp_path):
        complete = LogStore(tmp_path / "complete")
        complete.write(small_bus(self.DAYS), SimClock(), system="TT",
                       seed=1, duration_seconds=self.DAYS * DAY)
        clean_writer, _, clean_make = make_setup(complete, tmp_path / "a")
        clean = drive_daemon(clean_writer, clean_make(), step_days=1.0)
        writer, out, make = make_setup(complete, tmp_path / "b")
        daemon = make()
        for day in range(1, self.DAYS + 1):
            writer.feed_until(day * DAY)
            daemon.tick()
            if day == 2:  # killed while appending to both files
                for name in ("checkpoint.jsonl", "alerts.jsonl"):
                    last = (out / name).read_bytes().splitlines(True)[-1]
                    with (out / name).open("ab") as handle:
                        handle.write(last[:len(last) // 2])
            if day in (2, 4):
                daemon = make(resume=True)
                daemon.start()
        writer.feed_all()
        daemon.tick()
        report = daemon.finalize()
        assert report.resumed
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))
        assert report.digest == clean.digest
        assert (out / "alerts.jsonl").read_bytes() == \
            clean.alerts_path.read_bytes()
        assert not WatchCheckpoint(out).load().truncated_tail


class TestBoundedMemory:
    def test_closed_windows_are_evicted(self, small_store, tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        daemon = make()
        daemon.start()
        peak = 0
        t = 0.0
        while writer.pending_count():
            t += 0.1 * DAY
            writer.feed_until(t)
            daemon.tick()
            peak = max(peak, daemon.index.resident_records())
        daemon.tick()
        report = daemon.finalize()
        assert report.windows_closed >= 2
        # the index never held the whole run: closed windows are evicted
        assert 0 < peak < report.records
        # after the final close at most one window's records are resident
        assert daemon.index.resident_records() <= peak


class TestEarlyWarning:
    def test_precursors_lead_their_window_close(self, small_store,
                                                tmp_path):
        """Paper Obs. 5/6 direction: node-scoped external faults are
        alerted *during* the window, before the close-time summary."""
        writer, out, make = make_setup(small_store, tmp_path)
        drive_daemon(writer, make())
        entries = [json.loads(line) for line in
                   (out / "alerts.jsonl").read_text().splitlines()]
        precursors = [e for e in entries if e["kind"] == "precursor"]
        windows = {e["window"]: i for i, e in enumerate(entries)
                   if e["kind"] == "window"}
        assert precursors and windows
        assert {e["event"] for e in precursors} <= {"nvf", "nhf",
                                                    "ecb_fault"}
        for i, entry in enumerate(entries):
            if entry["kind"] != "precursor":
                continue
            window = int(entry["time"] // DAY)
            # emitted strictly before that window's summary alert, with
            # positive lead time to the window close
            if window in windows:
                assert i < windows[window]
            assert entry["time"] < (window + 1) * DAY


class TestConfig:
    def test_rejects_nonpositive_window(self, tmp_path):
        with pytest.raises(ValueError):
            WatchConfig(logdir=tmp_path, out=tmp_path / "w",
                        window_days=0)

    def test_watch_requires_a_store(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        with pytest.raises(FileNotFoundError):
            WatchDaemon(WatchConfig(logdir=bare, out=tmp_path / "w"))
