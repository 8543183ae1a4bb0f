"""Hardened reader semantics: policies, accounting, gzip, recovery."""

import gzip

import pytest

from repro.logs.health import (
    ErrorPolicy,
    IngestionError,
    IngestionHealth,
    SourceHealth,
    conservation_violations,
)
from repro.logs.parsing import LineParser
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore
from repro.simul.clock import SimClock


def small_store(tmp_path, lines_extra=()):
    """A store with a handful of console lines, plus raw extras."""
    bus = LogBus()
    for t in (10.0, 20.0, 30.0):
        bus.emit(LogRecord(t, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                           {"bank": 1, "status": "ff"}))
    store = LogStore(tmp_path / "logs")
    store.write(bus, SimClock(), "TT", 1, 60.0)
    if lines_extra:
        with store.path_for(LogSource.CONSOLE).open("a") as handle:
            for line in lines_extra:
                handle.write(line + "\n")
    return store


class TestPolicies:
    def test_skip_counts_ignored(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage", ""])
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="skip", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert len(records) == 3
        assert bucket.read == 5
        assert bucket.parsed == 3
        assert bucket.ignored == 2
        assert bucket.quarantined == 0
        assert bucket.conserved

    def test_quarantine_counts_and_writes(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage", "more junk!"])
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="quarantine", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert len(records) == 3
        assert bucket.quarantined == 2
        assert bucket.conserved
        raw = store.quarantine_path(LogSource.CONSOLE).read_text().splitlines()
        assert raw == ["complete garbage", "more junk!"]

    def test_quarantine_file_reset_between_passes(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage"])
        for _ in range(2):  # a second diagnosis must not accumulate
            list(store.read_source(LogSource.CONSOLE, policy="quarantine"))
        raw = store.quarantine_path(LogSource.CONSOLE).read_text().splitlines()
        assert raw == ["complete garbage"]

    def test_strict_raises(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage"])
        with pytest.raises(IngestionError):
            list(store.read_source(LogSource.CONSOLE, policy="strict"))

    def test_strict_clean_file_ok(self, tmp_path):
        store = small_store(tmp_path)
        assert len(list(store.read_source(LogSource.CONSOLE,
                                          policy="strict"))) == 3

    def test_unknown_policy_rejected(self, tmp_path):
        store = small_store(tmp_path)
        with pytest.raises(ValueError):
            list(store.read_source(LogSource.CONSOLE, policy="explode"))


class TestRecovery:
    def test_gzip_transparent_read(self, tmp_path):
        store = small_store(tmp_path)
        path = store.path_for(LogSource.CONSOLE)
        gz = path.with_name(path.name + ".gz")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        path.unlink()
        assert [p.name for p in store.source_files(LogSource.CONSOLE)] == [
            "console.log.gz"]
        records = list(store.read_source(LogSource.CONSOLE))
        assert [r.time for r in records] == [10.0, 20.0, 30.0]
        assert store.line_counts()["console"] == 3

    def test_mojibake_decodes_and_counts_recovered(self, tmp_path):
        store = small_store(tmp_path)
        path = store.path_for(LogSource.CONSOLE)
        data = path.read_bytes().replace(b"Bank 1: ff", b"Bank 1: \xff\xfe")
        path.write_bytes(data)
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="quarantine", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert bucket.conserved
        assert len(records) == 3  # replacement chars keep the line parseable
        assert bucket.recovered >= 1

    def test_skew_clamped_within_bound(self):
        parser = LineParser(SimClock())
        good = "2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: hello world"
        skewed = "2015-01-04T10:00:00.000000 c0-0c0s0n0 kernel: old stamp"
        first = parser.parse_ex(good)
        second = parser.parse_ex(skewed)
        assert first.record.time == 3600.0
        assert second.recovered
        assert second.record.time == 3600.0  # clamped, not 15 h back

    def test_small_jitter_not_clamped(self):
        parser = LineParser(SimClock())
        a = parser.parse_ex(
            "2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: a")
        b = parser.parse_ex(
            "2015-01-05T00:59:00.000000 c0-0c0s0n0 kernel: b")
        assert not b.recovered
        assert b.record.time == a.record.time - 60.0

    def test_destroyed_stamp_inherits_last_time(self):
        parser = LineParser(SimClock())
        parser.parse_ex("2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: ok")
        torn = parser.parse_ex("T01:0####0000 c0-0c0s0n0 kernel: torn")
        assert torn.status == "parsed"
        assert torn.recovered
        assert torn.record.time == 3600.0

    def test_parser_reset_forgets_skew(self):
        parser = LineParser(SimClock())
        parser.parse_ex("2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: ok")
        parser.reset()
        torn = parser.parse_ex("T01:0####0000 c0-0c0s0n0 kernel: torn")
        assert torn.status == "malformed"


class TestUnreadableSegment:
    def test_unreadable_segment_is_skipped_and_noted(self, tmp_path):
        """A .gz that is not gzip: the read retries, gives up on that one
        file, keeps every other file, and says so on the report."""
        from repro.core.pipeline import HolisticDiagnosis
        from repro.obs import session

        store = small_store(tmp_path)
        bad = store.path_for(LogSource.ERD).with_name("event.log.gz")
        bad.write_bytes(b"this is not gzip data")
        note = "unreadable file skipped: event.log.gz"
        for cache in (None, tmp_path / "pc"):
            health = IngestionHealth()
            with session() as obs:
                diag = HolisticDiagnosis.from_store(store, health=health,
                                                    cache=cache)
            assert obs.metrics.counter("ingest.files_lost").value == 1
            assert len(diag.internal) == 3
            assert note in health.notes
            assert health.conserved, conservation_violations(health)
            erd = health.source(LogSource.ERD)
            assert (erd.files, erd.retried_files) == (2, 1)
            assert health.degraded and note in diag.degradation()[1]


class TestHealthModel:
    def test_merge_and_render(self):
        health = IngestionHealth()
        health.source(LogSource.CONSOLE).merge(
            SourceHealth(read=10, parsed=8, quarantined=1, ignored=1,
                         recovered=2, files=1))
        other = IngestionHealth()
        other.source(LogSource.CONSOLE).merge(
            SourceHealth(read=5, parsed=5, files=1))
        other.note("something odd")
        health.merge(other)
        bucket = health.source(LogSource.CONSOLE)
        assert bucket.read == 15 and bucket.parsed == 13
        assert bucket.conserved
        assert "something odd" in health.render()
        assert health.degraded  # quarantined lines flag degradation

    def test_violation_reporting(self):
        health = IngestionHealth()
        health.source(LogSource.ERD).read = 7
        assert not health.conserved
        problems = conservation_violations(health)
        assert problems and "erd" in problems[0]

    def test_missing_sources(self):
        health = IngestionHealth()
        health.source(LogSource.SCHEDULER)
        health.source(LogSource.CONSOLE).files = 1
        assert health.missing_sources() == [LogSource.SCHEDULER]


class TestUnifiedErrorPolicyMessages:
    """Every refusal names the unified knob ``error_policy``."""

    def test_coerce_message_says_error_policy(self):
        with pytest.raises(ValueError, match="unknown error_policy"):
            ErrorPolicy.coerce("explode")

    def test_api_diagnose_bad_policy_says_error_policy(self, tmp_path):
        from repro import api

        with pytest.raises(ValueError, match="unknown error_policy"):
            api.DiagnoseRequest(logdir=str(tmp_path), error_policy="nope")

    def test_checkpoint_resume_mismatch_says_error_policy(self, tmp_path):
        from repro.stream.checkpoint import (
            CheckpointError,
            WatchCheckpoint,
            WatchState,
        )

        checkpoint = WatchCheckpoint(tmp_path)
        state = WatchState()
        state.started = True
        state.config = {"window_days": 1, "error_policy": "skip"}
        with pytest.raises(CheckpointError, match="error_policy="):
            checkpoint.check_resumable(state, window_days=1,
                                       error_policy="strict")
