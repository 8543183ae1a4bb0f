"""Checkpoint replay: load/resume roundtrips and crash tolerance."""

from __future__ import annotations

import pytest

from repro.core.serialize import to_jsonable
from repro.logs.health import IngestionHealth
from repro.logs.record import LogSource
from repro.runtime.journal import JournalError
from repro.stream.checkpoint import (
    CheckpointError,
    WatchCheckpoint,
    health_from_jsonable,
)


def make_checkpoint(tmp_path) -> WatchCheckpoint:
    return WatchCheckpoint(tmp_path / "watch")


def write_run(cp: WatchCheckpoint) -> None:
    """A plausible two-window run worth of events."""
    cp.append("watch-start", window_days=1, error_policy="skip",
              system="TT", seed=1, resumed=False, missing=["erd"])
    cp.append("window-close", window=0, start_day=0, end_day=1,
              watermark=90000.0, offsets={"p0/console.log": {
                  "offset": 120, "prefix": "00ff"}},
              health=None, report={"windows": 1})
    health = IngestionHealth()
    health.source(LogSource.CONSOLE).read = 7
    cp.append("window-close", window=1, start_day=1, end_day=2,
              watermark=180000.0, offsets={"p0/console.log": {
                  "offset": 240, "prefix": "00ff"}},
              health=to_jsonable(health), report={"windows": 2})


class TestLoad:
    def test_roundtrip_restores_everything(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        state = cp.load()
        assert state.started
        assert state.config["window_days"] == 1
        assert state.config["missing"] == ["erd"]
        assert state.next_window == 2
        assert [w["window"] for w in state.closed_windows()] == [0, 1]
        # latest window-close wins for offsets / watermark / health
        assert state.offsets["p0/console.log"]["offset"] == 240
        assert state.watermark == 180000.0
        assert state.health is not None
        assert state.health.source(LogSource.CONSOLE).read == 7
        assert not state.truncated_tail
        assert not state.finalized

    def test_final_offsets_are_kept_until_named_again(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        seg = {"offset": 90, "prefix": "aa", "final": True}
        for window, offsets in enumerate((
                {"p0/console.log": {"offset": 10, "prefix": "00"},
                 "p0/console-1.log.gz": seg,
                 "p0/console-1.log": {"offset": 90, "prefix": "aa"}},
                {"p0/console.log": {"offset": 20, "prefix": "00"}},
                {"p0/console.log": {"offset": 30, "prefix": "00"}})):
            cp.append("window-close", window=window, offsets=offsets)
        # a final entry survives events that omit it; a plain one, as in
        # checkpoints whose every event lists every file, does not
        assert cp.load().offsets == {
            "p0/console.log": {"offset": 30, "prefix": "00"},
            "p0/console-1.log.gz": seg}

    def test_legacy_alerts_events_are_ignored(self, tmp_path):
        """Checkpoints once recorded emitted alert ids; they still load."""
        legacy = make_checkpoint(tmp_path / "legacy")
        legacy.append("watch-start", window_days=1, error_policy="skip",
                      system="TT", seed=1, resumed=False, missing=["erd"])
        legacy.append("alerts", ids=["aaaa", "bbbb"])
        current = make_checkpoint(tmp_path / "current")
        write_run(current)
        for line in current.path.read_text(encoding="utf-8").splitlines(
                True)[1:]:
            with legacy.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
            legacy.append("alerts", ids=["cccc"])
        got, want = legacy.load(), current.load()
        for name in got.__slots__:
            assert getattr(got, name) == getattr(want, name), name

    def test_fresh_state_before_any_window(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        cp.append("watch-start", window_days=1, error_policy="skip",
                  system="TT", seed=1, resumed=False, missing=[])
        state = cp.load()
        assert state.started
        assert state.next_window == 0
        assert state.health is None
        assert state.watermark == float("-inf")

    def test_finalize_marks_completion(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        cp.append("finalize", digest="d", windows=2)
        assert cp.load().finalized


class TestCrashTolerance:
    def test_torn_final_line_is_forgiven(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        with cp.path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "window-close", "window": 2, "sta')
        state = cp.load()
        assert state.truncated_tail
        # the torn window-close never happened
        assert state.next_window == 2

    def test_mid_file_damage_raises(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        lines = cp.path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # not the final line
        cp.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError):
            cp.load()

    def test_reset_drops_the_file(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        cp.reset()
        assert not cp.exists()


class TestResumable:
    def test_matching_config_passes(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        cp.check_resumable(cp.load(), window_days=1, error_policy="skip")

    def test_window_days_mismatch_raises(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        with pytest.raises(CheckpointError, match="window_days"):
            cp.check_resumable(cp.load(), window_days=7,
                               error_policy="skip")

    def test_error_policy_mismatch_raises(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        with pytest.raises(CheckpointError, match="error_policy"):
            cp.check_resumable(cp.load(), window_days=1,
                               error_policy="strict")


class TestHealthJsonable:
    def test_roundtrip_preserves_counts_and_notes(self):
        health = IngestionHealth()
        bucket = health.source(LogSource.MESSAGES)
        bucket.read = 11
        bucket.skipped = 2
        health.note("something odd")
        rebuilt = health_from_jsonable(to_jsonable(health))
        for source in LogSource:
            assert (rebuilt.source(source).as_dict()
                    == health.source(source).as_dict())
        assert rebuilt.notes == health.notes
