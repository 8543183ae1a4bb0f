"""Crash-safety and determinism of the campaign journal."""

import json
import os

import pytest

from repro.core.artifacts import atomic_write_text
from repro.experiments.result import ExperimentResult
from repro.fleet import FleetJournal
from repro.runtime.journal import CampaignJournal, JournalError
from repro.stream.checkpoint import WatchCheckpoint


def result(exp="figX", ok=True, **measured):
    return ExperimentResult(exp, f"title {exp}", measured or {"v": 1.0},
                            {"v": 1.0}, ok)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_text(path, "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestEventLog:
    def test_append_and_replay(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=["a"])
        journal.append("start", experiment="a", attempt=1)
        events = journal.events()
        assert [e["event"] for e in events] == ["campaign-start", "start"]
        assert events[0]["seed"] == 7
        assert all("wall" in e for e in events)

    def test_empty_journal(self, tmp_path):
        assert CampaignJournal(tmp_path / "none").events() == []

    def test_truncated_tail_is_forgiven(self, tmp_path):
        """A SIGKILL mid-append leaves a partial last line; replay drops
        exactly that line and flags it."""
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=[])
        journal.append("start", experiment="a", attempt=1)
        with journal.path.open("a") as handle:
            handle.write('{"event": "complete", "experi')  # no newline, cut
        events = journal.events()
        assert [e["event"] for e in events] == ["campaign-start", "start"]
        assert journal.truncated_tail

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=[])
        with journal.path.open("a") as handle:
            handle.write("garbage not json\n")
        journal.append("start", experiment="a", attempt=1)
        with pytest.raises(JournalError, match="corrupt journal line"):
            journal.events()

    def test_campaign_seed(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        assert journal.campaign_seed() is None
        journal.start(11, ["a", "b"])
        assert journal.campaign_seed() == 11

    def test_reset_drops_events_and_artifacts(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=[])
        journal.write_artifact(result("figX"))
        journal.reset()
        assert journal.events() == []
        assert not journal.artifact_path("figX").exists()


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        res = result("figX", v=1.25, n=3)
        journal.write_artifact(res)
        back = journal.read_artifact("figX")
        assert back.experiment == "figX"
        assert back.measured == {"v": 1.25, "n": 3}
        assert back.shape_ok is True

    def test_bytes_are_deterministic(self, tmp_path):
        a = CampaignJournal(tmp_path / "a")
        b = CampaignJournal(tmp_path / "b")
        a.write_artifact(result("figX", v=0.5))
        b.write_artifact(result("figX", v=0.5))
        assert (a.artifact_path("figX").read_bytes()
                == b.artifact_path("figX").read_bytes())

    def test_completed_requires_intact_artifact(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.write_artifact(result("good"))
        journal.append("complete", experiment="good", attempt=1, shape_ok=True)
        journal.append("complete", experiment="gone", attempt=1, shape_ok=True)
        journal.write_artifact(result("damaged"))
        journal.append("complete", experiment="damaged", attempt=1,
                       shape_ok=True)
        journal.artifact_path("damaged").write_text("{not json")
        done = journal.completed_results()
        assert set(done) == {"good"}

    def test_completion_survives_later_failure_events(self, tmp_path):
        journal = CampaignJournal(tmp_path / "camp")
        journal.write_artifact(result("figX"))
        journal.append("complete", experiment="figX", attempt=1, shape_ok=True)
        journal.append("attempt-failed", experiment="figX", attempt=2,
                       reason="spurious")
        assert set(journal.completed_results()) == {"figX"}


class TestTruncatedTailCounter:
    def test_forgiven_tail_counts_when_obs_enabled(self, tmp_path):
        from repro.obs import OBS, ObsConfig, configure

        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=[])
        with journal.path.open("a") as handle:
            handle.write('{"event": "complete", "experi')
        configure(ObsConfig(enabled=True))
        try:
            journal.events()
            assert OBS.metrics.counter("journal.truncated_tail").value == 1
            # the first replay cut the tail off the file, so there is
            # nothing left to forgive (or count) the second time
            assert journal.events() == journal.events()
            assert OBS.metrics.counter("journal.truncated_tail").value == 1
        finally:
            configure(ObsConfig(enabled=False))
            OBS.reset()

    def test_clean_replay_counts_nothing(self, tmp_path):
        from repro.obs import OBS, ObsConfig, configure

        journal = CampaignJournal(tmp_path / "camp")
        journal.append("campaign-start", seed=7, experiments=[])
        configure(ObsConfig(enabled=True))
        try:
            journal.events()
            assert OBS.metrics.counter("journal.truncated_tail").value == 0
        finally:
            configure(ObsConfig(enabled=False))
            OBS.reset()


def replayed_windows(journal) -> list[int]:
    """The ``window`` of each replayed event, read back the way the
    journal's own resume reads it."""
    if isinstance(journal, WatchCheckpoint):
        return sorted(journal.load().windows)
    return [event["window"] for event in journal.events()]


@pytest.mark.parametrize("kind", [CampaignJournal, FleetJournal,
                                  WatchCheckpoint])
class TestTornTailResume:
    """Every journal is one :class:`~repro.runtime.journal.Journal`, so
    a run killed mid-append can be resumed, and then resumed again."""

    def test_append_after_a_torn_tail_survives_the_next_replay(
            self, tmp_path, kind):
        journal = kind(tmp_path / "run")
        journal.append("window-close", window=0)
        with journal.path.open("a") as handle:
            handle.write('{"event": "window-close", "wind')  # killed
        assert replayed_windows(journal) == [0]  # first resume
        journal.append("window-close", window=1)
        assert replayed_windows(journal) == [0, 1]  # second resume
        journal.append("window-close", window=2)
        assert replayed_windows(journal) == [0, 1, 2]

    def test_replay_cuts_the_torn_line_once(self, tmp_path, kind):
        journal = kind(tmp_path / "run")
        journal.append("window-close", window=0)
        intact = journal.path.read_bytes()
        with journal.path.open("a") as handle:
            handle.write('{"event": "window-close", "wind')
        journal.events()
        assert journal.truncated_tail
        assert journal.path.read_bytes() == intact
        journal.events()
        assert not journal.truncated_tail

    def test_every_event_carries_wall(self, tmp_path, kind):
        journal = kind(tmp_path / "run")
        journal.append("window-close", window=0)
        assert all("wall" in event for event in journal.events())

    def test_reset_drops_the_log_and_owned_files(self, tmp_path, kind):
        journal = kind(tmp_path / "run")
        journal.append("window-close", window=0)
        owned = [journal.root / pattern.replace("*", "x")
                 for pattern in kind.owned]
        for path in owned:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")
        assert journal.exists()
        journal.reset()
        assert not journal.exists() and journal.events() == []
        assert not any(path.exists() for path in owned)
