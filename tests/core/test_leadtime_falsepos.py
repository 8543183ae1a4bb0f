"""Tests for lead-time enhancement and false-positive analysis."""

import pytest

from repro.core.external import ExternalIndex
from repro.core.falsepos import build_episodes, compare_fpr
from repro.core.leadtime import (
    compute_lead_times,
    summarize_lead_times,
    weekly_enhanceable_fractions,
)
from repro.simul.clock import HOUR, WEEK

from tests.core.helpers import console, controller, erd, failure, messages

NODE = "c0-0c0s0n0"
BLADE = "c0-0c0s0"
PEER = "c0-0c0s0n1"


class TestLeadTimes:
    def test_internal_lead_from_first_indicative(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff"),
                    console(950.0, NODE, "mce", bank=1, status="ff")]
        records = compute_lead_times([failure(1000.0, NODE)], internal,
                                     ExternalIndex.build([]))
        assert records[0].internal_lead == pytest.approx(100.0)
        assert records[0].external_lead is None
        assert not records[0].enhanceable

    def test_external_precursor_enhances(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            erd(500.0, "ec_hw_error", src=BLADE, detail="x")])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index)[0]
        assert rec.external_lead == pytest.approx(500.0)
        assert rec.enhanceable
        assert rec.enhancement_factor == pytest.approx(5.0)

    def test_precursor_must_precede_internal(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            erd(950.0, "ec_hw_error", src=BLADE, detail="x")])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index)[0]
        assert rec.external_lead is None

    def test_precursor_window_bound(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            erd(100.0, "ec_hw_error", src=BLADE, detail="x")])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index,
                                 precursor_window=600.0)[0]
        assert rec.external_lead is None

    def test_peer_nhf_not_a_precursor(self):
        """A blade peer's heartbeat fault must not leak lead time."""
        internal = [console(900.0, NODE, "oom_kill", pid=1, prog="a", score=9)]
        index = ExternalIndex.build([
            controller(500.0, BLADE, "nhf", node=PEER)])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index)[0]
        assert rec.external_lead is None

    def test_own_nvf_is_a_precursor(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            controller(600.0, BLADE, "nvf", node=NODE, rail="V", volts="0.7")])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index)[0]
        assert rec.external_lead == pytest.approx(400.0)

    def test_post_mortem_nhf_gives_no_lead(self):
        internal = [console(900.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            controller(1012.0, BLADE, "nhf", node=NODE)])
        rec = compute_lead_times([failure(1000.0, NODE)], internal, index)[0]
        assert rec.external_lead is None

    def test_no_internal_indicator(self):
        rec = compute_lead_times([failure(1000.0, NODE)], [],
                                 ExternalIndex.build([]))[0]
        assert rec.internal_lead is None
        assert not rec.enhanceable


class TestLeadTimeSummary:
    def _records(self):
        internal = [
            console(900.0, NODE, "mce", bank=1, status="ff"),
            console(WEEK + 900.0, PEER, "oom_kill", pid=1, prog="a", score=9),
        ]
        index = ExternalIndex.build([
            erd(500.0, "ec_hw_error", src=BLADE, detail="x")])
        failures = [failure(1000.0, NODE),
                    failure(WEEK + 1000.0, PEER, symptom="oom")]
        return compute_lead_times(failures, internal, index)

    def test_summary_numbers(self):
        summary = summarize_lead_times(self._records())
        assert summary.failures == 2
        assert summary.enhanceable == 1
        assert summary.enhanceable_fraction == pytest.approx(0.5)
        assert summary.mean_enhancement_factor == pytest.approx(5.0)
        assert summary.mean_internal_lead == pytest.approx(100.0)
        assert summary.mean_external_lead == pytest.approx(500.0)

    def test_weekly_fractions(self):
        weekly = weekly_enhanceable_fractions(self._records())
        assert weekly == {0: 1.0, 1: 0.0}

    def test_empty_summary(self):
        summary = summarize_lead_times([])
        assert summary.failures == 0
        assert summary.enhanceable_fraction == 0.0


class TestEpisodes:
    def test_clustering_by_gap(self):
        internal = [console(t, NODE, "mce", bank=1, status="ff")
                    for t in (0.0, 100.0, 5000.0)]
        episodes = build_episodes(internal, episode_gap=1800.0)
        assert len(episodes) == 2
        assert episodes[0].events == 2
        assert episodes[1].start == 5000.0

    def test_per_node_episodes(self):
        internal = sorted(
            [console(0.0, NODE, "mce", bank=1, status="ff"),
             console(10.0, PEER, "mce", bank=1, status="ff")],
            key=lambda r: r.time)
        assert len(build_episodes(internal)) == 2

    def test_non_indicative_ignored(self):
        internal = [console(0.0, NODE, "node_boot", version="v", gcc="g")]
        assert build_episodes(internal) == []


class TestFprComparison:
    def test_correlation_lowers_fpr(self):
        # two benign internal episodes (no failure), one with external
        # company; one true episode preceding a failure with external
        internal = sorted([
            console(100.0, NODE, "mce", bank=1, status="ff"),
            console(10_000.0, PEER, "mce", bank=1, status="ff"),
            console(20_000.0, "c0-0c1s0n0", "mce", bank=1, status="ff"),
        ], key=lambda r: r.time)
        index = ExternalIndex.build([
            erd(90.0, "ec_hw_error", src=BLADE, detail="x"),
        ])
        failures = [failure(200.0, NODE)]
        cmp = compare_fpr(internal, failures, index, horizon=HOUR)
        assert cmp.episodes == 3
        assert cmp.internal_alarms == 3
        assert cmp.internal_false == 2
        assert cmp.correlated_alarms == 1
        assert cmp.correlated_false == 0
        assert cmp.internal_fpr == pytest.approx(2 / 3)
        assert cmp.correlated_fpr == 0.0
        assert cmp.improved

    def test_correlated_false_positive_possible(self):
        internal = [console(100.0, NODE, "mce", bank=1, status="ff")]
        index = ExternalIndex.build([
            erd(90.0, "ec_hw_error", src=BLADE, detail="x")])
        cmp = compare_fpr(internal, [], index)
        assert cmp.correlated_alarms == 1
        assert cmp.correlated_fpr == 1.0
        assert not cmp.improved

    def test_empty_inputs(self):
        cmp = compare_fpr([], [], ExternalIndex.build([]))
        assert cmp.episodes == 0
        assert cmp.internal_fpr == 0.0
        assert cmp.correlated_fpr == 0.0


class TestSharedIndicativeTimes:
    """One pipeline groups the indicative internal times once for both
    analyses that start from them."""

    @staticmethod
    def count_builds(monkeypatch) -> list[int]:
        """Count every indicative-times build from here on."""
        import repro.core.falsepos as falsepos_mod
        import repro.core.leadtime as leadtime_mod
        import repro.core.pipeline as pipeline_mod

        calls: list[int] = []
        real = leadtime_mod.indicative_times_by_node

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (leadtime_mod, falsepos_mod, pipeline_mod):
            monkeypatch.setattr(module, "indicative_times_by_node", counting)
        return calls

    def test_one_build_per_run(self, diagnosed_scenario, monkeypatch):
        from repro.core.pipeline import HolisticDiagnosis

        _, _, store = diagnosed_scenario
        diagnosis = HolisticDiagnosis.from_store(store)
        calls = self.count_builds(monkeypatch)
        report = diagnosis.run()
        assert len(calls) == 1
        assert report.lead_time_records
        assert report.false_positives.episodes > 0
        # a second run reuses the pipeline's grouping
        diagnosis.run()
        assert len(calls) == 1

    def test_shared_grouping_equals_standalone_calls(self,
                                                     diagnosed_scenario):
        from repro.core.pipeline import HolisticDiagnosis

        _, _, store = diagnosed_scenario
        diagnosis = HolisticDiagnosis.from_store(store)
        report = diagnosis.run(only=["lead_times", "false_positives"])
        internal, failures = diagnosis.internal, diagnosis.failures
        index = diagnosis.index
        assert report.lead_time_records == compute_lead_times(
            failures, internal, index)
        assert report.false_positives == compare_fpr(
            internal, failures, index)
