"""Integration tests: simulator -> text logs -> full pipeline.

These are the honest end-to-end checks: the pipeline sees only the
written log files, and its conclusions are validated against the
simulator's private ground truth.
"""

import threading

import pytest

from repro.core.failure_detection import FailureMode
from repro.core.pipeline import DiagnosisReport, HolisticDiagnosis
from repro.faults.model import FailureCategory


@pytest.fixture(scope="module")
def report_and_truth(diagnosed_scenario):
    plat, camp, store = diagnosed_scenario
    diag = HolisticDiagnosis.from_store(store)
    return diag, diag.run(), plat, camp


class TestDetectionAgainstGroundTruth:
    def test_every_ground_truth_failure_detected(self, report_and_truth):
        diag, report, plat, _ = report_and_truth
        truth = {(g.node.cname) for g in plat.machine.ground_truth}
        detected = {f.node for f in report.failures}
        assert truth <= detected

    def test_no_phantom_failures(self, report_and_truth):
        """Every detected failure corresponds to a real one (node+time)."""
        diag, report, plat, _ = report_and_truth
        truth_times = {}
        for g in plat.machine.ground_truth:
            truth_times.setdefault(g.node.cname, []).append(g.time)
        for f in report.failures:
            times = truth_times.get(f.node, [])
            assert any(abs(f.time - t) < 700.0 for t in times), (
                f"phantom failure {f.node}@{f.time}"
            )

    def test_failure_count_matches(self, report_and_truth):
        _, report, plat, _ = report_and_truth
        assert report.failure_count == len(plat.machine.ground_truth)

    def test_admindown_mode_recovered(self, report_and_truth):
        _, report, plat, _ = report_and_truth
        truth_admindown = {g.node.cname for g in plat.machine.ground_truth
                           if "admindown" in g.cause}
        detected_admindown = {f.node for f in report.failures
                              if f.mode is FailureMode.ADMINDOWN}
        assert truth_admindown <= detected_admindown


class TestLeadTimesAgainstLedger:
    def test_enhanceable_failures_are_precursor_chains(self, report_and_truth):
        _, report, plat, camp = report_and_truth
        precursor_nodes = {
            i.node.cname for i in camp.ledger
            if i.chain == "mce_failstop" and i.failed
            and i.external_first is not None
            and i.external_first < i.internal_first
        }
        enhanced_nodes = {r.node for r in report.lead_time_records
                          if r.enhanceable}
        # every truly fail-slow node the pipeline enhanced is justified
        assert enhanced_nodes <= precursor_nodes | set()
        # and it found most of them
        if precursor_nodes:
            assert len(enhanced_nodes & precursor_nodes) >= len(precursor_nodes) // 2

    def test_enhancement_factor_matches_injected_structure(self, report_and_truth):
        _, report, _, _ = report_and_truth
        if report.lead_times.enhanceable:
            assert report.lead_times.mean_enhancement_factor > 2.0


class TestReportShape:
    def test_report_type_and_sections(self, report_and_truth):
        _, report, _, _ = report_and_truth
        assert isinstance(report, DiagnosisReport)
        assert report.weekly_inter_failure
        assert report.dominance
        assert isinstance(report.job_census, dict)
        assert report.root_causes
        assert len(report.root_causes) == report.failure_count

    def test_category_breakdown_sums_to_one(self, report_and_truth):
        _, report, _, _ = report_and_truth
        total = sum(report.category_breakdown.values())
        assert total == pytest.approx(1.0)
        assert FailureCategory.APP_EXIT in report.category_breakdown

    def test_family_split_covers_failures(self, report_and_truth):
        _, report, _, _ = report_and_truth
        families = ("hardware", "software", "filesystem", "application",
                    "environment", "unknown")
        assert sum(report.family_split[f] for f in families) == pytest.approx(1.0)

    def test_nvf_correspondence_strong(self, report_and_truth):
        _, report, _, _ = report_and_truth
        total = sum(s.faults for s in report.nvf_correspondence)
        hits = sum(s.corresponding for s in report.nvf_correspondence)
        assert total > 0
        assert hits / total >= 0.5

    def test_duration_days(self, report_and_truth):
        diag, _, _, _ = report_and_truth
        assert diag.duration_days() >= 3


class TestConstruction:
    def test_from_store_equals_manual(self, diagnosed_scenario):
        _, _, store = diagnosed_scenario
        a = HolisticDiagnosis.from_store(store)
        clock = store.manifest().clock()
        b = HolisticDiagnosis(
            internal=store.read_internal(clock),
            external=store.read_external(clock),
            scheduler=store.read_scheduler(clock),
        )
        assert len(a.failures) == len(b.failures)
        assert len(a.internal) == len(b.internal)


#: derived table -> (owner, builder name) of the call that builds it,
#: every owner reached by its name in ``repro.core.pipeline``
TABLE_BUILDERS = {
    "records": ("RecordIndex", "build"),
    "index": ("ExternalIndex", "from_stream"),
    "candidates": ("FailureDetector", "detect"),
    "accounting": (None, "exclude_intended"),
    "failure_times": (None, "failure_times_by_node"),
    "failures_by_day": ("FailureDetector", "failures_by_day"),
    "jobs": (None, "parse_jobs"),
    "node_traces": (None, "traces_by_node"),
    "job_holders": (None, "JobHolders"),
    "indicative_times": (None, "indicative_times_by_node"),
}


class TestDerivedTables:
    """Each derived table is built once, on first read, under its own
    span, and only when something reads it."""

    @staticmethod
    def spy(monkeypatch) -> dict[str, int]:
        """Count every builder call from here on, per table."""
        import repro.core.pipeline as pipeline_mod

        calls = dict.fromkeys(TABLE_BUILDERS, 0)
        for table, (owner_name, attr) in TABLE_BUILDERS.items():
            owner = (pipeline_mod if owner_name is None
                     else getattr(pipeline_mod, owner_name))
            raw = owner.__dict__[attr]
            real = raw.__func__ if isinstance(
                raw, (classmethod, staticmethod)) else raw

            def counting(*args, _table=table, _real=real, **kwargs):
                calls[_table] += 1
                return _real(*args, **kwargs)

            if isinstance(raw, (classmethod, staticmethod)):
                counting = type(raw)(counting)
            monkeypatch.setattr(owner, attr, counting)
        return calls

    def test_from_store_builds_nothing(self, diagnosed_scenario,
                                       monkeypatch):
        _, _, store = diagnosed_scenario
        calls = self.spy(monkeypatch)
        HolisticDiagnosis.from_store(store)
        assert set(calls.values()) == {0}

    def test_each_table_built_once(self, diagnosed_scenario, monkeypatch):
        _, _, store = diagnosed_scenario
        calls = self.spy(monkeypatch)
        diag = HolisticDiagnosis.from_store(store)
        first = diag.run()
        assert calls == dict.fromkeys(TABLE_BUILDERS, 1)
        second = diag.run()
        assert calls == dict.fromkeys(TABLE_BUILDERS, 1)
        assert second.failures is first.failures
        assert diag.node_traces is diag.node_traces

    def test_only_builds_what_it_reads(self, diagnosed_scenario,
                                       monkeypatch):
        _, _, store = diagnosed_scenario
        calls = self.spy(monkeypatch)
        diag = HolisticDiagnosis.from_store(store)
        report = diag.run(only=["weekly_inter_failure"])
        assert report.weekly_inter_failure
        for table in ("jobs", "node_traces", "job_holders",
                      "indicative_times", "failure_times",
                      "failures_by_day"):
            assert calls[table] == 0, table
        for table in ("records", "index", "candidates", "accounting"):
            assert calls[table] == 1, table

    def test_one_span_per_table_under_run(self, diagnosed_scenario):
        from repro.obs import chrome_trace, session, validate_chrome_trace

        _, _, store = diagnosed_scenario
        with session() as obs:
            diag = HolisticDiagnosis.from_store(store)
            diag.run()
            diag.run()
            spans = obs.spans()
        by_id = {span.span_id: span for span in spans}
        (run, _) = [span for span in spans if span.name == "pipeline.run"]

        def under_run(span) -> bool:
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span is run:
                    return True
            return False

        names = [span.name for span in spans]
        tables = {"core.index", "core.external", "core.detect",
                  "core.accounting", "core.jobs", "core.failure_times",
                  "core.failures_by_day", "core.node_traces",
                  "core.job_holders", "core.indicative_times"}
        for name in tables:
            (span,) = [s for s in spans if s.name == name]
            assert span.category == "pipeline"
            assert under_run(span), name
        assert not {n for n in names if n.startswith("core.")} - tables
        (index,) = [s for s in spans if s.name == "core.index"]
        assert index.tags["records"] == (
            len(diag.internal) + len(diag.external) + len(diag.scheduler))
        (accounting,) = [s for s in spans if s.name == "core.accounting"]
        assert accounting.tags["failures"] == len(diag.failures)
        assert validate_chrome_trace(chrome_trace(spans)) == []

    def test_builder_error_propagates_from_run(self, diagnosed_scenario,
                                               monkeypatch):
        import repro.core.pipeline as pipeline_mod

        _, _, store = diagnosed_scenario
        diag = HolisticDiagnosis.from_store(store)

        def broken(scheduler):
            raise RuntimeError("job table unavailable")

        monkeypatch.setattr(pipeline_mod, "parse_jobs", broken)
        with pytest.raises(RuntimeError, match="job table unavailable"):
            diag.run()

    def test_pipelines_build_one_table_concurrently(self, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        first = HolisticDiagnosis([], [], [])
        second = HolisticDiagnosis([], [], [])
        entered = threading.Event()
        released = threading.Event()
        waited = []

        def parse_jobs(scheduler):
            # the first pipeline's build waits for the second's, which
            # only a build not held back by the first can reach
            if scheduler is first.scheduler:
                entered.set()
                waited.append(released.wait(timeout=5))
            else:
                released.set()
            return {}

        monkeypatch.setattr(pipeline_mod, "parse_jobs", parse_jobs)
        reader = threading.Thread(target=lambda: first.jobs)
        reader.start()
        assert entered.wait(timeout=5)
        other = threading.Thread(target=lambda: second.jobs)
        other.start()
        other.join(timeout=10)
        reader.join(timeout=10)
        assert waited == [True]
        assert first.jobs == second.jobs == {}


class TestAnalysisMemo:
    """``run()`` shares its real results with ``compute()``."""

    @staticmethod
    def spy_infer_all(monkeypatch) -> list:
        from repro.core.rootcause import RootCauseEngine

        calls = []
        real = RootCauseEngine.infer_all

        def infer_all(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RootCauseEngine, "infer_all", infer_all)
        return calls

    def test_compute_after_run_infers_root_causes_once(
            self, diagnosed_scenario, monkeypatch):
        _, _, store = diagnosed_scenario
        calls = self.spy_infer_all(monkeypatch)
        diag = HolisticDiagnosis.from_store(store)
        report = diag.run()
        assert diag.compute("root_causes") is report.root_causes
        assert len(calls) == 1

    def test_neutral_results_stay_out_of_the_memo(self, diagnosed_scenario,
                                                  monkeypatch):
        import dataclasses

        from repro.core.analysis import REGISTRY

        _, _, store = diagnosed_scenario
        diag = HolisticDiagnosis.from_store(store)
        diag.run(only=["weekly_inter_failure"])
        assert "weekly_inter_failure" in diag._analysis_cache
        assert "root_causes" not in diag._analysis_cache
        # a failed analysis, and one fed its neutral result, leave no entry

        def boom(*args):
            raise RuntimeError("dominance unavailable")

        monkeypatch.setitem(REGISTRY._specs, "dominance", dataclasses.replace(
            REGISTRY.get("dominance"), compute=boom))
        broken = HolisticDiagnosis.from_store(store)
        report = broken.run()
        assert set(report.analysis_errors) == {"dominance"}
        assert "dominance_summary" not in broken._analysis_cache
        assert "root_causes" in broken._analysis_cache
        with pytest.raises(RuntimeError, match="dominance unavailable"):
            broken.compute("dominance_summary")
