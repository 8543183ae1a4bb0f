"""Robustness: the pipeline must survive damaged production logs.

The paper's challenge #1: production logs contain missing intervals and
partial information.  A log miner that crashes on a truncated line is
useless; these tests feed the pipeline deliberately damaged inputs.
"""

import random

import pytest

from repro.core.pipeline import HolisticDiagnosis
from repro.logs.health import IngestionHealth
from repro.logs.record import LogSource
from repro.logs.store import LogStore


@pytest.fixture()
def damaged_store(diagnosed_scenario, tmp_path):
    """A copy of the diagnosed scenario's store, ready to damage."""
    _, _, store = diagnosed_scenario
    import shutil
    dst = tmp_path / "damaged"
    shutil.copytree(store.root, dst)
    return LogStore(dst)


def _mangle(path, fraction, rng):
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        roll = rng.random()
        if roll < fraction / 3:
            continue  # dropped line
        if roll < 2 * fraction / 3:
            out.append(line[: max(1, len(line) // 2)])  # truncated
        elif roll < fraction:
            out.append("".join(rng.sample(list(line), len(line))))  # garbled
        else:
            out.append(line)
    path.write_text("\n".join(out) + "\n")


class TestDamagedLogs:
    def test_corrupted_lines_do_not_crash(self, damaged_store):
        rng = random.Random(3)
        for source in LogSource:
            path = damaged_store.path_for(source)
            if path.is_file() and path.stat().st_size:
                _mangle(path, fraction=0.3, rng=rng)
        diag = HolisticDiagnosis.from_store(damaged_store)
        report = diag.run()  # must not raise
        assert report.failure_count >= 0

    def test_most_failures_survive_mild_damage(self, diagnosed_scenario,
                                               damaged_store):
        plat, _, _clean = diagnosed_scenario
        rng = random.Random(5)
        _mangle(damaged_store.path_for(LogSource.CONSOLE), 0.10, rng)
        diag = HolisticDiagnosis.from_store(damaged_store)
        truth = len(plat.machine.ground_truth)
        # ~10 % line damage should not erase most failure markers
        assert len(diag.failures) >= truth * 0.5

    def test_missing_external_logs(self, damaged_store):
        """The paper had no environmental logs for S5 at all."""
        damaged_store.path_for(LogSource.CONTROLLER).unlink()
        damaged_store.path_for(LogSource.ERD).unlink()
        diag = HolisticDiagnosis.from_store(damaged_store)
        report = diag.run()
        assert report.failure_count > 0
        assert report.lead_times.enhanceable == 0  # no external stream
        assert report.nvf_correspondence == []

    def test_missing_scheduler_log(self, damaged_store):
        damaged_store.path_for(LogSource.SCHEDULER).unlink()
        report = HolisticDiagnosis.from_store(damaged_store).run()
        assert report.job_census["jobs"] == 0
        assert report.same_job_groups == []

    def test_missing_sources_come_from_the_reads_listing(self,
                                                         damaged_store):
        for source in (LogSource.MESSAGES, LogSource.SCHEDULER):
            damaged_store.path_for(source).unlink()
        listed = [s for s in LogSource if not damaged_store.source_files(s)]
        assert listed == [LogSource.MESSAGES, LogSource.SCHEDULER]
        supplied = IngestionHealth()
        own = HolisticDiagnosis.from_store(damaged_store)
        given = HolisticDiagnosis.from_store(damaged_store, health=supplied)
        assert own.missing_sources == given.missing_sources == listed
        assert supplied.missing_sources() == listed
        assert own.degradation() == given.degradation()

    def test_empty_store_yields_empty_report(self, tmp_path):
        from repro.logs.record import LogBus
        from repro.simul.clock import SimClock
        store = LogStore(tmp_path / "empty")
        store.write(LogBus(), SimClock(), system="S1", seed=0,
                    duration_seconds=0.0)
        report = HolisticDiagnosis.from_store(store).run()
        assert report.failure_count == 0
        assert report.category_breakdown == {}
        assert report.family_split == {}

    def test_shuffled_internal_lines(self, damaged_store):
        """Out-of-order lines (multi-source merges) must still work:
        read_internal re-sorts by timestamp."""
        path = damaged_store.path_for(LogSource.CONSOLE)
        lines = path.read_text().splitlines()
        random.Random(7).shuffle(lines)
        path.write_text("\n".join(lines) + "\n")
        diag = HolisticDiagnosis.from_store(damaged_store)
        assert len(diag.failures) > 0
        times = [r.time for r in diag.internal]
        assert times == sorted(times)
