"""Tests for error-population analysis and job-log analysis."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import error_populations, mean_cpu_temperature
from repro.core.external import ExternalIndex
from repro.core.jobs import (
    JobView,
    exit_census,
    job_failure_correlation,
    overallocation_report,
    parse_jobs,
    same_job_locality,
)
from repro.core.rootcause import RootCauseEngine
from repro.simul.clock import DAY, HOUR

from tests.core.helpers import console, erd, failure, sched

N0, N1, N2 = "c0-0c0s0n0", "c0-0c0s0n1", "c0-0c1s3n0"


class TestErrorPopulations:
    def test_distinct_nodes_per_class(self):
        records = [
            console(10.0, N0, "mce", bank=1, status="ff"),
            console(20.0, N0, "mce", bank=1, status="ff"),  # same node
            console(30.0, N1, "ecc_corrected", mc=0, count=1, dimm="D"),
            console(40.0, N2, "lustre_io_error", fs="s", target="o"),
            console(50.0, N2, "page_fault_lock", fs="l", ms=100),
        ]
        pops = error_populations(records, [failure(60.0, N0)], days=1)
        day0 = pops[0]
        assert day0.mce_nodes == 1
        assert day0.hw_error_nodes == 1
        assert day0.lustre_io_nodes == 1
        assert day0.page_fault_nodes == 1
        assert day0.failed_nodes == 1

    def test_days_split(self):
        records = [console(10.0, N0, "mce", bank=1, status="ff"),
                   console(DAY + 10.0, N1, "mce", bank=1, status="ff")]
        pops = error_populations(records, [], days=2)
        assert [p.mce_nodes for p in pops] == [1, 1]

    def test_beyond_horizon_ignored(self):
        records = [console(5 * DAY, N0, "mce", bank=1, status="ff")]
        pops = error_populations(records, [], days=2)
        assert all(p.mce_nodes == 0 for p in pops)

    def test_days_validation(self):
        with pytest.raises(ValueError):
            error_populations([], [], days=0)


class TestMeanTemperature:
    def test_per_sensor_mean(self):
        records = [
            erd(100.0, "ec_sedc_data", src="c0-0c0s0", sensor="BC_T_NODE0_CPU",
                value="40.0"),
            erd(200.0, "ec_sedc_data", src="c0-0c0s0", sensor="BC_T_NODE0_CPU",
                value="42.0"),
            erd(300.0, "ec_sedc_data", src="c0-0c0s0", sensor="BC_T_NODE1_CPU",
                value="0.0"),
        ]
        temps = mean_cpu_temperature(records, day=0)
        assert temps["c0-0c0s0/BC_T_NODE0_CPU"] == pytest.approx(41.0)
        assert temps["c0-0c0s0/BC_T_NODE1_CPU"] == 0.0

    def test_day_and_prefix_filters(self):
        records = [
            erd(DAY + 10.0, "ec_sedc_data", src="b", sensor="BC_T_NODE0_CPU",
                value="40.0"),
            erd(10.0, "ec_sedc_data", src="b", sensor="CC_T_CAB_AIR_IN",
                value="21.0"),
        ]
        assert mean_cpu_temperature(records, day=0) == {}


def job_records(job=1, nodes=(N0, N1), start=100.0, end=1000.0, code=0,
                app="vasp"):
    return [
        sched(start - 10.0, "slurm_submit", job=job, prio=1, usec=1),
        sched(start, "slurm_start", job=job, nodes=",".join(nodes),
              cpus=64, user="u1", app=app),
        sched(end, "slurm_complete", job=job, code=code),
    ]


class TestParseJobs:
    def test_any_event_with_a_job_creates_the_job(self):
        jobs = parse_jobs([sched(5.0, "slurm_epilog", job=4),
                           sched(6.0, None, job=5)])
        assert list(jobs) == [4]
        assert jobs[4].start_time is None and jobs[4].nodes == []

    def test_lifecycle_reconstruction(self):
        jobs = parse_jobs(job_records())
        jv = jobs[1]
        assert jv.submit_time == pytest.approx(90.0)
        assert jv.start_time == pytest.approx(100.0)
        assert jv.end_time == pytest.approx(1000.0)
        assert jv.exit_code == 0 and jv.succeeded
        assert jv.nodes == [N0, N1]
        assert jv.app == "vasp"

    def test_torque_dialect_parsed(self):
        records = [
            sched(1.0, "torque_submit", job=5),
            sched(2.0, "torque_start", job=5, nodes=N0, cpus=32, user="u",
                  app="a"),
            sched(3.0, "torque_complete", job=5, code=1),
        ]
        jv = parse_jobs(records)[5]
        assert jv.exit_code == 1 and not jv.succeeded

    def test_flags(self):
        records = job_records(code=-15) + [
            sched(500.0, "slurm_cancel", job=1, uid=1),
            sched(600.0, "slurm_timeout", job=1),
            sched(700.0, "slurm_mem_exceeded", job=1, used=10, limit=5),
            sched(800.0, "slurm_requeue", job=1, node=N0),
        ]
        jv = parse_jobs(sorted(records, key=lambda r: r.time))[1]
        assert jv.cancelled and jv.timed_out and jv.mem_exceeded
        assert jv.requeued_for_nodes == [N0]
        assert jv.config_error and not jv.failed_other

    def test_held_node_at(self):
        jv = parse_jobs(job_records())[1]
        assert jv.held_node_at(N0, 500.0)
        assert not jv.held_node_at(N2, 500.0)
        assert not jv.held_node_at(N0, 2000.0)
        assert jv.held_node_at(N0, 1500.0, grace=600.0)


class TestExitCensus:
    def test_fractions(self):
        records = (job_records(1, code=0) + job_records(2, code=0)
                   + job_records(3, code=1)
                   + job_records(4, code=-15)
                   + [sched(999.0, "slurm_cancel", job=4, uid=1)])
        census = exit_census(parse_jobs(sorted(records, key=lambda r: r.time)))
        assert census["jobs"] == 4
        assert census["success_frac"] == pytest.approx(0.5)
        assert census["nonzero_exit_frac"] == pytest.approx(0.5)
        assert census["config_error_frac"] == pytest.approx(0.25)
        assert census["other_failure_frac"] == pytest.approx(0.25)

    def test_day_filter(self):
        records = job_records(1) + job_records(2, start=DAY + 100.0,
                                               end=DAY + 500.0)
        census = exit_census(parse_jobs(sorted(records, key=lambda r: r.time)),
                             day=1)
        assert census["jobs"] == 1

    def test_empty(self):
        assert exit_census({})["jobs"] == 0


class TestCorrelation:
    def test_failure_during_job(self):
        jobs = parse_jobs(job_records())
        correlated = job_failure_correlation(jobs, [failure(500.0, N0)])
        assert 1 in correlated and len(correlated[1]) == 1

    def test_failure_after_grace_not_correlated(self):
        jobs = parse_jobs(job_records(end=1000.0))
        correlated = job_failure_correlation(jobs, [failure(3000.0, N0)],
                                             grace=60.0)
        assert correlated == {}

    def test_later_job_wins_tie(self):
        records = job_records(1, start=0.0, end=2000.0) + job_records(
            2, start=900.0, end=2000.0)
        jobs = parse_jobs(sorted(records, key=lambda r: r.time))
        correlated = job_failure_correlation(jobs, [failure(1000.0, N0)])
        assert list(correlated) == [2]

    def test_same_job_locality(self):
        jobs = parse_jobs(job_records(1, nodes=(N0, N2)))
        groups = same_job_locality(
            jobs, [failure(500.0, N0), failure(560.0, N2)])
        assert len(groups) == 1
        g = groups[0]
        assert g["failures"] == 2
        assert g["distinct_blades"] == 2
        assert g["spatially_distant"]
        assert g["span_seconds"] == pytest.approx(60.0)

    def test_locality_span_filter(self):
        jobs = parse_jobs(job_records(1, end=8000.0))
        groups = same_job_locality(
            jobs, [failure(500.0, N0), failure(7000.0, N1)], max_span=1800.0)
        assert groups == []


# ---------------------------------------------------------------------------
# the job-holder table against the brute-force rule it replaced
# ---------------------------------------------------------------------------
def brute_holder(jobs, node, t, grace):
    """Every job that held ``node`` at ``t``, latest start winning; the
    first in ``jobs`` order on equal starts (what ``max`` returns)."""
    holders = [jv for jv in jobs.values()
               if jv.held_node_at(node, t, grace=grace)]
    if not holders:
        return None
    return max(holders, key=lambda jv: jv.start_time or 0.0)


def brute_correlation(jobs, failures, grace):
    out = defaultdict(list)
    for f in failures:
        holder = brute_holder(jobs, f.node, f.time, grace)
        if holder is not None:
            out[holder.job_id].append(f)
    return dict(out)


POOL = (N0, N1, N2)
#: few distinct starts, so equal starts and overlapping spans are common
starts = st.none() | st.sampled_from([0.0, -0.0, 100.0, 250.0, 1000.0])
ends = st.none() | st.sampled_from([0.0, 50.0, 100.0, 300.0, 1000.0, 4000.0])


@st.composite
def job_sets(draw):
    """Jobs in a shuffled id order: unstarted (no start), unfinished (no
    end), ended before they started, and nodes listed twice."""
    count = draw(st.integers(0, 8))
    ids = draw(st.permutations(range(1, count + 1)))
    jobs = {}
    for job_id in ids:
        jobs[job_id] = JobView(
            job_id=job_id,
            start_time=draw(starts),
            end_time=draw(ends),
            nodes=draw(st.lists(st.sampled_from(POOL), max_size=4)),
            app="app",
        )
    return jobs


@st.composite
def failure_sets(draw, jobs, grace):
    """Failures before, inside, at the grace edge of and after spans."""
    edges = [-1.0, 0.0, 5000.0]
    for jv in jobs.values():
        for base in (jv.start_time, jv.end_time):
            if base is not None:
                edges += [base - 1.0, base, base + 1.0]
        if jv.end_time is not None:
            for edge in (jv.end_time + grace, jv.end_time + 900.0):
                edges += [edge - 0.5, edge, edge + 0.5]
    times = st.sampled_from(edges) | st.floats(-100.0, 6000.0)
    return [failure(draw(times), draw(st.sampled_from(POOL)))
            for _ in range(draw(st.integers(0, 12)))]


class TestHolderTable:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_correlation_matches_brute_force(self, data):
        jobs = data.draw(job_sets())
        grace = data.draw(st.sampled_from([0.0, 60.0, 900.0]))
        failures = data.draw(failure_sets(jobs, grace))
        got = job_failure_correlation(jobs, failures, grace=grace)
        assert list(got.items()) == list(
            brute_correlation(jobs, failures, grace).items())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_root_cause_holder_matches_brute_force(self, data):
        jobs = data.draw(job_sets())
        failures = data.draw(failure_sets(jobs, 900.0))
        engine = RootCauseEngine(ExternalIndex(), {}, jobs)
        for f in failures:
            assert engine._holding_job(f) is brute_holder(
                jobs, f.node, f.time, 900.0)


class TestOverallocation:
    def test_report_rows(self):
        records = (job_records(1)
                   + [sched(200.0, "slurm_mem_exceeded", job=1, used=9, limit=5)])
        jobs = parse_jobs(sorted(records, key=lambda r: r.time))
        rows = overallocation_report(jobs, [failure(500.0, N0)])
        assert rows == [{
            "job_id": 1, "allocated_nodes": 2, "overallocated_nodes": 2,
            "failed_nodes": 1,
        }]

    def test_non_overalloc_excluded(self):
        jobs = parse_jobs(job_records())
        assert overallocation_report(jobs, []) == []
