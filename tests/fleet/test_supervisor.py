"""Fleet supervision end-to-end: shards, self-healing, resume parity.

Small fleets (3-5 members, one simulated day) keep each test at
seconds scale while exercising the real machinery: forked shard
workers, checksum-validated artifacts, fault injection, and the
byte-identical resume contract.  Process-level tests are marked
``supervision`` alongside the campaign supervisor's.
"""

import json

import pytest

from repro.fleet import (
    FleetSpec,
    FleetSupervisor,
    ShardArtifactError,
    read_shard_artifact,
)
from repro.runtime import JournalError, RetryPolicy, SupervisorConfig
from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

supervision = pytest.mark.supervision

SPEC = FleetSpec(systems=3, days=1, seed=21)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One member-log cache shared by every fleet in the module."""
    return tmp_path_factory.mktemp("fleet-cache")


def fast_config(**overrides):
    defaults = dict(
        deadline=60.0,
        heartbeat_interval=0.05,
        heartbeat_grace=15.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
        breaker_threshold=3,
        max_workers=2,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def make_supervisor(root, cache_dir, spec=SPEC, **overrides):
    return FleetSupervisor(root, spec=spec,
                           config=fast_config(**overrides),
                           cache_root=cache_dir)


def install_plan(monkeypatch, tmp_path, faults):
    path = FaultPlan(faults).dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))


def events(supervisor, name):
    return [e for e in supervisor.journal.events() if e["event"] == name]


# ----------------------------------------------------------------------
@supervision
def test_clean_fleet_run(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.conserved
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert report.exit_code() == 0
    # every covered shard is backed by a validating on-disk artifact
    for member_id in SPEC.member_ids:
        artifact = read_shard_artifact(sup.journal.shard_path(member_id))
        assert artifact.report["system"] == member_id
    assert sup.journal.report_path.is_file()
    assert events(sup, "fleet-end")


@supervision
def test_worker_count_does_not_change_report_bytes(tmp_path, cache_dir):
    """The worker count is an execution detail: same bytes at 1 and 3."""
    one = make_supervisor(tmp_path / "one", cache_dir, max_workers=1)
    three = make_supervisor(tmp_path / "three", cache_dir, max_workers=3)
    one.run()
    three.run()
    assert (one.journal.report_path.read_bytes()
            == three.journal.report_path.read_bytes())


@supervision
def test_resume_is_byte_identical_and_lazy(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    before = sup.journal.report_path.read_bytes()
    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    report = resumed.run(resume=True)
    assert report.conserved
    assert resumed.journal.report_path.read_bytes() == before
    # nothing re-ran: no start events after the fleet-resume marker
    log = resumed.journal.events()
    marker = max(i for i, e in enumerate(log)
                 if e["event"] == "fleet-resume")
    assert not [e for e in log[marker:] if e["event"] == "start"]
    assert [o["system"] for o in report.systems] == SPEC.member_ids


@supervision
def test_resume_heals_rotted_artifact(tmp_path, cache_dir):
    """Bit rot between runs: detected by checksum, rebuilt, same bytes."""
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    before = sup.journal.report_path.read_bytes()
    victim = sup.journal.shard_path("sys-001")
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(ShardArtifactError):
        read_shard_artifact(victim)

    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    report = resumed.run(resume=True)
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert resumed.journal.report_path.read_bytes() == before
    read_shard_artifact(victim)  # healed in place
    assert events(resumed, "artifact-invalid")
    log = resumed.journal.events()
    marker = max(i for i, e in enumerate(log)
                 if e["event"] == "fleet-resume")
    restarted = [e["shard"] for e in log[marker:] if e["event"] == "start"]
    assert restarted == ["sys-001"]  # only the rotted shard re-ran


@supervision
def test_corrupt_artifact_fault_is_healed_in_run(tmp_path, cache_dir,
                                                 monkeypatch):
    """An injected post-write corruption costs an attempt, not coverage."""
    install_plan(monkeypatch, tmp_path, {
        "sys-000": [FaultSpec("corrupt_artifact", attempts=(1,),
                              mode="flip")],
    })
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert events(sup, "artifact-corrupted")
    assert events(sup, "artifact-invalid")
    complete = {e["shard"]: e for e in sup.journal.events()
                if e["event"] == "complete"}
    assert complete["sys-000"]["attempt"] == 2  # rebuilt on the retry


@supervision
def test_killed_shard_degrades_with_conserved_accounting(
        tmp_path, cache_dir, monkeypatch):
    install_plan(monkeypatch, tmp_path, {
        "sys-002": [FaultSpec("shard_kill", attempts=(1, 2, 3))],
    })
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.conserved
    assert report.coverage == {"fleet": 3, "covered": 2, "degraded": 1}
    assert report.exit_code() == 3
    entry, = report.degraded_systems
    assert entry["system"] == "sys-002"
    assert entry["status"] == "failed"
    assert "retries exhausted" in entry["reason"]
    assert entry["attempts"] == 3
    # the survivors' aggregates are intact
    assert report.total_failures == sum(e["failures"]
                                        for e in report.systems)

    # a resume gives the degraded shard a fresh budget and recovers it
    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    healed = resumed.run(resume=True)
    assert healed.coverage == {"fleet": 3, "covered": 3, "degraded": 0}


@supervision
def test_resume_with_different_shape_refuses(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    other = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(systems=4, days=1, seed=21))
    with pytest.raises(JournalError, match="cannot resume"):
        other.run(resume=True)


def test_fleet_report_json_round_trip(tmp_path, cache_dir):
    from repro.fleet import FleetReport

    sup = make_supervisor(tmp_path / "fleet", cache_dir, max_workers=1)
    report = sup.run()
    on_disk = json.loads(sup.journal.report_path.read_text())
    assert FleetReport.from_jsonable(on_disk).coverage == report.coverage
    assert on_disk == report.to_jsonable()


def test_shard_runner_pauses_the_collector_over_build_and_run(
        tmp_path, cache_dir, monkeypatch):
    """from_store and run share one collector pause in the shard body,
    as in api.diagnose: the collector is off when run() starts."""
    import gc

    from repro.core.pipeline import HolisticDiagnosis

    seen = []
    run = HolisticDiagnosis.run

    def spy(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return run(self, *args, **kwargs)

    monkeypatch.setattr(HolisticDiagnosis, "run", spy)
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    member_id = SPEC.member_ids[0]
    summary = sup._shard_runner(sup.journal, member_id, 0)(SPEC.seed)
    assert seen == [False]
    assert gc.isenabled()
    assert summary["system"] == member_id
    assert read_shard_artifact(sup.journal.shard_path(member_id))
