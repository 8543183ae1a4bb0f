"""Span nesting across the fork boundary (supervised campaign workers).

The cross-process contract: a worker forked under an open
``campaign.run`` span inherits that span as nesting context, records
its ``campaign.experiment`` spans in its own pid, ships them home over
the result pipe as an ``("obs", payload)`` message, and the supervisor
absorbs them -- so the merged trace shows one tree spanning both
processes.  Marked ``supervision`` (costs real worker spawns) like the
rest of the process-level suite.
"""

import os

import pytest

from repro.experiments.registry import ExperimentSpec
from repro.experiments.result import ExperimentResult
from repro.obs import ObsConfig, session
from repro.runtime import CampaignSupervisor, RetryPolicy, SupervisorConfig

supervision = pytest.mark.supervision


def spec(exp):
    def produce(seed):
        return ExperimentResult(exp, f"title {exp}",
                                {"seed": seed, "v": 1.5}, {"v": 1.0}, True)
    return ExperimentSpec(exp, None, produce)


def fast_config():
    return SupervisorConfig(
        deadline=5.0,
        heartbeat_interval=0.05,
        heartbeat_grace=5.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
        breaker_threshold=3,
    )


@supervision
def test_worker_spans_come_home_with_parent_linkage(tmp_path):
    specs = (spec("e1"), spec("e2"))
    with session(ObsConfig()) as recorder:
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=specs,
                                 config=fast_config())
        report = sup.run()
        spans = recorder.spans()
        snapshot = recorder.metrics.snapshot()

    assert report.exit_code() == 0

    run_spans = [s for s in spans if s.name == "campaign.run"]
    assert len(run_spans) == 1
    (run_span,) = run_spans
    assert run_span.pid == os.getpid()
    assert run_span.tags["seed"] == 7

    exp_spans = [s for s in spans if s.name == "campaign.experiment"]
    assert {s.tags["experiment"] for s in exp_spans} == {"e1", "e2"}
    for exp_span in exp_spans:
        # recorded inside a forked worker...
        assert exp_span.pid != os.getpid()
        assert exp_span.span_id.startswith(f"{exp_span.pid}-")
        assert exp_span.tags["attempt"] == 1
        # ...yet parent-linked across the process line to the
        # supervisor-side campaign.run span it forked under
        assert exp_span.parent_id == run_span.span_id

    # worker metrics merged parent-side alongside the lifecycle counters
    assert snapshot["counters"]["campaign.completed"] == 2


@supervision
def test_disabled_recorder_ships_no_obs_messages(tmp_path):
    from repro.obs import OBS

    sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=(spec("e1"),),
                             config=fast_config())
    report = sup.run()
    assert report.exit_code() == 0
    assert OBS.spans() == []
    assert OBS.metrics.snapshot()["counters"] == {}


@supervision
def test_forked_workers_ship_only_their_own_deltas(tmp_path):
    """Regression: a forked worker inherits the parent recorder's
    buffered finished spans and counter values wholesale.  Shipping
    that inherited state home again would double it parent-side --
    compounding with every worker forked later.  Workers must drop it
    at startup and report only their own deltas."""
    from repro.obs import OBS

    specs = (spec("e1"), spec("e2"), spec("e3"))
    with session(ObsConfig()) as recorder:
        # parent-side state buffered *before* any worker forks
        OBS.metrics.counter("parent.marker").inc()
        with OBS.span("parent.setup"):
            pass
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=specs,
                                 config=fast_config())
        report = sup.run()
        spans = recorder.spans()
        counters = recorder.metrics.snapshot()["counters"]

    assert report.exit_code() == 0
    # exactly once each, no matter how many workers forked after them
    assert counters["parent.marker"] == 1
    assert counters["campaign.completed"] == 3
    assert len([s for s in spans if s.name == "parent.setup"]) == 1
    assert len([s for s in spans if s.name == "campaign.experiment"]) == 3
