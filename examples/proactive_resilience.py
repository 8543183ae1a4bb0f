#!/usr/bin/env python
"""Proactive resilience: prediction -> checkpoint policy -> mitigation.

The paper's closing argument is that root-cause-aware proactive handling
beats blind checkpoint/restart.  This example runs the whole loop on one
simulated month:

1. an :class:`OnlinePredictor` streams the joint logs twice -- once
   internal-only, once requiring external correlation -- showing the
   precision/recall trade the paper motivates (Figs. 13/14);
2. a :class:`CheckpointAdvisor` converts the measured MTBF into a
   Young/Daly interval and quantifies the recomputation saved when the
   correlated predictor's warnings trigger extra checkpoints;
3. a :class:`MitigationAdvisor` assigns each diagnosed failure the
   root-cause-appropriate action (Table VI) instead of blanket
   quarantine.

Run:  python examples/proactive_resilience.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Campaign, Platform, api
from repro.core.pipeline import HolisticDiagnosis
from repro.core.checkpointing import CheckpointAdvisor
from repro.core.health import MitigationAdvisor
from repro.core.prediction import OnlinePredictor, PredictorConfig, evaluate
from repro.experiments.render import bar_chart

DAYS = 30


def simulate() -> HolisticDiagnosis:
    plat = Platform.build("S3", seed=21)
    camp = Campaign(plat)
    camp.poisson("mce_failstop", per_day=1.0, duration_days=DAYS,
                 params={"precursor": True})
    camp.poisson("mce_failstop", per_day=0.6, duration_days=DAYS)
    camp.poisson("app_exit_chain", per_day=1.2, duration_days=DAYS)
    camp.poisson("oom_chain", per_day=0.8, duration_days=DAYS,
                 params={"fail_prob": 1.0})
    camp.poisson("lustre_bug_chain", per_day=0.6, duration_days=DAYS)
    camp.poisson("nvf_chain", per_day=0.3, duration_days=DAYS)
    camp.poisson("mce_benign", per_day=1.2, duration_days=DAYS)
    camp.poisson("failslow_recovery", per_day=0.5, duration_days=DAYS)
    camp.poisson("bios_unknown_chain", per_day=0.1, duration_days=DAYS,
                 params={"fails": True})
    camp.daily_noise(DAYS, sedc_blades_per_day=8, noisy_cabinets_per_day=3)
    plat.run(days=DAYS + 1)
    root = Path(tempfile.mkdtemp(prefix="repro-proactive-"))
    plat.write_logs(root)
    return api.load_system(root)


def main() -> None:
    diag = simulate()
    stream = sorted(diag.internal + diag.external, key=lambda r: r.time)

    # 1. prediction, with and without external gating
    print("== prediction (2 h horizon) ==")
    for label, config in (
        ("internal-only", PredictorConfig()),
        ("ext-correlated", PredictorConfig(require_external=True)),
    ):
        predictor = OnlinePredictor(config)
        score = evaluate(predictor.observe_all(list(stream)), diag.failures)
        print(f"  {label:>14}: {score.alarms:4d} alarms, "
              f"precision {score.precision:5.1%}, recall {score.recall:5.1%}, "
              f"mean lead {score.mean_lead_time:5.0f}s")

    # 2. checkpoint policy from the measured failure process
    gated = OnlinePredictor(PredictorConfig(require_external=True))
    alarms = gated.observe_all(list(stream))
    # checkpoint cost must undercut the warning lead times to be usable
    plan = CheckpointAdvisor(diag.failures).plan(checkpoint_cost=120.0,
                                                 alarms=alarms)
    print("\n== checkpoint policy ==")
    print(f"  measured MTBF          : {plan.mtbf / 60:.1f} min")
    print(f"  Young/Daly interval    : {plan.interval / 60:.1f} min "
          f"(C = {plan.checkpoint_cost:.0f}s)")
    print(f"  waste, blind           : {plan.blind_waste_fraction:.1%}")
    print(f"  waste, with prediction : {plan.predicted_waste_fraction:.1%} "
          f"(recall {plan.prediction_recall:.0%}, "
          f"saves {plan.waste_reduction:.0%})")

    # 3. root-cause-aware mitigation instead of blanket quarantine
    inferences = diag.compute("root_causes")
    advisor = MitigationAdvisor()
    census = advisor.action_census(advisor.advise(inferences))
    print("\n== mitigation actions (Table VI) ==")
    print(bar_chart({a.value: float(n) for a, n in sorted(
        census.items(), key=lambda kv: -kv[1])}, fmt="{:.0f}"))
    sick = [h for h in advisor.node_health(inferences) if h.repeat_offender]
    print(f"\nrepeat-offender nodes (>=2 hardware failures): "
          f"{[h.node for h in sick] or 'none'}")


if __name__ == "__main__":
    main()
