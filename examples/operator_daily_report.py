#!/usr/bin/env python
"""Operator daily report: the full Table V + Table VI experience.

Plays the five case studies of Table V into a production-like day, runs
the root-cause engine over the detected failures, and prints the
operator-facing artefacts: per-failure case narratives (internal
indicators / external indicators / inference) and the measured findings
with recommendations.

Run:  python examples/operator_daily_report.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import api
from repro.core.report import generate_findings, render_findings
from repro.core.rootcause import family_split
from repro.experiments.scenarios import materialize


def main() -> None:
    cache = Path(tempfile.mkdtemp(prefix="repro-operator-"))
    store = materialize("cases", seed=7, root=cache)
    diag = api.load_system(store.root)
    inferences = diag.compute("root_causes")

    print("=" * 72)
    print("NODE FAILURE CASE REPORT")
    print("=" * 72)
    for i, inf in enumerate(inferences, 1):
        flags = []
        if inf.fail_slow:
            flags.append("fail-slow")
        if inf.memory_related:
            flags.append("memory")
        if inf.job_id is not None:
            flags.append(f"job {inf.job_id}")
        print(f"\nCase {i}: node {inf.failure.node} "
              f"({inf.failure.mode.value}) "
              f"[{inf.family.value}/{inf.cause}"
              f"{', ' + ', '.join(flags) if flags else ''}] "
              f"confidence {inf.confidence:.0%}")
        print(f"  internal: {inf.internal_indicators}")
        print(f"  external: {inf.external_indicators}")
        print(f"  inference: {inf.inference}")

    split = family_split(inferences)
    print("\nfamily split: " + ", ".join(
        f"{family}={split[family]:.0%}"
        for family in ("hardware", "software", "application", "unknown")
        if split.get(family)))

    print("\n" + "=" * 72)
    print("FINDINGS AND RECOMMENDATIONS (measured, Table VI style)")
    print("=" * 72)
    report = diag.run()
    print(render_findings(generate_findings(report)))


if __name__ == "__main__":
    main()
