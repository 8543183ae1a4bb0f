"""Where warm pipeline construction goes, layer by layer.

    python3 perfbench/warm_construction.py > perfbench/results/warm_construction.json

BENCH_pr8 timed ``HolisticDiagnosis.from_store`` over a warm ``s3``
parse cache and put most of the time above the warm read (~124 ms) down
to "analysis" -- but ``from_store`` runs no analysis.  This script
repeats that measurement on the parity-golden ``s3`` (scenario seed 7):
:data:`ROUNDS` quiet constructions, then as many under the traced run's
wrappers, and prints as JSON the median self time of every layer per
construction (milliseconds), the untraced median and ``unattributed``.
``results/warm_construction.json`` holds a committed run.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import time

from common import WORK_ROOT, ensure_inputs, p50, require_source
from tracer import OpSpan, Recorder, install, layer_totals

#: constructions per phase
ROUNDS = 15


def main() -> None:
    require_source()
    from repro.core.pipeline import HolisticDiagnosis
    from repro.logs.cache import ParseCache
    from repro.logs.store import LogStore

    inputs = ensure_inputs(0)  # workload seed 0 is scenario seed 7
    store = inputs.stores["s3"]
    cache_dir = WORK_ROOT / "runs" / f"warm-construction-{os.getpid()}"

    def construct() -> float:
        begun = time.perf_counter()
        HolisticDiagnosis.from_store(LogStore(store),
                                     cache=ParseCache(cache_dir))
        return time.perf_counter() - begun

    try:
        construct()  # fills the cache: every later round is warm
        quiet = [construct() for _ in range(ROUNDS)]
        rec = Recorder()
        patches = install(rec)
        traced: dict[str, float] = {}
        try:
            for i in range(ROUNDS):
                with OpSpan(rec, f"round-{i}") as span:
                    traced[span.op] = construct()
        finally:
            patches.restore()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    per_layer: dict[str, list[float]] = {}
    unattributed = []
    for op, seconds in traced.items():
        totals = layer_totals(rec.spans, {op})
        for layer, own in totals.self_s.items():
            per_layer.setdefault(layer, []).append(own)
        unattributed.append(seconds - totals.attributed_s)
    report = {
        "what": "HolisticDiagnosis.from_store over a warm s3 parse cache",
        "store": f"s3-seed{inputs.seed}",
        "rounds": ROUNDS,
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "quiet_ms_p50": round(p50(quiet) * 1e3, 3),
        "traced_ms_p50": round(p50(list(traced.values())) * 1e3, 3),
        "layers_self_ms_p50": {
            layer: round(p50(values) * 1e3, 3)
            for layer, values in sorted(per_layer.items())},
        "unattributed_ms_p50": round(p50(unattributed) * 1e3, 3),
    }
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
