#!/usr/bin/env bash
# Benchmark gate for the ingestion + analysis perf engine (PR 3).
#
# Runs the two perf-target benchmark files with pytest-benchmark and
# refreshes the "after" column of BENCH_pr3.json.  The "before" column
# is a committed baseline captured from the pre-PR revision; pass a
# pytest-benchmark JSON via BENCH_BEFORE to re-baseline (run the same
# two files from a worktree at the old revision):
#
#   scripts/run_bench.sh                      # refresh after numbers
#   BENCH_BEFORE=/tmp/old.json scripts/run_bench.sh   # re-baseline too
#
# Numbers are min-of-rounds in milliseconds; see docs/PERFORMANCE.md
# for how to read them.  The serial-vs-pool parse entries of
# BENCH_pr3.json are no longer refreshed: their benchmark went with the
# process pool, and the uncached read is timed as a BENCH_pr8.json
# baseline below.
#
# A second stanza runs the persistent parse-cache legs (PR 8,
# benchmarks/bench_cache.py) and refreshes the min_ms figures in
# BENCH_pr8.json; the uncached baselines there are timed inline so
# both columns always come from the same machine and run.
#
# test_pipeline_run_windowed (registry-era addition) has no pre-PR
# baseline by construction; compare it against test_full_pipeline_run
# to read the registry-dispatch + window-slicing overhead.  The batch
# number itself is the <3% regression gate vs the committed before_ms.
#
# A third stanza runs the service storm legs (PR 10,
# benchmarks/bench_serve.py: 1000 warm-cache clients + 200 cold
# coalesced clients over real sockets) and refreshes BENCH_pr10.json.
# Those legs gate themselves (warm p99 / hit-rate / exactly-one
# pipeline run), so a refresh that completes is also a passing gate.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}$PWD/src"

RAW="$(mktemp --suffix=.json)"
trap 'rm -f "$RAW"' EXIT

python -m pytest \
    benchmarks/bench_tolerant_parse.py \
    benchmarks/bench_full_pipeline.py \
    -q --benchmark-only --benchmark-json="$RAW"

python - "$RAW" <<'EOF'
import json
import os
import sys

OUT = "BENCH_pr3.json"


def mins(path):
    data = json.load(open(path))
    return {
        b["fullname"].split("/")[-1]: b["stats"]["min"] * 1000
        for b in data["benchmarks"]
    }


doc = json.load(open(OUT))
after = mins(sys.argv[1])
before_path = os.environ.get("BENCH_BEFORE")
before = mins(before_path) if before_path else None

for name, ms in sorted(after.items()):
    entry = doc["results"].setdefault(name, {"before_ms": None})
    if before is not None:
        entry["before_ms"] = round(before[name], 2)
    entry["after_ms"] = round(ms, 2)
    old = entry.get("before_ms")
    entry["speedup"] = round(old / ms, 2) if old else None

json.dump(doc, open(OUT, "w"), indent=2)
print(f"\n{OUT} updated:")
for name, entry in doc["results"].items():
    print(f"  {name}: {entry['before_ms']} -> {entry['after_ms']} ms "
          f"({entry['speedup']}x)")
EOF

RAW_CACHE="$(mktemp --suffix=.json)"
trap 'rm -f "$RAW" "$RAW_CACHE"' EXIT

python -m pytest \
    benchmarks/bench_cache.py \
    -q --benchmark-only --benchmark-json="$RAW_CACHE"

python - "$RAW_CACHE" <<'EOF'
import json
import sys
import time

OUT = "BENCH_pr8.json"

data = json.load(open(sys.argv[1]))
after = {
    b["fullname"].split("/")[-1]: b["stats"]["min"] * 1000
    for b in data["benchmarks"]
}

# uncached baselines, timed right here so both columns share a machine
from repro.core.pipeline import HolisticDiagnosis
from repro.experiments.scenarios import materialize

store = materialize("s3", seed=7)


def best(fn, rounds=5):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000)
    return min(times)


read_ms = best(store.read_all)
build_ms = best(lambda: HolisticDiagnosis.from_store(store))
base_for = {
    "test_cache_cold_populate": read_ms,
    "test_cache_warm_hit": read_ms,
    "test_cache_delta_ingest": read_ms,
    "test_cache_warm_construction": build_ms,
}

doc = json.load(open(OUT))
doc["baselines_ms"] = {
    # the uncached LogStore.read_all; the key keeps its original name so
    # the committed figures stay comparable
    "uncached_parallel_read": round(read_ms, 2),
    "uncached_pipeline_construction": round(build_ms, 2),
}
for name, ms in sorted(after.items()):
    entry = doc["results"].setdefault(name, {})
    entry["min_ms"] = round(ms, 2)
    leg = name.split("::")[-1]
    base = base_for.get(leg)
    if base:
        ratio = base / ms
        entry["vs_uncached"] = (f"{ratio:.2f}x faster" if ratio >= 1
                                else f"{1 / ratio:.2f}x slower")

json.dump(doc, open(OUT, "w"), indent=2)
print(f"\n{OUT} updated:")
for name, entry in doc["results"].items():
    print(f"  {name}: {entry['min_ms']} ms ({entry.get('vs_uncached')})")
EOF

RAW_SERVE="$(mktemp --suffix=.json)"
trap 'rm -f "$RAW" "$RAW_CACHE" "$RAW_SERVE"' EXIT

REPRO_BENCH_OUT="$RAW_SERVE" python -m pytest \
    benchmarks/bench_serve.py \
    -q -p no:cacheprovider

python - "$RAW_SERVE" <<'EOF'
import json
import sys

OUT = "BENCH_pr10.json"

figures = json.load(open(sys.argv[1]))
doc = json.load(open(OUT))
leg_for = {
    "warm_cache_storm": "bench_serve.py::test_serve_warm_cache_storm",
    "cold_coalesced_storm": "bench_serve.py::test_serve_cold_coalesced_storm",
}
for leg, name in leg_for.items():
    if leg in figures:
        doc["results"].setdefault(name, {}).update(figures[leg])

json.dump(doc, open(OUT, "w"), indent=2)
print(f"\n{OUT} updated:")
for name, entry in doc["results"].items():
    shown = {k: v for k, v in entry.items() if k != "note"}
    print(f"  {name}: {shown}")
EOF
