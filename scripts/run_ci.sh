#!/usr/bin/env bash
# Full local CI: every gate the repo defines, in escalating order.
#
#   1. tier-1: the default pytest run (fast unit + integration tests;
#      chaos-marked tests excluded via pyproject addopts)
#   2. supervision smoke: the process-level supervisor tests alone, as
#      a focused re-run (they are part of tier-1 too; this isolates
#      worker/fork behaviour when debugging an environment): the
#      campaign supervisor and its scheduler (tests/runtime), fleets at
#      max_workers 1..3 (tests/fleet/test_supervisor.py) and spans across
#      the fork boundary (tests/obs/test_fork_boundary.py) -- one
#      scheduler runs them all; then the span-context cases beside it
#      (tests/obs/test_recorder.py::TestSpanContext: a fresh thread
#      starts as a root, interleaved asyncio tasks nest independently)
#      and the torn-tail resumes: each journal (campaign, fleet, watch
#      checkpoint) cuts a crash-torn final line at replay, so a second
#      resume replays cleanly (tests/runtime/test_journal.py::
#      TestTornTailResume, and a campaign resumed twice,
#      tests/runtime/test_supervisor.py::TestResume)
#   3. streaming smoke: a real `repro watch` subprocess (the CLI drives
#      api.watch) tails a live directory, alerts on a fed increment, and
#      finalizes cleanly on SIGTERM (tests/stream/test_cli_smoke.py,
#      -m streaming); then the poll-cost gate (a poll's stat, listing
#      and open calls do not grow with finalized history;
#      tests/stream/test_tailer.py::TestPollCost) and the file-selection
#      definition it rests on (LogStore.source_files against the former
#      two-glob definition; tests/logs/test_store.py::TestSourceFiles);
#      then the torn-tail resumes of a watch: a checkpoint and alert file
#      torn at a kill, resumed twice, still finalize to the batch digest
#      (tests/stream/test_daemon.py::TestTornCheckpoint), and a torn
#      alert line is cut and re-emitted whole
#      (tests/stream/test_alerts.py::TestResume);
#      the streamed-vs-batch replay-parity and SIGKILL-resume gates run
#      in the chaos tier below (tests/chaos/test_stream_chaos.py)
#   4. parity gate: the registry-driver report must stay byte-identical
#      (canonical JSON) to the committed pre-refactor goldens on s1-s5,
#      and one full-span window must equal the batch run (windowed
#      consistency); see tests/core/test_parity_gate.py -- including
#      the cache-transparency legs (cached, warm, post-corruption runs
#      must hash identically to the uncached goldens).  The encoder
#      oracle (tests/core/test_serialize.py: the compiled canonical
#      encoder against the original walker on generated values,
#      evidence records included, which take the record plan) and the
#      committed goldens together are the byte contract; then, by name,
#      the record plan's identity memo (a record reached twice is
#      encoded once, tests/core/test_serialize.py::TestAliasing::
#      test_shared_record_is_encoded_once), the job-holder table
#      against the brute-force holder rule it replaced
#      (tests/core/test_errors_jobs.py::TestHolderTable) and the
#      pipeline's derived tables, each built once, on first read, under
#      its own span, and not at all when no selected analysis reads it
#      (tests/core/test_pipeline.py::TestDerivedTables)
#   5. parse-cache warm-run smoke: focused re-run of the delta-only
#      ingest properties of LogStore reads (a warm read parses zero
#      files, a changed dir parses only the delta;
#      tests/logs/test_cache.py::TestDeltaOnlyIngest) and of appended
#      files (a grown file parses only its new lines, and cached ==
#      uncached across append, rotation, copytruncate, gzip, vanish
#      and torn tails; tests/logs/test_cache.py::TestAppendDelta) and of
#      the entry's shared strings (one object per distinct string in a
#      fresh entry, while unshared and delta-written entries still load;
#      tests/logs/test_cache.py::TestSharedStrings) and the differential
#      oracle they rest on (the columnar file parse, cut into 3-line
#      blocks, equals the per-line parse_ex loop field by field, stamps
#      by their bits; records with equal tails share one attrs dict and
#      body; tests/logs/test_line_table.py), the pipeline's table memo
#      (two pipelines build one table at once:
#      tests/core/test_pipeline.py::TestDerivedTables::
#      test_pipelines_build_one_table_concurrently) and run()'s results
#      shared with compute() (tests/core/test_pipeline.py::
#      TestAnalysisMemo), plus the entry-validation regressions
#      (tests/logs/test_cache.py) and the collector-pause contract
#      (tests/core/test_gc_pause.py)
#   6. BG/Q dialect smoke: the bgq-ras platform catalog end-to-end
#      (scenario -> store -> cached ingest -> report) plus dialect
#      sniffing and per-catalog cache isolation
#      (tests/logs/test_catalogs.py; see docs/PLATFORMS.md)
#   7. serve smoke: a real `repro serve` subprocess (the CLI drives
#      api.serve, whose announce line carries the bound port) answers
#      POST /v1/diagnose twice (second answer must be a byte-identical
#      cache hit), reports honest counters on /v1/health, and drains
#      cleanly on SIGTERM (tests/serve/test_cli_smoke.py, -m serve);
#      plus the report-cache key: the fingerprint stats exactly the
#      files the store lists for a diagnosis, and a store whose source
#      directories are symlinks answers an append with a fresh miss
#      (TestLogdirFingerprint, the symlinked-store service test); the
#      in-process coalescing/quota/drain matrix is tier-1
#      (tests/serve/)
#   8. tier-2 chaos gate: corruption + supervision campaigns and the
#      overhead benchmarks (scripts/run_chaos.sh)
#   9. fleet chaos gate: shard_kill + corrupt_artifact on a fleet plus
#      driver SIGKILL/--resume byte-parity of fleet_report.json
#      (tests/chaos/test_fleet_chaos.py), then the fleet scaling and
#      shard-rebuild cost figures (benchmarks/bench_fleet.py)
#
# Usage:
#   scripts/run_ci.sh           # everything
#   scripts/run_ci.sh --fast    # tier-1 + supervision smoke only
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}$PWD/src"

echo "== API surface + trace schema gate (scripts/check_api.py) =="
python scripts/check_api.py

echo "== tier-1 (default pytest run) =="
python -m pytest -q

echo "== supervision smoke (pytest -m supervision) =="
python -m pytest tests/runtime tests/fleet/test_supervisor.py \
    tests/obs/test_fork_boundary.py -m supervision -q
python -m pytest tests/obs/test_recorder.py::TestSpanContext -q
python -m pytest tests/runtime/test_journal.py::TestTornTailResume \
    tests/runtime/test_supervisor.py::TestResume -q

echo "== streaming smoke (pytest -m streaming) =="
python -m pytest tests/stream -m streaming -q
python -m pytest tests/stream/test_tailer.py::TestPollCost \
    tests/logs/test_store.py::TestSourceFiles -q
python -m pytest tests/stream/test_daemon.py::TestTornCheckpoint \
    tests/stream/test_alerts.py::TestResume -q

echo "== parity + windowed-consistency gate (pytest -m parity) =="
# the byte contract: the encoder oracle and the committed goldens
python -m pytest tests/core/test_serialize.py -q
python -m pytest tests/core/test_parity_gate.py -m parity -q
python -m pytest \
    tests/core/test_serialize.py::TestAliasing::test_shared_record_is_encoded_once \
    tests/core/test_errors_jobs.py::TestHolderTable \
    tests/core/test_pipeline.py::TestDerivedTables -q

echo "== parse-cache warm-run smoke (zero files re-parsed) =="
# part of tier-1 too; the focused re-run isolates the cache property
# that matters operationally -- a warm second run must serve every
# file from cache (no parses) and a changed directory must parse only
# the delta, and an appended file must parse only its new lines; an
# entry holds each distinct string once, and entries written without
# that sharing, or packed from records, still hit; the columnar parse
# equals the per-line one; two pipelines build one table without
# waiting for each other, and compute() after run() reuses its results
python -m pytest tests/logs/test_cache.py::TestDeltaOnlyIngest \
    tests/logs/test_cache.py::TestAppendDelta \
    tests/logs/test_cache.py::TestSharedStrings \
    tests/logs/test_line_table.py \
    tests/core/test_pipeline.py::TestDerivedTables::test_pipelines_build_one_table_concurrently \
    tests/core/test_pipeline.py::TestAnalysisMemo -q
# every reader judges an entry alike (lookup self-heals what stats and
# verify call invalid), and the warm path runs without collector passes
# (the GC pause around ingest, build and analyses; its restore contract)
python -m pytest tests/logs/test_cache.py::TestEntryValidation \
    tests/core/test_gc_pause.py -q

echo "== BG/Q dialect smoke (second catalog through the same pipeline) =="
# the pluggable-catalog gate: the bgq-ras scenario must ingest, cache,
# analyse and report end-to-end, cache entries must stay per-dialect,
# and default-dialect reports must keep omitting platform_analyses
python -m pytest tests/logs/test_catalogs.py -q

echo "== serve smoke (pytest -m serve) =="
# a real `repro serve` process: announce, diagnose twice over raw
# sockets (miss then byte-identical hit), health counters, SIGTERM
# drain with exit 0 and the printed summary
python -m pytest tests/serve/test_cli_smoke.py -m serve -q
# the report-cache key covers exactly the listed files, through
# symlinked source directories: an append is never a stale hit
python -m pytest -q \
    tests/serve/test_cache.py::TestLogdirFingerprint \
    "tests/serve/test_service.py::TestDiagnoseEndpoint::test_symlinked_store_append_is_a_miss_with_fresh_bytes"

echo "== benchmark shape smoke (--benchmark-disable) =="
# bench_serve.py runs its storms in full here (it does not use the
# pytest-benchmark fixture), so this stage is also the service SLO
# gate: warm p99, warm hit rate, exactly-one-pipeline-run cold.  It
# also runs the A/B timing gates, each timed by one helper
# (benchmarks/timing.py: one pinned CPU, collector paused, sides
# alternated, per-round ratio quartiles printed beside the verdict):
# bench_tolerant_parse.py::test_overhead_within_budget (< 25 %),
# bench_stream.py::test_append_beats_rebuild (> 1.0x),
# bench_stream.py::test_idle_poll_ignores_rotated_history (< 2.0x),
# bench_supervisor.py::test_supervision_overhead_within_budget (< 25 %)
# and bench_cache.py::test_warm_beats_uncached (warm read beats the
# uncached one, > 1.0x); tests/test_bench_timing.py (tier-1) shows the
# helper fails a planted slowdown at both kinds of bound
python -m pytest benchmarks/ -m 'not chaos' --benchmark-disable -q

if [[ "${1:-}" == "--fast" ]]; then
    echo "== skipping tier-2 chaos gate (--fast) =="
    exit 0
fi

echo "== tier-2 chaos gate (scripts/run_chaos.sh) =="
scripts/run_chaos.sh

echo "== fleet chaos gate (tests/chaos/test_fleet_chaos.py) =="
# part of the chaos gate above too; the focused re-run isolates the
# fleet properties (shard_kill + corrupt_artifact degradation,
# driver SIGKILL + --resume byte parity) when debugging a failure
python -m pytest tests/chaos/test_fleet_chaos.py -m chaos -q

echo "== fleet scaling + rebuild cost (benchmarks/bench_fleet.py) =="
python -m pytest benchmarks/bench_fleet.py \
    -m 'not chaos' --benchmark-disable -q -s

echo "== supervision overhead (benchmarks/bench_supervisor.py) =="
python -m pytest benchmarks/bench_supervisor.py \
    -m 'not chaos' --benchmark-disable -q -s

echo "CI green"
