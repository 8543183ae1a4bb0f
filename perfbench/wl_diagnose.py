"""diagnose-warm and diagnose-cold: the operator's ``repro diagnose``.

A closed loop with one client.  Each round visits the six stores in a
seeded order; each op is ``canonical_json(api.diagnose(store,
cache=...))`` and its bytes must equal the store's uncached reference.

* warm: every op reads the parse cache the set-up filled and must parse
  zero files;
* cold: every op gets a fresh, empty cache directory, made and removed
  outside the timed window, so the parser and the cache writes run.

A run makes a fixed number of rounds, sized from ``--seconds`` at a
nominal round time, so every store contributes the same number of ops
and the tail percentile falls at the same rank whatever the machine's
speed during the run.  The stores differ in size by 50x, so the gated
``op_ms_p50`` is the median over rounds of a round's mean op time: the
median of the raw op mixture lands between two stores' clusters and
swings with single ops (it is printed as ``diagnose_ms_p50``).
"""

from __future__ import annotations

import random
import shutil
import time

from common import (CALIBRATION_REF_S, SCENARIOS, Result, Speed, mean, p50,
                    peak_rss_mb, run_probe, tail, timed_setup)
from layers import per_layer_metrics
from tracer import OpSpan, Recorder, install, layer_totals

#: the largest store: its ops are the workload's heavy class
HEAVY = "s3"
#: nominal seconds per round over the six stores (2 vCPU x86 host)
ROUND_S = {"diagnose-warm": 1.5, "diagnose-cold": 3.0}


def run(ctx, cold: bool) -> Result:
    from repro import api
    from repro.core.serialize import canonical_json
    from repro.logs.cache import ParseCache

    workload = "diagnose-cold" if cold else "diagnose-warm"
    inputs = ctx.inputs
    stores = {name: str(inputs.stores[name]) for name in SCENARIOS}
    refs = {name: inputs.reference(name, "diagnose").decode("utf-8")
            for name in SCENARIOS}
    if cold:
        setup_s, warm_dir = timed_setup(
            lambda i: run_probe(workload, *stores.values()))
    else:
        def prewarm(i: int):
            path = ctx.work / f"warm-cache-{i}"
            run_probe(workload, str(path), *stores.values())
            return path

        setup_s, warm_dir = timed_setup(prewarm)

    rng = random.Random(f"{workload}:{ctx.seed}")
    result = Result()
    counter = iter(range(1 << 62))

    def phase(seconds: float, rec, serialize) -> list[dict[str, tuple]]:
        """The rounds ``seconds`` nominally hold.

        Each round maps op id -> (store, seconds, factor): ``factor`` is
        the kernel sample taken just before the op over the reference.
        """
        rounds = []
        for _ in range(max(2, round(seconds / ROUND_S[workload]))):
            order = list(SCENARIOS)
            rng.shuffle(order)
            samples: dict[str, tuple] = {}
            for name in order:
                speed.sample()
                op = f"op-{next(counter)}"
                cache = ParseCache(ctx.work / op if cold else warm_dir)
                try:
                    with OpSpan(rec, op):
                        begun = time.perf_counter()
                        body = serialize(api.diagnose(stores[name],
                                                      cache=cache))
                        elapsed = time.perf_counter() - begun
                except Exception as exc:  # a raising op is a failed op
                    result.op(False, f"{name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if cold:
                        shutil.rmtree(cache.root, ignore_errors=True)
                if name in inputs.bad:
                    problem = "reference disagrees with the parity golden"
                elif body != refs[name]:
                    problem = "bytes differ from the uncached reference"
                elif not cold and cache.misses:
                    problem = f"warm op parsed {cache.misses} files"
                else:
                    problem = ""
                result.op(not problem, f"{name}: {problem}")
                samples[op] = (name, elapsed,
                               speed.samples[-1] / CALIBRATION_REF_S)
            rounds.append(samples)
        return rounds

    half = ctx.seconds / 2 if ctx.trace else ctx.seconds
    with Speed() as speed:
        quiet = phase(half, None, canonical_json)
        if ctx.trace:
            rec = Recorder()
            patches = install(rec)
            try:
                traced = {op: seconds for samples in phase(
                    half, rec, rec.wrap(canonical_json, "core.serialize",
                                        lambda args, text: float(len(text))))
                          for op, (_, seconds, _) in samples.items()}
            finally:
                patches.restore()
    ops = [sample for samples in quiet for sample in samples.values()]
    latencies = [seconds for _, seconds, _ in ops]
    # each op is read against the kernel sample just before it, on the
    # CPU the op then ran on (NOTES.md)
    normalised = [(name, seconds / factor) for name, seconds, factor in ops]
    if ctx.trace:
        total = sum(traced.values())
        result.per_layer = per_layer_metrics(
            layer_totals(rec.spans, set(traced)), len(traced), total,
            total / max(len(traced), 1) - mean(latencies))

    busy = sum(latencies)
    log_mb = sum(inputs.store_bytes[name] for name, _, _ in ops) / 1e6
    round_mean = p50([mean([seconds for _, seconds, _ in samples.values()])
                      for samples in quiet if samples])
    op_tail, percentile, count = tail(latencies)
    heavy = p50([seconds for name, seconds, _ in ops if name == HEAVY])
    rss = peak_rss_mb()
    factor = speed.factor
    busy_normalised = sum(seconds for _, seconds in normalised)
    result.end_to_end = {
        "op_ms_p50": (p50([mean([seconds / factor for _, seconds, factor
                                 in samples.values()])
                           for samples in quiet if samples]) * 1e3, "ms"),
        "heavy_ms_p50": (p50([seconds for name, seconds in normalised
                              if name == HEAVY]) * 1e3, "ms"),
        "throughput_per_s": (
            len(normalised) / busy_normalised if busy_normalised else 0.0,
            "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s / factor, "s"),
    }
    result.named = {
        "machine_factor": (factor, "(run's median kernel time over the "
                                   "reference; set-up divides by it, each "
                                   "op by the sample before it)"),
        "diagnose_ms_p50": (p50(latencies) * 1e3, "ms (all ops)"),
        "diagnose_round_ms_p50": (round_mean * 1e3,
                                  f"ms (median of {len(quiet)} rounds' "
                                  "mean op)"),
        "diagnose_ms_tail": (op_tail * 1e3,
                             f"ms (p{percentile:.1f} of {count} ops)"),
        f"diagnose_ms_p50[{HEAVY}]": (heavy * 1e3, "ms"),
        "diagnose_mb_s": (log_mb / busy if busy else 0.0,
                          "MB/s (on-disk log MB per second diagnosing)"),
        "diagnose_ops_s": (len(latencies) / busy if busy else 0.0, "1/s"),
        "setup_s": (setup_s, "s (median of 3 fresh-interpreter set-ups)"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result
