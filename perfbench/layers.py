"""The per-layer table of a traced run, normalised per op."""

from __future__ import annotations

from typing import Optional

from tracer import LayerTotals

#: the registry analyses named in BENCHMARK.json; time of any analysis
#: registered later lands in core.analysis.other.s
ANALYSES = (
    "blade_sharing", "dominance", "dominance_summary", "error_populations",
    "nvf_correspondence", "nhf_correspondence", "nhf_breakdown",
    "faulty_fractions", "lead_times", "lead_time_summary", "false_positives",
    "job_census", "same_job_groups", "ras_category_breakdown", "root_causes",
    "family_split", "category_breakdown", "weekly_inter_failure",
)

#: per-layer metrics that are self seconds per op, in report order
_SECONDS = (
    "logs.parse", "logs.cache.lookup", "logs.cache.write", "logs.merge",
    "core.index", "core.external", "core.detect", "core.accounting",
    "core.jobs", "core.build.other",
    *("core.analysis." + name for name in ANALYSES),
    "core.analysis.other", "core.run.other", "core.serialize",
    "serve.fingerprint", "serve.key", "serve.cache.get", "serve.write",
    "serve.queue_wait", "serve.executor",
    "stream.poll", "stream.index", "stream.alerts", "stream.window",
    "stream.checkpoint",
)


def per_layer_metrics(totals: LayerTotals, ops: int, op_total_s: float,
                      overhead_s: float,
                      extra: Optional[dict[str, tuple[float, str]]] = None,
                      ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, normalised per op.

    ``op_total_s`` is the traced end-to-end time summed over the ``ops``
    ops; ``unattributed.s`` is that time minus the layer self times, so
    the ``*.s`` layers plus ``unattributed.s`` equal ``trace.op.s``.
    ``extra`` supplies the generator-side serve metrics and the stream
    counts; absent ones read 0 (the workload does not exercise them).
    """
    per_op = 1.0 / ops if ops else 0.0
    self_s = dict(totals.self_s)
    other = 0.0
    for layer in list(self_s):
        if (layer.startswith("core.analysis.")
                and layer[len("core.analysis."):] not in ANALYSES):
            other += self_s.pop(layer)
    self_s["core.analysis.other"] = other
    metrics: dict[str, tuple[float, str]] = {}
    for layer in _SECONDS:
        metrics[layer + ".s"] = (self_s.get(layer, 0.0) * per_op, "s/op")
    metrics["logs.parse.files"] = (totals.parse_files * per_op, "count/op")
    metrics["logs.read.mb"] = (totals.read_bytes / 1e6 * per_op, "MB/op")
    metrics["logs.cache.lookups"] = (totals.cache_lookups * per_op,
                                     "count/op")
    metrics["logs.cache.hit_ratio"] = (
        totals.cache_hits / totals.cache_lookups
        if totals.cache_lookups else 0.0, "ratio")
    metrics["core.serialize.mb"] = (totals.serialize_bytes / 1e6 * per_op,
                                    "MB/op")
    metrics["serve.cache.lookups"] = (totals.serve_lookups * per_op,
                                      "count/op")
    metrics["serve.cache.hit_ratio"] = (
        totals.serve_hits / totals.serve_lookups
        if totals.serve_lookups else 0.0, "ratio")
    for name, unit in (("serve.coalesced_ratio", "ratio"),
                       ("serve.generator_late_ms", "ms"),
                       ("serve.backlog_max", "count"),
                       ("stream.gzip_finalized", "count/op")):
        metrics[name] = (0.0, unit)
    metrics["stream.bytes_read"] = (totals.stream_bytes * per_op, "B/op")
    metrics.update(extra or {})
    attributed = sum(self_s.values())
    metrics["unattributed.s"] = ((op_total_s - attributed) * per_op, "s/op")
    metrics["trace.op.s"] = (op_total_s * per_op, "s/op")
    metrics["trace.overhead.s"] = (overhead_s, "s/op")
    metrics["trace.ops"] = (float(ops), "count")
    return metrics
