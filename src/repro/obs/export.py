"""Exporters: Chrome trace-event JSON, metrics snapshots, human summary.

Three consumers, three formats:

* :func:`chrome_trace` -- the `Trace Event Format`_ understood by
  Perfetto / ``chrome://tracing``: one complete (``"ph": "X"``) event
  per span, microsecond timestamps normalised to the earliest span, the
  span's tags (record counts, byte counts, CPU milliseconds) under
  ``args``.  :func:`validate_chrome_trace` checks the schema and is run
  by the CI gate (``scripts/check_api.py``).
* :func:`metrics_snapshot_json` -- the metrics registry snapshot as
  *canonical* JSON via :mod:`repro.core.serialize`, so two runs of the
  same workload diff cleanly.
* :func:`render_summary` -- the ``repro obs summary`` view: spans
  aggregated by name (count, total/mean wall, CPU), then counters,
  gauges and histograms.

.. _Trace Event Format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.recorder import SpanRecord

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "write_trace",
    "metrics_snapshot_json",
    "write_metrics",
    "render_summary",
    "summarize_file",
]


def chrome_trace(spans: Sequence[SpanRecord]) -> dict:
    """Spans as a Chrome trace-event JSON object (Perfetto-loadable).

    Timestamps are microseconds relative to the earliest span start, so
    the viewer opens at t=0 regardless of wall-clock epoch.  Span
    hierarchy survives two ways: visually through the viewer's own
    stacking of nested ``X`` events per thread, and explicitly through
    ``args.span_id`` / ``args.parent_id``.
    """
    events: list[dict] = []
    t0 = min((span.start for span in spans), default=0.0)
    for span in spans:
        args = {key: value for key, value in span.tags.items()}
        args["cpu_ms"] = round(span.cpu * 1e3, 3)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": round((span.start - t0) * 1e6, 1),
            "dur": round(span.duration * 1e6, 1),
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: object) -> list[str]:
    """Schema-check a trace object; returns problems (empty == valid).

    Checks exactly what the repo promises to emit: a ``traceEvents``
    array of complete events with string names/categories, microsecond
    ``ts``/``dur`` numbers (``dur`` non-negative) and integer pid/tid.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("name", str), ("cat", str), ("ph", str),
                           ("ts", (int, float)), ("dur", (int, float)),
                           ("pid", int), ("tid", int), ("args", dict)):
            if not isinstance(event.get(key), kinds):
                problems.append(f"{where}: missing or mistyped {key!r}")
        if event.get("ph") != "X":
            problems.append(f"{where}: expected complete event ph='X'")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append(f"{where}: negative dur")
    return problems


def write_trace(spans: Sequence[SpanRecord], path: Path | str) -> Path:
    """Write the Chrome trace for ``spans`` to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans), indent=1) + "\n")
    return path


def metrics_snapshot_json(snapshot: dict) -> str:
    """A metrics snapshot as canonical JSON (byte-stable key order)."""
    # imported lazily: repro.obs is a leaf package the log/core layers
    # import at module load, so it must not pull repro.core in return
    from repro.core.serialize import canonical_json

    return canonical_json(snapshot)


def write_metrics(snapshot: dict, path: Path | str) -> Path:
    """Write the canonical-JSON metrics snapshot to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_snapshot_json(snapshot) + "\n")
    return path


# ---------------------------------------------------------------------------
# human summary
# ---------------------------------------------------------------------------
def _aggregate_events(events: Sequence[dict]) -> list[dict]:
    """Trace events grouped by name: count, total/mean wall, total CPU."""
    table: dict[str, dict] = {}
    for event in events:
        row = table.setdefault(event["name"], {
            "name": event["name"], "cat": event.get("cat", ""),
            "count": 0, "wall_ms": 0.0, "cpu_ms": 0.0})
        row["count"] += 1
        row["wall_ms"] += event.get("dur", 0.0) / 1e3
        row["cpu_ms"] += event.get("args", {}).get("cpu_ms", 0.0)
    rows = sorted(table.values(), key=lambda r: -r["wall_ms"])
    for row in rows:
        row["mean_ms"] = row["wall_ms"] / row["count"]
    return rows


def render_summary(trace: Optional[dict] = None,
                   metrics: Optional[dict] = None) -> str:
    """The ``repro obs summary`` text: where the pipeline spent itself."""
    lines: list[str] = []
    if trace is not None:
        rows = _aggregate_events(trace.get("traceEvents", []))
        lines.append(f"spans: {sum(r['count'] for r in rows)} events, "
                     f"{len(rows)} distinct")
        if rows:
            width = max(len(r["name"]) for r in rows)
            lines.append(f"  {'span':<{width}}  {'count':>5}  "
                         f"{'total ms':>10}  {'mean ms':>9}  {'cpu ms':>9}")
            for row in rows:
                lines.append(
                    f"  {row['name']:<{width}}  {row['count']:>5}  "
                    f"{row['wall_ms']:>10.2f}  {row['mean_ms']:>9.2f}  "
                    f"{row['cpu_ms']:>9.2f}")
    if metrics is not None:
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        histograms = metrics.get("histograms", {})
        if lines:
            lines.append("")
        lines.append(f"metrics: {len(counters)} counters, {len(gauges)} "
                     f"gauges, {len(histograms)} histograms")
        names = list(counters) + list(gauges)
        width = max((len(n) for n in names), default=0)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {value}")
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:g}")
        for name, data in histograms.items():
            mean = data["sum"] / data["total"] if data["total"] else 0.0
            lines.append(
                f"  {name}: n={data['total']} mean={mean:.4g} "
                f"min={data['min']} max={data['max']}")
        truncated = counters.get("journal.truncated_tail", 0)
        if truncated:
            lines.append(
                f"  ! {truncated} crash-torn journal tail(s) cut "
                "-- a run was killed mid-append and resumed")
        hits = counters.get("serve.cache.hit", 0)
        misses = counters.get("serve.cache.miss", 0)
        if hits or misses:
            rate = hits / (hits + misses)
            line = (f"  service: report-cache hit rate {rate:.1%} "
                    f"({hits} hits / {misses} misses), "
                    f"{counters.get('serve.coalesced', 0)} coalesced")
            rejected = (counters.get("serve.quota.rejected", 0)
                        + counters.get("serve.backpressure.rejected", 0))
            if rejected:
                line += f", {rejected} rejected (quota/backpressure)"
            lines.append(line)
    return "\n".join(lines)


def summarize_file(path: Path | str) -> str:
    """Summarise one exported file (trace or metrics, auto-detected)."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "traceEvents" in data:
        return render_summary(trace=data)
    if isinstance(data, dict) and {"counters", "gauges"} & set(data):
        return render_summary(metrics=data)
    raise ValueError(
        f"{path}: neither a Chrome trace (traceEvents) nor a metrics "
        "snapshot (counters/gauges/histograms)")
