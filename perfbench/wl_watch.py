"""watch-replay: the streaming watch daemon over a replayed ``s3``.

A closed loop.  A :class:`repro.stream.replay.ReplayWriter` feeds the
``s3`` store into a live directory in one-hour steps; at every day
boundary each non-empty live file is rename-rotated and gzipped; after
each feed :meth:`WatchDaemon.tick` runs once, and the tick is the timed
op.  The tailer's file identity, the in-place index append, alerts and
checkpoints run on every tick; a tick that passes a day boundary also
closes and diagnoses a window.  Feeding, rotation and the checks are
not timed.

Before finalize every non-empty live file is rotated once more (NOTES.md
explains the misorder this avoids); then the streamed report must equal
``streamed_batch_equivalent`` on the live directory, byte for byte, or
every tick of the replay counts as failed.  Replays repeat until the
run's seconds are spent.
"""

from __future__ import annotations

import hashlib
import shutil
import time

from common import (Result, Speed, mean, p50, peak_rss_mb, run_probe, tail,
                    timed_setup)
from layers import per_layer_metrics
from tracer import OpSpan, Recorder, install, layer_totals

STORE = "s3"
HOUR = 3600.0


class Replay:
    """What one replay measured."""

    def __init__(self) -> None:
        #: op id -> tick seconds
        self.ticks: dict[str, float] = {}
        #: seconds of the ticks that closed a window
        self.closes: list[float] = []
        self.records = 0
        self.gzip_finalized = 0


def _rotate_nonempty(writer) -> None:
    from repro.logs.record import LogSource

    for source in LogSource:
        if writer.store.path_for(source).stat().st_size:
            writer.gzip_rotated(source, writer.rotate(source))


def replay(ctx, index: int, rec, result: Result, speed: Speed) -> Replay:
    from repro.core.serialize import canonical_json
    from repro.stream.daemon import (WatchConfig, WatchDaemon,
                                     streamed_batch_equivalent)
    from repro.stream.replay import ReplayWriter

    base = ctx.work / f"replay-{index}"
    writer = ReplayWriter(ctx.inputs.stores[STORE], base / "live")
    daemon = WatchDaemon(WatchConfig(logdir=base / "live", out=base / "out",
                                     window_days=1, poll_interval=0.0))
    daemon.start()
    out = Replay()
    hour = 0
    while writer.pending_count():
        hour += 1
        writer.feed_until(hour * HOUR)
        if hour % 24 == 0:
            _rotate_nonempty(writer)
            speed.sample()
        window = daemon.next_window
        op = f"tick-{index}-{hour}"
        with OpSpan(rec, op):
            begun = time.perf_counter()
            out.records += daemon.tick()
            elapsed = time.perf_counter() - begun
        out.ticks[op] = elapsed
        if daemon.next_window != window:
            out.closes.append(elapsed)
    _rotate_nonempty(writer)
    report = daemon.finalize()
    out.gzip_finalized = daemon.tailer.stats.gzip_finalized
    expected = canonical_json(streamed_batch_equivalent(writer.store, 1))
    result.op(hashlib.sha256(expected.encode("utf-8")).hexdigest()
              == report.digest,
              f"replay {index}: streamed report differs from "
              "streamed_batch_equivalent", count=len(out.ticks))
    shutil.rmtree(base, ignore_errors=True)
    return out


def phase(ctx, seconds: float, rec, result: Result, speed: Speed,
          first: int) -> list[Replay]:
    """Whole replays until ``seconds`` pass (at least one)."""
    replays: list[Replay] = []
    started = time.perf_counter()
    while not replays or time.perf_counter() - started < seconds:
        index = first + len(replays)
        try:
            replays.append(replay(ctx, index, rec, result, speed))
        except Exception as exc:  # a raising replay fails, and ends the run
            result.op(False, f"replay {index}: {type(exc).__name__}: {exc}")
            break
    return replays


def run(ctx) -> Result:
    store = str(ctx.inputs.stores[STORE])

    def probe(i: int) -> None:
        base = ctx.work / f"probe-{i}"
        run_probe("watch-replay", store, str(base / "live"),
                  str(base / "out"))

    setup_s, _ = timed_setup(probe)
    result = Result()
    half = ctx.seconds / 2 if ctx.trace else ctx.seconds
    with Speed() as speed:
        quiet = phase(ctx, half, None, result, speed, 0)
        if ctx.trace:
            rec = Recorder()
            patches = install(rec)
            try:
                traced = phase(ctx, half, rec, result, speed, len(quiet))
            finally:
                patches.restore()
    ticks = [seconds for r in quiet for seconds in r.ticks.values()]
    if ctx.trace:
        traced_ticks = {op: seconds for r in traced
                        for op, seconds in r.ticks.items()}
        total = sum(traced_ticks.values())
        ops = len(traced_ticks) or 1
        gzipped = sum(r.gzip_finalized for r in traced)
        result.per_layer = per_layer_metrics(
            layer_totals(rec.spans, set(traced_ticks)), len(traced_ticks),
            total, total / ops - mean(ticks),
            {"stream.gzip_finalized": (gzipped / ops, "count/op")})

    closes = [seconds for r in quiet for seconds in r.closes]
    records = sum(r.records for r in quiet)
    busy = sum(ticks)
    tick_tail, percentile, count = tail(ticks)
    rss = peak_rss_mb()
    factor = speed.factor
    result.end_to_end = {
        "op_ms_p50": (p50(ticks) * 1e3 / factor, "ms"),
        "heavy_ms_p50": (p50(closes) * 1e3 / factor, "ms"),
        "throughput_per_s": (
            records / busy * factor if busy else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s / factor, "s"),
    }
    result.named = {
        "machine_factor": (factor, "(run's kernel time over the "
                                   "reference; gated timings divide by it)"),
        "watch_tick_ms_p50": (p50(ticks) * 1e3, "ms"),
        "watch_tick_ms_tail": (tick_tail * 1e3,
                               f"ms (p{percentile:.1f} of {count} ticks)"),
        "watch_close_ms_p50": (p50(closes) * 1e3,
                               f"ms ({len(closes)} window-closing ticks)"),
        "watch_records_s": (records / busy if busy else 0.0,
                            "records/s of tick time"),
        "setup_s": (setup_s, "s (median of 3 fresh-interpreter set-ups)"),
        "peak_rss_mb": (rss, "MB"),
    }
    result.notes.append(f"replays {len(quiet)}, ticks {len(ticks)}, "
                        f"records {records}")
    return result
