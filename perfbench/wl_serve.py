"""serve-mixed: an open loop against DiagnosisService in a child process.

The service runs through ``serve_child.py`` on copies of the six stores
(no request ever touches the per-seed scenario cache) plus live stores
that a :class:`repro.stream.replay.ReplayWriter` grows slice by slice.
One generator process drives it over at most :data:`CONNECTIONS`
keep-alive connections, on a fixed seeded schedule of Poisson arrivals
at each rate of :data:`RATES`:

* most requests repeat ``POST /v1/diagnose`` or
  ``/v1/diagnose/windowed`` over a store copy and hit the report cache;
* a :data:`MISS_SHARE` of them request a live store whose next
  one-hour slice (:data:`LIVE_STEP_S`) has just been appended: the
  logdir fingerprint moved, so the request misses and runs the pipeline
  on the service's executor, sharing the interpreter lock with the
  event loop that answers the hits.  A live store appends its next
  slice as soon as its previous miss is answered, so no request's
  latency includes the append (its time is reported on its own).

The traffic mix (the miss share, the slice, the uniform mix of the
twelve hit keys) is an assumption, not a measured operator mix; NOTES.md
says what each value decides.

Latency is timed from when each request was due, so a stall also
charges the requests queued behind it; how late the generator ran and
the deepest queue of due-but-unsent requests are reported.  A rate
meets the limit when the tail of its hit latency is within
:data:`LIMIT_MS` and its queue stays bounded; the sustained rate is the
highest rate that meets it.  The ladder is coarse on purpose: the
machine's speed swings too much within a run for a finer estimate to
repeat.

The service runs pinned to one CPU and the generator to the others.
The rates below the top drain every :data:`DRAIN_EVERY_S` seconds of
their schedule: the generator waits until nothing is in flight and
times the calibration kernel once on each CPU.  The gated latencies
read each request against the kernel samples around its half second,
so a slow spell of the host is cancelled where it happened.

Every body is checked: hits against the uncached reference bytes, live
misses (after the run) against ``canonical_json(api.diagnose(...))``
over a replay of the same live state.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import itertools
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from common import (BENCH_DIR, CALIBRATION_REF_S, ROOT, SCENARIOS,
                    WINDOW_DAYS, Result, Speed, child_env, mean, p50,
                    peak_rss_mb, pin, tail)
from layers import per_layer_metrics
from tracer import Span, layer_totals

#: the fixed open-loop rate ladder (requests/s) and the limit on the
#: tail of hit latency: the lowest rate meets it, the highest does not
RATES = (20.0, 40.0, 240.0)
#: share of the measured seconds each rate gets: the rates below the top,
#: whose latencies are gated, get most; the top rate only has to build
#: its queue
RATE_SHARES = (0.45, 0.4, 0.15)
LIMIT_MS = 120.0
#: share of requests that ask for a freshly appended live store (cache
#: misses); an assumption (NOTES.md)
MISS_SHARE = 0.1
CONNECTIONS = 2
#: live stores replay this scenario, starting LIVE_START_S into it and
#: growing by the next non-empty LIVE_STEP_S slice per miss: logs
#: arrive hourly, as in watch-replay
LIVE_SOURCE = "s4"
LIVE_START_S = 14 * 86400.0
LIVE_STEP_S = 3600.0
#: misses one live store serves in a phase (s4 holds ~220 non-empty
#: hours past LIVE_START_S)
LIVE_SLOT_MISSES = 100
#: a rate whose queue of due-but-unsent requests passes this is cut short
BACKLOG_LIMIT = 200
#: the rates below the top let the service drain every DRAIN_EVERY_S
#: seconds of their schedule
DRAIN_EVERY_S = 0.5
#: kernel samples before each service start (set-up)
SETUP_SAMPLES = 5
ENDPOINTS = {"diagnose": "/v1/diagnose",
             "windowed": "/v1/diagnose/windowed"}
HIT_KEYS = tuple((name, kind) for name in SCENARIOS for kind in ENDPOINTS)


def request_for(key: tuple[str, str]) -> tuple[str, dict]:
    """Path and body of the request for one (store, endpoint) key."""
    name, kind = key
    payload: dict = {"logdir": name}
    if kind == "windowed":
        payload["window_days"] = WINDOW_DAYS
    return ENDPOINTS[kind], payload


def call(port: int, path: str,
         payload: Optional[dict] = None) -> tuple[int, bytes]:
    """One blocking request on a fresh connection (set-up, priming)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        if payload is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """The service in its own interpreter, ready once health answers."""

    def __init__(self, root: Path, cpu: Optional[int],
                 spans: Optional[Path] = None) -> None:
        self.spans = spans
        self.stopped = False
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_child.py"), str(root),
             str(spans) if spans is not None else "-"],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
            preexec_fn=None if cpu is None else pin(cpu))
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"service did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            status, _ = call(self.port, "/v1/health")
            if status != 200:
                raise RuntimeError(f"service health answered {status}")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> list[Span]:
        """SIGTERM (the service drains), wait, collect traced spans."""
        if self.stopped:
            return []
        self.stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.spans is None or not self.spans.is_file():
            return []
        return [Span.from_list(row)
                for row in json.loads(self.spans.read_text())]


class LiveSlot:
    """A live store under the service root, one slice ahead of its misses.

    The slot's next state is already on disk when a miss picks it:
    :meth:`stage` appends the next non-empty slice at creation and again
    as soon as the slot's previous miss is answered, outside every
    request's latency.
    """

    def __init__(self, source: Path, root: Path, name: str) -> None:
        from repro.stream.replay import ReplayWriter

        self.name = name
        self.source = source
        self.writer = ReplayWriter(source, root / name)
        self.writer.feed_until(LIVE_START_S)
        self.hours = 0
        self.busy = False
        #: the state the next miss requests (None once the slot is dry)
        self.staged: Optional[int] = None
        #: state -> the replay horizon it was fed to
        self.horizons: dict[int, float] = {}
        #: state -> sha256 of the body served for it
        self.served: dict[int, str] = {}
        #: seconds of every append
        self.append_s: list[float] = []
        self.stage()

    def stage(self) -> None:
        begun = time.perf_counter()
        self.staged = None
        while self.writer.pending_count():
            self.hours += 1
            horizon = LIVE_START_S + self.hours * LIVE_STEP_S
            if self.writer.feed_until(horizon):
                self.staged = len(self.horizons) + 1
                self.horizons[self.staged] = horizon
                break
        self.append_s.append(time.perf_counter() - begun)

    def ready(self) -> bool:
        return not self.busy and self.staged is not None


class Rung:
    """One rate of the ladder: its schedule and what it measured."""

    def __init__(self, rate: float, items: list) -> None:
        self.rate = rate
        #: (offset seconds, key or None for a live miss)
        self.items = items
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        #: (key, latency ms, drain segment) of every hit
        self.hits: list[tuple] = []
        #: (latency ms, drain segment) of every miss
        self.misses: list[tuple[float, int]] = []
        self.late_ms: list[float] = []
        #: op id -> latency seconds, every answered request
        self.latency_s: dict[str, float] = {}
        self.backlog_max = 0
        self.backlog_end = 0
        self.cut_short = False
        self.coalesced = 0

    def hit_tail_ms(self) -> float:
        return tail(self.hit_ms)[0] if self.hit_ms else math.inf

    def meets_limit(self) -> bool:
        # a growing backlog reaches BACKLOG_LIMIT and cuts the rate short
        return not self.cut_short and self.hit_tail_ms() <= LIMIT_MS

    def describe(self) -> str:
        hit_tail, percentile, count = tail(self.hit_ms)
        verdict = "meets" if self.meets_limit() else "misses"
        return (f"rate {self.rate:g}/s: {count} hits p50 "
                f"{p50(self.hit_ms):.3f} ms, tail {hit_tail:.3f} ms "
                f"(p{percentile:.1f}); {len(self.miss_ms)} misses p50 "
                f"{p50(self.miss_ms):.3f} ms; generator late p50 "
                f"{p50(self.late_ms):.3f} max "
                f"{max(self.late_ms, default=0.0):.3f} ms; backlog max "
                f"{self.backlog_max} end {self.backlog_end}"
                f"{' (cut short)' if self.cut_short else ''}; {verdict} "
                f"the {LIMIT_MS:g} ms limit")


def ladder(seed: int, seconds: float) -> list[Rung]:
    """The seeded Poisson schedule of every rate over ``seconds``.

    A traced run gives its quiet and its traced phase the same schedule,
    so the two phases differ only in the wrappers.
    """
    every = round(1 / MISS_SHARE)
    rungs = []
    for rate, share in zip(RATES, RATE_SHARES):
        span = seconds * share
        rng = random.Random(f"serve-mixed:{seed}:{rate}")
        # misses at a fixed share: every ``every``-th request, from a
        # seeded position; hits visit the keys in seeded rounds, so
        # every rate sees the same mix of body sizes
        first = rng.randrange(every)
        items = []
        keys: list = []
        offset = rng.expovariate(rate)
        while offset < span:
            if len(items) % every == first:
                items.append((offset, None))
            else:
                if not keys:
                    keys = list(HIT_KEYS)
                    rng.shuffle(keys)
                items.append((offset, keys.pop()))
            offset += rng.expovariate(rate)
        rungs.append(Rung(rate, items))
    return rungs


def segment_factor(samples: list[float], segment: int) -> float:
    """How slow the service's CPU ran during one drain segment.

    The mean of the kernel samples taken at the drains before and after
    the segment, over the reference host's time; 1 without samples.
    """
    if not samples:
        return 1.0
    after = samples[min(segment + 1, len(samples) - 1)]
    return (samples[segment] + after) / 2 / CALIBRATION_REF_S


def hit_ms_p50(rungs: list[Rung], samples: list[float]) -> float:
    """Mean over the hit keys of each key's median hit latency (ms).

    Bodies differ 15-fold in size, so hit latencies fall in one cluster
    per key; the median of all hits sits between two clusters and jumps
    between them from run to run, while each key's median does not.
    Each hit is read against the kernel samples around its segment.
    """
    by_key: dict = {}
    for rung in rungs:
        for key, ms, segment in rung.hits:
            by_key.setdefault(key, []).append(
                ms / segment_factor(samples, segment))
    return mean([p50(values) for values in by_key.values()])


def miss_ms_p50(rungs: list[Rung], samples: list[float]) -> float:
    """Mean over the rates of each rate's median miss latency (ms).

    A miss takes longer the more hits share the interpreter lock with
    it, so the rates' misses form clusters, as the keys' hits do.
    """
    return mean([p50([ms / segment_factor(samples, segment)
                      for ms, segment in rung.misses]) for rung in rungs])


def sustained_rate(rungs: list[Rung]) -> float:
    """The highest rate of the ladder that meets the limit.

    When even the lowest rate misses it, the lowest rate scaled down by
    how far its tail overshoots (a rough figure below the ladder).
    """
    met = [rung.rate for rung in rungs if rung.meets_limit()]
    if met:
        return max(met)
    return rungs[0].rate * min(1.0, LIMIT_MS / rungs[0].hit_tail_ms())


class Generator:
    """The open-loop load generator: one process, CONNECTIONS sockets."""

    def __init__(self, port: int, slots: list[LiveSlot], refs: dict,
                 bad: set, result: Result, prefix: str,
                 gauges: Sequence[Speed] = ()) -> None:
        self.port = port
        self.gauges = gauges
        #: mean kernel seconds over the gauges, at every drain
        self.marks: list[float] = []
        self.slots = slots
        self.refs = refs
        self.bad = bad
        self.result = result
        self.prefix = prefix
        self.ids = itertools.count()
        self.conns: list = []
        #: drain segments begun (the gauge samples at the start of each)
        self.segment = -1

    async def _connect(self):
        return await asyncio.open_connection("127.0.0.1", self.port)

    async def run(self, rungs: list[Rung]) -> None:
        self.conns = [await self._connect() for _ in range(CONNECTIONS)]
        try:
            self._gauge()
            for rung in rungs:
                # the top rate runs unbroken: it has to build its queue
                await self._rung(rung, DRAIN_EVERY_S
                                 if rung is not rungs[-1] else None)
        finally:
            for _, writer in self.conns:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    async def _rung(self, rung: Rung, every: Optional[float]) -> None:
        """One rate, drained every ``every`` seconds of its schedule.

        At each drain the generator waits until nothing is in flight
        and, given gauges, samples the kernel on each CPU while the
        service is idle; then it goes on.  A slow spell cannot
        leave a queue that charges the rest of the run, and the
        machine's speed is read all through the run.
        """
        segments: dict[int, list] = {}
        for offset, key in rung.items:
            index = 0 if every is None else int(offset // every)
            segments.setdefault(index, []).append((offset, key))
        for index, items in sorted(segments.items()):
            await self._segment(rung, items,
                                0.0 if every is None else index * every)
            self._gauge()
            if rung.cut_short:
                break

    def _gauge(self) -> None:
        # nothing is in flight: the service is idle while the kernel runs
        if self.gauges:
            for gauge in self.gauges:
                gauge.sample()
            self.marks.append(mean([gauge.samples[-1]
                                    for gauge in self.gauges]))
        self.segment += 1

    async def _segment(self, rung: Rung, items: list, origin: float) -> None:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        start = loop.time() - origin

        async def dispatch() -> None:
            for offset, key in items:
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                rung.late_ms.append((loop.time() - due) * 1e3)
                queue.put_nowait((due, key))
                rung.backlog_max = max(rung.backlog_max, queue.qsize())
                if queue.qsize() > BACKLOG_LIMIT:
                    rung.cut_short = True
                    break
            rung.backlog_end = queue.qsize()
            for _ in self.conns:
                queue.put_nowait(None)

        async def work(index: int) -> None:
            while (job := await queue.get()) is not None:
                await self._send(index, rung, *job)

        await asyncio.gather(dispatch(),
                             *(work(i) for i in range(len(self.conns))))

    async def _send(self, index: int, rung: Rung, due: float, key) -> None:
        op = f"{self.prefix}-{next(self.ids)}"
        slot = None
        if key is None:
            slot = next((s for s in self.slots if s.ready()), None)
            if slot is None:
                self.result.op(False, f"{op}: no live store left to miss on")
                return
            slot.busy = True
            version = slot.staged
            path, payload = ENDPOINTS["diagnose"], {"logdir": slot.name}
        else:
            path, payload = request_for(key)
        body = json.dumps(payload).encode("utf-8")
        head = (f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Request-Id: {op}\r\n\r\n").encode("latin-1")
        try:
            reader, writer = self.conns[index]
            writer.write(head + body)
            await writer.drain()
            lines = (await reader.readuntil(b"\r\n\r\n")).decode(
                "latin-1").split("\r\n")
            status = int(lines[0].split(" ")[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            data = await reader.readexactly(
                int(headers.get("content-length", "0")))
        except (OSError, asyncio.IncompleteReadError, ValueError,
                IndexError) as exc:
            self.result.op(False, f"{op}: {type(exc).__name__}: {exc}")
            self.conns[index] = await self._connect()
            if slot is not None:
                slot.busy = False
                slot.stage()
            return
        latency = asyncio.get_running_loop().time() - due
        if headers.get("connection") == "close":
            writer.close()
            self.conns[index] = await self._connect()
        rung.latency_s[op] = latency
        hit = headers.get("x-cache") == "hit"
        (rung.hit_ms if hit else rung.miss_ms).append(latency * 1e3)
        if hit:
            rung.hits.append((key, latency * 1e3, self.segment))
        else:
            rung.misses.append((latency * 1e3, self.segment))
        rung.coalesced += "x-coalesced" in headers
        if slot is not None:
            slot.busy = False
            slot.stage()
            if status == 200:
                slot.served[version] = hashlib.sha256(data).hexdigest()
                return
        if status != 200:
            self.result.op(False, f"{op}: HTTP {status}: {data[:160]!r}")
        else:
            self.result.op(key[0] not in self.bad and data == self.refs[key],
                           f"{op}: {key} body differs from the reference")


def prime(port: int, refs: dict, bad: set, result: Result) -> None:
    """Fill the report cache: one checked request per hit key."""
    for key in HIT_KEYS:
        status, data = call(port, *request_for(key))
        result.op(status == 200 and key[0] not in bad and data == refs[key],
                  f"priming {key}: HTTP {status} or body differs")


def verify_live(slots: list[LiveSlot], work: Path, result: Result) -> None:
    """Check every live miss against the uncached pipeline on a replay."""
    from repro import api
    from repro.core.serialize import canonical_json
    from repro.stream.replay import ReplayWriter

    for slot in slots:
        if not slot.served:
            continue
        replica = ReplayWriter(slot.source, work / f"verify-{slot.name}")
        for version in sorted(slot.served):
            replica.feed_until(slot.horizons[version])
            body = canonical_json(api.diagnose(replica.live_root))
            result.op(hashlib.sha256(body.encode("utf-8")).hexdigest()
                      == slot.served[version],
                      f"{slot.name} v{version}: body differs from "
                      "api.diagnose on the same state")


def run(ctx) -> Result:
    # the service gets a CPU of its own and the generator the rest, so
    # the two never share a CPU and the gauge reads the service's CPU
    cpus = sorted(os.sched_getaffinity(0))
    service_cpu = generator_cpu = None
    if len(cpus) > 1:
        service_cpu, generator_cpu = cpus[0], cpus[1]
        os.sched_setaffinity(0, set(cpus[1:]))
    inputs = ctx.inputs
    root = ctx.work / "root"
    for name in SCENARIOS:
        shutil.copytree(inputs.stores[name], root / name)
    refs = {key: inputs.reference(*key) for key in HIT_KEYS}
    phases = ("quiet", "traced") if ctx.trace else ("quiet",)
    # the phases run the same schedule, each on live stores of its own
    ladders = {phase: ladder(ctx.seed, ctx.seconds / len(phases))
               for phase in phases}
    misses = sum(key is None for rung in ladders["quiet"]
                 for _, key in rung.items)
    source = inputs.stores[LIVE_SOURCE]
    slots = {phase: [LiveSlot(source, root, f"{phase}-live-{k}")
                     for k in range(CONNECTIONS + 1
                                    + misses // LIVE_SLOT_MISSES)]
             for phase in phases}
    result = Result()

    # set-up: a fresh service process until it answers health, thrice;
    # the last one serves the quiet phase
    startups: list[float] = []
    server: Optional[Server] = None
    measured: dict[str, tuple[float, list[Span]]] = {}
    #: the quiet phase's kernel seconds at every drain
    marks: list[float] = []
    try:
        with Speed(service_cpu) as speed, Speed(generator_cpu) as other:
            for _ in range(3):
                if server is not None:
                    server.stop()
                for _ in range(SETUP_SAMPLES):
                    speed.sample()
                begun = time.perf_counter()
                server = Server(root, service_cpu)
                startups.append(time.perf_counter() - begun)
            setup_factor = speed.factor
            for phase in phases:
                if server is None:
                    server = Server(root, service_cpu, ctx.work / "spans.json")
                prime(server.port, refs, inputs.bad, result)
                generator = Generator(
                    server.port, slots[phase], refs, inputs.bad, result,
                    phase, (speed, other) if phase == "quiet" else ())
                asyncio.run(generator.run(ladders[phase]))
                marks = marks or generator.marks
                rss = peak_rss_mb(server.proc.pid)
                measured[phase] = (rss, server.stop())
                server = None
    finally:
        if server is not None:
            server.stop()
    live = [slot for phase in phases for slot in slots[phase]]
    verify_live(live, ctx.work, result)
    appends_ms = [s * 1e3 for slot in live for s in slot.append_s]

    rungs = ladders["quiet"]
    # the top rate is past the knee by design: its latency is the queue
    below = rungs[:-1]
    base = rungs[0]
    hit_tail, percentile, count = tail(base.hit_ms)
    hit_ms = hit_ms_p50(below, [])
    miss_ms = miss_ms_p50(below, [])
    misses = sum(len(rung.miss_ms) for rung in below)
    sustained = sustained_rate(rungs)
    setup_s = p50(startups)
    rss = measured["quiet"][0]
    # each figure is read against the kernel timed around it: on the
    # service's CPU during set-up, on both CPUs at the quiet phase's drains
    factor = p50(marks) / CALIBRATION_REF_S
    result.end_to_end = {
        "op_ms_p50": (hit_ms_p50(below, marks), "ms"),
        "heavy_ms_p50": (miss_ms_p50(below, marks), "ms"),
        "throughput_per_s": (sustained, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s / setup_factor, "s"),
    }
    result.named = {
        "serve_hit_ms_p50": (hit_ms, f"ms (mean over the {len(HIT_KEYS)} "
                                     "hit keys of each key's median, "
                                     "below the top rate)"),
        "serve_hit_ms_tail": (hit_tail, f"ms (p{percentile:.1f} of "
                                        f"{count} hits at {base.rate:g}/s)"),
        "serve_miss_ms_p50": (miss_ms, f"ms (mean over the rates below the "
                                       f"top of each rate's median; "
                                       f"{misses} misses)"),
        "serve_sustained_rps": (sustained, f"1/s (hit tail limit "
                                           f"{LIMIT_MS:g} ms)"),
        "setup_s": (setup_s, "s (median of 3 service starts to healthy)"),
        "peak_rss_mb": (rss, "MB (service process)"),
        "machine_factor": (factor, "(kernel time at the drains over the "
                                   "reference host's; "
                                   f"{setup_factor:.4f} during set-up)"),
    }
    result.notes.extend(rung.describe() for rung in rungs)
    result.notes.append(
        f"live appends: {len(appends_ms)}, p50 {p50(appends_ms):.3f} ms, "
        f"max {max(appends_ms, default=0.0):.3f} ms (outside every "
        "request's latency)")
    if ctx.trace:
        # below the knee: at the top rate the latency is mostly queueing,
        # which would swamp both the layers and the overhead
        traced = ladders["traced"][:-1]
        latency = {op: seconds for rung in traced
                   for op, seconds in rung.latency_s.items()}
        total = sum(latency.values())
        quiet_mean = mean([seconds for rung in rungs[:-1]
                           for seconds in rung.latency_s.values()])
        misses_traced = sum(len(rung.miss_ms) for rung in traced)
        coalesced = sum(rung.coalesced for rung in traced)
        extra = {
            "serve.coalesced_ratio": (
                coalesced / misses_traced if misses_traced else 0.0,
                "ratio"),
            "serve.generator_late_ms": (
                max((ms for rung in traced for ms in rung.late_ms),
                    default=0.0), "ms"),
            "serve.backlog_max": (
                float(max(rung.backlog_max for rung in traced)), "count"),
        }
        result.per_layer = per_layer_metrics(
            layer_totals(measured["traced"][1], set(latency)), len(latency),
            total, total / max(len(latency), 1) - quiet_mean, extra)
        result.notes.extend("traced " + rung.describe()
                            for rung in ladders["traced"])
    return result
