"""Bench: the diagnosis service under a 1000-client concurrent storm.

Two legs; ``BENCH_pr10.json`` holds the figures of the revision that
added the service, as frozen history (``perfbench``'s ``serve-mixed`` is
the benchmark of record):

* **warm-cache storm** -- 1000 concurrent clients, each a real TCP
  connection speaking real HTTP/1.1, all requesting the same diagnosis
  against a warm report cache.  Gates: every response 200 and
  byte-identical, cache hit rate >= 99%, and p99 client-observed
  latency under ``WARM_P99_GATE_MS`` (client-observed means queueing
  included: all 1000 arrive simultaneously on one core, so this is the
  honest overload number, not a per-request service time).
* **cold coalesced storm** -- 200 concurrent clients against a cold
  cache: the pipeline must run exactly once (single-flight coalescing),
  every body byte-identical.

The store is deliberately small (the serve-test fixture shape): the
legs price the *service* -- socket handling, parsing, fingerprinting,
cache, coalescing -- not the pipeline, whose cost is bench_cache.py's
and bench_full_pipeline.py's business.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore
from repro.serve import DiagnosisService, ServiceConfig
from repro.simul.clock import DAY, SimClock

WARM_CLIENTS = 1000
COLD_CLIENTS = 200
#: generous single-core gate; the committed figure in BENCH_pr10.json
#: is the honest measurement, this is the regression tripwire
WARM_P99_GATE_MS = 5000.0
WARM_HIT_RATE_GATE = 0.99


def _bench_bus(days: int = 3) -> LogBus:
    bus = LogBus()
    for day in range(days):
        t0 = day * DAY
        bus.emit(LogRecord(t0 + 3600.0, LogSource.CONSOLE, "c0-0c0s0n0",
                           "mce", {"bank": 1, "status": "ff"}))
        bus.emit(LogRecord(t0 + 4000.0, LogSource.MESSAGES, "c0-0c0s0n0",
                           "nhc_suspect", {"why": "t"}))
        bus.emit(LogRecord(t0 + 5000.0, LogSource.ERD, "erd",
                           "ec_heartbeat_stop", {"src": "c0-0c0s0n1"}))
        bus.emit(LogRecord(t0 + 6000.0, LogSource.CONTROLLER, "c0-0c0s0",
                           "nvf", {"node": f"c0-0c0s{day}n1"}))
        bus.emit(LogRecord(t0 + 7000.0, LogSource.CONTROLLER, "c0-0c0s0",
                           "nhf", {"node": f"c0-0c0s{day}n2"}))
        bus.emit(LogRecord(t0 + 8000.0, LogSource.SCHEDULER, "sdb",
                           "slurm_submit", {"job": day}))
        bus.emit(LogRecord(t0 + 9500.0, LogSource.CONSOLE, "c0-0c0s0n0",
                           "kernel_panic", {"why": "Fatal exception"}))
    return bus


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-bench")
    store = LogStore(root / "logs")
    store.write(_bench_bus(), SimClock(), system="TT", seed=1,
                duration_seconds=3 * DAY)
    return root


async def _client(host: str, port: int, body: bytes):
    """One full HTTP request; returns (latency_s, status, body_bytes)."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"POST /v1/diagnose HTTP/1.1\r\nHost: bench\r\n"
                 b"Connection: close\r\n"
                 b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                 + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return time.perf_counter() - started, status, payload


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def test_serve_warm_cache_storm(bench_root):
    async def go():
        service = DiagnosisService(ServiceConfig(
            root=bench_root, port=0, max_workers=2,
            quota_rate=1e9, quota_burst=1e9,
            max_pending=WARM_CLIENTS + 8))
        await service.start()
        body = json.dumps({"logdir": "logs"}).encode()
        # one cold request warms the cache (and prices nothing here)
        await _client(service.host, service.port, body)
        wall_started = time.perf_counter()
        results = await asyncio.gather(*[
            _client(service.host, service.port, body)
            for _ in range(WARM_CLIENTS)])
        wall = time.perf_counter() - wall_started
        stats = service.cache.stats()
        await service.shutdown()
        return results, wall, stats

    results, wall, cache_stats = asyncio.run(go())

    statuses = {status for _, status, _ in results}
    assert statuses == {200}
    bodies = {payload for _, _, payload in results}
    assert len(bodies) == 1  # byte-identical across all 1000 clients

    latencies = [latency for latency, _, _ in results]
    p50_ms = _percentile(latencies, 0.50) * 1000
    p99_ms = _percentile(latencies, 0.99) * 1000
    hit_rate = cache_stats["hits"] / (cache_stats["hits"]
                                      + cache_stats["misses"])
    throughput = len(results) / wall

    print(f"\nwarm storm, {WARM_CLIENTS} clients: p50 {p50_ms:.1f} ms, "
          f"p99 {p99_ms:.1f} ms, {throughput:.0f} req/s, "
          f"hit rate {hit_rate:.4f}")

    # the SLO gates
    assert hit_rate >= WARM_HIT_RATE_GATE, cache_stats
    assert p99_ms <= WARM_P99_GATE_MS, f"warm p99 {p99_ms:.1f}ms"


def test_serve_cold_coalesced_storm(bench_root):
    async def go():
        service = DiagnosisService(ServiceConfig(
            root=bench_root, port=0, max_workers=2,
            quota_rate=1e9, quota_burst=1e9,
            max_pending=COLD_CLIENTS + 8))
        await service.start()
        # distinct analysis subset -> distinct key -> genuinely cold
        body = json.dumps({"logdir": "logs",
                           "only": ["dominance", "lead_times"]}).encode()
        wall_started = time.perf_counter()
        results = await asyncio.gather(*[
            _client(service.host, service.port, body)
            for _ in range(COLD_CLIENTS)])
        wall = time.perf_counter() - wall_started
        flights = service.coalescer.flights
        coalesced = service.coalescer.coalesced
        hits = service.cache.stats()["hits"]
        await service.shutdown()
        return results, wall, flights, coalesced, hits

    results, wall, flights, coalesced, hits = asyncio.run(go())

    assert {status for _, status, _ in results} == {200}
    assert len({payload for _, _, payload in results}) == 1
    assert flights == 1  # the pipeline ran exactly once for 200 clients
    # every other client either joined the single flight or hit the
    # cache the leader populated -- nobody recomputed
    assert coalesced + hits == COLD_CLIENTS - 1
    print(f"\ncold storm, {COLD_CLIENTS} clients: {flights} pipeline run, "
          f"{coalesced} coalesced, {hits} cache hits, {wall:.3f} s")
