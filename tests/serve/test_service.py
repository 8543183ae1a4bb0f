"""End-to-end service tests over real sockets.

The acceptance criteria of ISSUE 10 live here: N identical concurrent
``POST /v1/diagnose`` requests run the pipeline exactly once and every
response body is byte-identical -- and byte-identical to a direct
:func:`repro.api.diagnose` plus canonical serialization of the same
inputs; quota exhaustion answers 429 with ``Retry-After``; the report
cache invalidates when the logdir changes; SIGTERM-style drain lets
in-flight requests finish while the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import api
from repro.core.serialize import canonical_json
from repro.logs.record import LogRecord, LogSource
from repro.logs.store import LogStore
from repro.serve import DiagnosisService, ServiceConfig
from repro.simul.clock import DAY

from tests.serve.conftest import http_request, run
from tests.serve.test_cache import touch_store


def diagnose_body(**fields) -> bytes:
    fields.setdefault("logdir", "logs")
    return json.dumps(fields).encode("utf-8")


async def with_service(root, action, **config_kwargs):
    """Start a service on an ephemeral port, run ``action``, drain."""
    config_kwargs.setdefault("max_workers", 2)
    service = DiagnosisService(
        ServiceConfig(root=root, port=0, **config_kwargs))
    await service.start()
    try:
        return await action(service)
    finally:
        await service.shutdown()


class TestDiagnoseEndpoint:
    def test_concurrent_identical_requests_coalesce_to_one_run(
            self, service_root):
        direct = canonical_json(
            api.diagnose(service_root / "logs", cache=True)).encode("utf-8")

        async def action(service):
            results = await asyncio.gather(*[
                http_request(service.host, service.port, "POST",
                             "/v1/diagnose", diagnose_body())
                for _ in range(6)])
            return results, service.coalescer.flights

        results, flights = run(with_service(service_root, action))
        assert flights == 1  # the pipeline ran exactly once
        assert {status for status, _, _ in results} == {200}
        bodies = {body for _, _, body in results}
        assert len(bodies) == 1  # byte-identical to each other...
        assert bodies == {direct}  # ...and to the direct API call

    def test_warm_repeat_is_a_cache_hit_with_identical_bytes(
            self, service_root):
        async def action(service):
            first = await http_request(service.host, service.port, "POST",
                                       "/v1/diagnose", diagnose_body())
            second = await http_request(service.host, service.port, "POST",
                                        "/v1/diagnose", diagnose_body())
            return first, second

        (s1, h1, b1), (s2, h2, b2) = run(with_service(service_root, action))
        assert (s1, s2) == (200, 200)
        assert h1["x-cache"] == "miss"
        assert h2["x-cache"] == "hit"
        assert b1 == b2
        assert h1["x-request-key"] == h2["x-request-key"]

    def test_changed_logdir_invalidates_the_cache(self, service_root):
        logs = service_root / "logs"

        async def action(service):
            first = await http_request(service.host, service.port, "POST",
                                       "/v1/diagnose", diagnose_body())
            touch_store(logs, b"")  # mtime bump = new content
            second = await http_request(service.host, service.port, "POST",
                                        "/v1/diagnose", diagnose_body())
            return first, second, service.coalescer.flights

        (_, h1, _), (_, h2, _), flights = run(
            with_service(service_root, action))
        assert h1["x-cache"] == "miss"
        assert h2["x-cache"] == "miss"  # fingerprint moved: no stale hit
        assert h1["x-request-key"] != h2["x-request-key"]
        assert flights == 2

    def test_symlinked_store_append_is_a_miss_with_fresh_bytes(
            self, service_root, tmp_path_factory):
        # a store whose source directories live on another mount and
        # are linked into place
        logs = service_root / "logs"
        mount = tmp_path_factory.mktemp("mount")
        for name in ("p0", "controller", "erd", "sched"):
            (logs / name).rename(mount / name)
            (logs / name).symlink_to(mount / name, target_is_directory=True)
        store = LogStore(logs)
        panic = LogRecord(2 * DAY + 9900.0, LogSource.CONSOLE, "c0-0c0s3n3",
                          "kernel_panic", {"why": "Fatal exception"})

        async def action(service):
            first = await http_request(service.host, service.port, "POST",
                                       "/v1/diagnose", diagnose_body())
            store.append_records([panic], store.manifest().clock())
            second = await http_request(service.host, service.port, "POST",
                                        "/v1/diagnose", diagnose_body())
            return first, second

        (s1, h1, b1), (s2, h2, b2) = run(with_service(service_root, action))
        assert (s1, s2) == (200, 200)
        assert (h1["x-cache"], h2["x-cache"]) == ("miss", "miss")
        assert b2 != b1
        assert b2 == canonical_json(api.diagnose(logs)).encode("utf-8")

    def test_windowed_parity_with_direct_api(self, service_root):
        windows = api.diagnose_windowed(service_root / "logs",
                                        window_days=1, cache=True)
        expected = canonical_json(
            [{"start_day": w.start_day, "end_day": w.end_day,
              "report": w.report} for w in windows]).encode("utf-8")

        async def action(service):
            return await http_request(
                service.host, service.port, "POST", "/v1/diagnose/windowed",
                diagnose_body(window_days=1))

        status, headers, body = run(with_service(service_root, action))
        assert status == 200
        assert body == expected

    def test_windowed_without_window_days_is_400(self, service_root):
        async def action(service):
            return await http_request(service.host, service.port, "POST",
                                      "/v1/diagnose/windowed",
                                      diagnose_body())

        status, _, body = run(with_service(service_root, action))
        assert status == 400
        assert b"window_days" in body

    def test_unknown_field_is_400(self, service_root):
        async def action(service):
            return await http_request(service.host, service.port, "POST",
                                      "/v1/diagnose",
                                      diagnose_body(politics="nope"))

        status, _, body = run(with_service(service_root, action))
        assert status == 400
        assert b"unknown request field" in body

    def test_escaping_logdir_is_403(self, service_root):
        async def action(service):
            return await http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body(logdir="../../etc"))

        status, _, _ = run(with_service(service_root, action))
        assert status == 403

    def test_escaping_cache_is_403_and_creates_nothing(
            self, service_root, tmp_path_factory):
        outside = tmp_path_factory.mktemp("outside") / "parse-cache"

        async def action(service):
            return await http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body(cache=str(outside)))

        status, _, body = run(with_service(service_root, action))
        assert status == 403
        assert b"cache" in body
        assert not outside.exists()

    def test_relative_cache_lands_under_the_root(
            self, service_root, tmp_path_factory, monkeypatch):
        cwd = tmp_path_factory.mktemp("cwd")
        monkeypatch.chdir(cwd)

        async def action(service):
            return await http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body(cache="parse-cache"))

        status, _, _ = run(with_service(service_root, action))
        assert status == 200
        assert any((service_root / "parse-cache").iterdir())
        assert not (cwd / "parse-cache").exists()

    def test_cache_inside_the_logdir_does_not_rekey_repeats(
            self, service_root):
        async def action(service):
            return [await http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body(cache="logs/pc")) for _ in range(3)]

        results = run(with_service(service_root, action))
        assert [status for status, _, _ in results] == [200, 200, 200]
        assert [h["x-cache"] for _, h, _ in results] == ["miss", "hit", "hit"]
        assert len({h["x-request-key"] for _, h, _ in results}) == 1
        assert any((service_root / "logs" / "pc").iterdir())

    def test_missing_store_is_404(self, service_root):
        async def action(service):
            return await http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body(logdir="not-a-store"))

        status, _, body = run(with_service(service_root, action))
        assert status == 404
        assert b"manifest.json" in body

    def test_wrong_method_is_405_with_allow(self, service_root):
        async def action(service):
            return await http_request(service.host, service.port, "GET",
                                      "/v1/diagnose")

        status, headers, _ = run(with_service(service_root, action))
        assert status == 405
        assert headers["allow"] == "POST"

    def test_unknown_path_is_404(self, service_root):
        async def action(service):
            return await http_request(service.host, service.port, "GET",
                                      "/v2/nothing")

        status, _, _ = run(with_service(service_root, action))
        assert status == 404


class TestQuotasOverHttp:
    def test_quota_exhaustion_is_429_with_retry_after(self, service_root):
        async def action(service):
            responses = []
            for _ in range(3):
                responses.append(await http_request(
                    service.host, service.port, "GET", "/v1/schema"))
            return responses

        responses = run(with_service(service_root, action,
                                     quota_rate=0.5, quota_burst=1))
        assert responses[0][0] == 200
        assert responses[1][0] == 429
        assert int(responses[1][1]["retry-after"]) >= 1
        assert b"quota" in responses[1][2]

    def test_tenants_have_separate_buckets(self, service_root):
        async def action(service):
            mine = await http_request(
                service.host, service.port, "GET", "/v1/schema",
                headers={"X-Tenant": "alice"})
            await http_request(service.host, service.port, "GET",
                               "/v1/schema", headers={"X-Tenant": "alice"})
            other = await http_request(
                service.host, service.port, "GET", "/v1/schema",
                headers={"X-Tenant": "bob"})
            return mine, other

        (s1, _, _), (s2, _, _) = run(with_service(
            service_root, action, quota_rate=0.5, quota_burst=1))
        assert s1 == 200
        assert s2 == 200  # bob unaffected by alice's exhaustion

    def test_health_is_never_throttled(self, service_root):
        async def action(service):
            statuses = []
            for _ in range(5):
                status, _, _ = await http_request(
                    service.host, service.port, "GET", "/v1/health")
                statuses.append(status)
            return statuses

        statuses = run(with_service(service_root, action,
                                    quota_rate=0.5, quota_burst=1))
        assert statuses == [200] * 5


class TestIntrospectionEndpoints:
    def test_schema_matches_api_report_schema(self, service_root):
        expected = canonical_json(api.report_schema()).encode("utf-8")

        async def action(service):
            return await http_request(service.host, service.port, "GET",
                                      "/v1/schema")

        status, _, body = run(with_service(service_root, action))
        assert status == 200
        assert body == expected
        assert json.loads(body)["title"] == "DiagnosisReport"

    def test_health_reports_counters(self, service_root):
        async def action(service):
            await http_request(service.host, service.port, "POST",
                               "/v1/diagnose", diagnose_body())
            await http_request(service.host, service.port, "POST",
                               "/v1/diagnose", diagnose_body())
            _, _, body = await http_request(service.host, service.port,
                                            "GET", "/v1/health")
            return json.loads(body)

        health = run(with_service(service_root, action))
        assert health["status"] == "ok"
        assert health["endpoints"]["diagnose"] == 2
        assert health["cache"]["hits"] == 1
        assert health["cache"]["misses"] == 1
        assert health["coalesce"]["flights"] == 1
        assert health["quota"]["tenants"] == 1
        assert health["backpressure"]["max_pending"] >= 1


class TestAlertStream:
    def test_streams_alert_lines_as_chunks(self, service_root):
        watch_dir = service_root / "watch"
        watch_dir.mkdir()
        lines = [json.dumps({"alert": i}) for i in range(3)]
        (watch_dir / "alerts.jsonl").write_text(
            "".join(line + "\n" for line in lines))

        async def action(service):
            return await http_request(
                service.host, service.port, "GET",
                "/v1/alerts/stream?out=watch&poll=0.01&idle_polls=2")

        status, headers, body = run(with_service(service_root, action))
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        received = [json.loads(line)
                    for line in body.decode().splitlines() if line]
        assert received == [{"alert": i} for i in range(3)]

    def test_stream_requires_out(self, service_root):
        async def action(service):
            return await http_request(service.host, service.port, "GET",
                                      "/v1/alerts/stream")

        status, _, _ = run(with_service(service_root, action))
        assert status == 400


class TestDrain:
    def test_shutdown_finishes_in_flight_and_closes_listener(
            self, service_root):
        async def action(service):
            release = asyncio.Event()
            original = service._compute_diagnose

            def slow_compute(req, logdir, windowed):
                # executor thread: spin until the test releases it
                while not release.is_set():
                    time.sleep(0.01)
                return original(req, logdir, windowed)

            service._compute_diagnose = slow_compute
            in_flight = asyncio.create_task(http_request(
                service.host, service.port, "POST", "/v1/diagnose",
                diagnose_body()))
            await asyncio.sleep(0.2)  # request reaches the executor
            shutdown = asyncio.create_task(service.shutdown())
            await asyncio.sleep(0.2)  # listener closes while work runs
            with pytest.raises(OSError):
                await asyncio.open_connection(service.host, service.port)
            release.set()
            status, _, body = await in_flight
            await shutdown
            return status, body, service

        status, body, service = run(with_service(
            service_root, action, drain_grace=20.0))
        assert status == 200  # the in-flight request finished
        assert json.loads(body)["degraded"] is False
        assert service.drained
        assert service.report().requests == 1
