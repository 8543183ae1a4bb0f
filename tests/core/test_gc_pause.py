"""The collector pause around the pipeline's bulk phases.

``repro.core.gcpause.paused_gc`` turns CPython's cyclic collector off
while ingest, the pipeline build and the analyses allocate their
records.  These tests hold its contract: the caller's collector state
comes back exactly, on errors too; scopes nest; only the main thread
pauses, so a pipeline on a worker thread (the ``serve`` executor) keeps
the collector on; a child forked mid-pause starts unpaused; and no
collection runs inside a warm ``from_store``, ``run`` or
``api.diagnose``, nor in a warm ``LogStore.read_all`` under the pause.
"""

from __future__ import annotations

import gc
import os
import sys
import threading

import pytest

from repro.core.gcpause import pause_depth, paused_gc
from repro.core.pipeline import HolisticDiagnosis
from repro.logs.health import ErrorPolicy, IngestionError
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore
from repro.simul.clock import SimClock


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector on and no scope open."""
    assert pause_depth() == 0
    gc.enable()
    yield
    gc.enable()
    assert pause_depth() == 0


@pytest.fixture
def collections():
    """Collections started while the fixture is active (``gc.callbacks``)."""
    started: list[int] = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    yield started
    gc.callbacks.remove(note)


def damaged_store(root) -> LogStore:
    """A tiny store whose console log ends in unparseable lines."""
    bus = LogBus()
    bus.emit(LogRecord(5.0, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                       {"bank": 1, "status": "ff"}))
    bus.emit(LogRecord(3.0, LogSource.SCHEDULER, "sdb", "slurm_submit",
                       {"job": 7}))
    store = LogStore(root)
    store.write(bus, SimClock(), system="TT", seed=1, duration_seconds=10.0)
    with (root / "p0/console.log").open("a") as handle:
        handle.write("@@@ totally broken line\n")
    return store


class TestScopes:
    def test_pause_disables_then_restores(self):
        with paused_gc():
            assert not gc.isenabled()
            assert pause_depth() == 1
        assert gc.isenabled()

    def test_restored_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("boom")
        assert gc.isenabled()
        assert pause_depth() == 0

    def test_caller_with_gc_disabled_stays_disabled(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_scopes_restore_only_at_the_outermost_exit(self):
        with paused_gc():
            with paused_gc():
                assert pause_depth() == 2
            assert pause_depth() == 1
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_worker_thread_scope_leaves_the_collector_alone(self):
        """The serve shape: pipeline work on an executor thread."""
        seen: list[tuple[bool, int]] = []

        def worker():
            with paused_gc():
                seen.append((gc.isenabled(), pause_depth()))
                with paused_gc():
                    seen.append((gc.isenabled(), pause_depth()))
            seen.append((gc.isenabled(), pause_depth()))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(10)
        assert seen == [(True, 0)] * 3

    def test_worker_scopes_never_touch_a_main_thread_pause(self):
        """Workers opening and closing scopes inside the main thread's
        pause neither re-enable the collector nor leave it off."""
        breaches: list[int] = []

        def churn():
            for _ in range(2000):
                with paused_gc():
                    if gc.isenabled():
                        breaches.append(pause_depth())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with paused_gc():
                threads = [threading.Thread(target=churn) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not gc.isenabled()
                assert pause_depth() == 1
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert breaches == []
        assert gc.isenabled()
        assert pause_depth() == 0

    def test_pipeline_on_a_worker_thread_keeps_the_collector_on(
            self, diagnosed_scenario, collections):
        """``api.diagnose`` on an executor thread runs with the collector
        on throughout: its young-generation passes keep happening."""
        from concurrent.futures import ThreadPoolExecutor

        from repro import api

        _plat, _camp, store = diagnosed_scenario
        enabled: list[bool] = []

        def diagnose():
            gc.collect()
            collections.clear()
            report = api.diagnose(store.root)
            enabled.append(gc.isenabled())
            return report.failure_count, len(collections)

        with ThreadPoolExecutor(max_workers=1) as pool:
            count, passes = pool.submit(diagnose).result(timeout=120)
        assert count > 0
        assert enabled == [True]
        assert passes > 0
        assert pause_depth() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    @staticmethod
    def child_state() -> tuple[int, bool]:
        """Fork inside the caller's pause; the child's (depth, enabled)."""
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report and leave without running cleanup
            try:
                os.write(write, f"{pause_depth()},{int(gc.isenabled())}"
                         .encode())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as handle:
            depth, enabled = handle.read().split(",")
        os.waitpid(pid, 0)
        return int(depth), bool(int(enabled))

    def test_child_starts_unpaused_with_the_pre_pause_state(self):
        with paused_gc(), paused_gc():
            assert self.child_state() == (0, True)
            assert pause_depth() == 2
        assert gc.isenabled()

    def test_scope_inherited_by_a_child_is_inert_there(self):
        """A child that leaves the scope it was forked in closes no pause
        of its own, and can still pause afterwards."""
        read, write = os.pipe()
        pid = -1
        try:
            with paused_gc():
                pid = os.fork()
            if pid == 0:  # child: the inherited scope has just exited
                with paused_gc():
                    paused = not gc.isenabled()
                os.write(write, f"{pause_depth()},{int(gc.isenabled())},"
                                f"{int(paused)}".encode())
        finally:
            if pid == 0:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as handle:
            report = handle.read()
        os.waitpid(pid, 0)
        assert report == "0,1,1"

    def test_child_of_a_gc_disabled_caller_stays_disabled(self):
        gc.disable()
        with paused_gc():
            assert self.child_state() == (0, False)
        assert not gc.isenabled()


class TestPipeline:
    def test_from_store_and_run_restore_the_collector(
            self, diagnosed_scenario):
        _plat, _camp, store = diagnosed_scenario
        diag = HolisticDiagnosis.from_store(store)
        assert gc.isenabled() and pause_depth() == 0
        diag.run()
        assert gc.isenabled() and pause_depth() == 0

    def test_gc_disabled_caller_stays_disabled(self, diagnosed_scenario):
        _plat, _camp, store = diagnosed_scenario
        gc.disable()
        HolisticDiagnosis.from_store(store).run()
        assert not gc.isenabled()

    def test_strict_ingest_error_restores_the_collector(self, tmp_path):
        store = damaged_store(tmp_path / "logs")
        with pytest.raises(IngestionError):
            HolisticDiagnosis.from_store(store,
                                         error_policy=ErrorPolicy.STRICT)
        assert gc.isenabled() and pause_depth() == 0

    def test_no_collection_inside_from_store(self, diagnosed_scenario,
                                             tmp_path, collections):
        _plat, _camp, store = diagnosed_scenario
        cache = tmp_path / "pc"
        HolisticDiagnosis.from_store(store, cache=cache)     # cold: parse
        gc.collect()
        collections.clear()
        diag = HolisticDiagnosis.from_store(store, cache=cache)  # warm
        assert collections == []
        gc.collect()  # the pass the ingest allocations are owed
        collections.clear()
        diag.run()
        assert collections == []
        # the collector is back: allocation resumes triggering passes
        for _ in range(5):
            [[] for _ in range(2000)]
        assert collections

    def test_warm_read_all_restores_the_collector(self, diagnosed_scenario,
                                                  tmp_path, collections):
        _plat, _camp, store = diagnosed_scenario
        cached = store.with_cache(tmp_path / "pc")
        cached.read_all()                                    # cold: parse
        gc.collect()
        collections.clear()
        # the scope from_store opens around its reads: nothing on the
        # cache-hit path turns the collector back on
        with paused_gc():
            records = cached.read_all()                      # warm: hits
        assert collections == []
        assert records
        assert gc.isenabled() and pause_depth() == 0

    def test_no_collection_inside_api_diagnose(self, diagnosed_scenario,
                                               tmp_path, collections):
        """One scope spans ingest and analyses: the pass the ingested
        records would be owed between them never happens."""
        from repro import api

        _plat, _camp, store = diagnosed_scenario
        cache = tmp_path / "pc"
        want = api.diagnose(store.root, cache=cache)         # cold: parse
        gc.collect()
        collections.clear()
        report = api.diagnose(store.root, cache=cache)       # warm
        assert collections == []
        assert report.failure_count == want.failure_count
        assert gc.isenabled() and pause_depth() == 0
