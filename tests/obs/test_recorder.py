"""Recorder semantics: no-op identity, nesting, drain/absorb, session.

Two contracts matter most: **disabled mode allocates nothing** (every
``span()`` call returns the same shared no-op object, so the <3%%
overhead gate holds by construction), and **span nesting survives every
boundary** -- threads nest independently and start as roots, asyncio
tasks nest in their own copy of the context, forked workers inherit
the forking thread's open span, and ``drain_payload``/``absorb`` round
the wire format without loss.
"""

import asyncio
import json
import threading

import pytest

from repro.obs import (
    OBS,
    ObsConfig,
    chrome_trace,
    configure,
    session,
    summarize_file,
    validate_chrome_trace,
)
from repro.obs.recorder import NOOP_SPAN, Recorder, SpanRecord


def live_recorder():
    recorder = Recorder()
    recorder.enabled = True
    return recorder


class TestDisabledMode:
    def test_span_returns_the_shared_noop_singleton(self):
        recorder = Recorder()
        assert recorder.enabled is False
        first = recorder.span("a", "cat", file="x")
        second = recorder.span("b")
        assert first is NOOP_SPAN and second is NOOP_SPAN

    def test_noop_span_absorbs_the_whole_protocol(self):
        recorder = Recorder()
        with recorder.span("a") as span:
            assert span.tag(anything=1) is span
            assert span.add(records=10) is span
        assert recorder.spans() == []

    def test_noop_span_does_not_swallow_exceptions(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("a"):
                raise RuntimeError("boom")

    def test_nothing_is_recorded_while_disabled(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        assert recorder.spans() == []
        assert recorder.metrics.snapshot()["counters"] == {}


class TestSpanNesting:
    def test_nested_span_records_parent_linkage(self):
        recorder = live_recorder()
        with recorder.span("outer", "t") as outer:
            with recorder.span("inner", "t") as inner:
                pass
        spans = {s.name: s for s in recorder.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].span_id != spans["outer"].span_id
        assert inner.span_id == spans["inner"].span_id
        assert outer.span_id == spans["outer"].span_id

    def test_siblings_share_a_parent_not_each_other(self):
        recorder = live_recorder()
        with recorder.span("outer") as outer:
            with recorder.span("a"):
                pass
            with recorder.span("b"):
                pass
        spans = {s.name: s for s in recorder.spans()}
        assert spans["a"].parent_id == outer.span_id
        assert spans["b"].parent_id == outer.span_id

    def test_tag_overwrites_add_accumulates(self):
        recorder = live_recorder()
        with recorder.span("s", mode="x") as span:
            span.tag(mode="y", file="f.log")
            span.add(records=2).add(records=3, bytes=100)
        (record,) = recorder.spans()
        assert record.tags == {
            "mode": "y", "file": "f.log", "records": 5, "bytes": 100}

    def test_exception_tags_error_and_propagates(self):
        recorder = live_recorder()
        with pytest.raises(KeyError):
            with recorder.span("s"):
                raise KeyError("gone")
        (record,) = recorder.spans()
        assert record.tags["error"] == "KeyError"
        assert record.duration >= 0.0

    def test_threads_nest_independently(self):
        recorder = live_recorder()
        started = threading.Barrier(2)

        def work(label):
            started.wait()
            with recorder.span(f"outer-{label}"):
                with recorder.span(f"inner-{label}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = {s.name: s for s in recorder.spans()}
        assert len(spans) == 4
        for label in (0, 1):
            inner, outer = spans[f"inner-{label}"], spans[f"outer-{label}"]
            assert inner.parent_id == outer.span_id
            assert inner.tid == outer.tid


class TestSpanContext:
    def test_fresh_thread_starts_as_a_root(self):
        recorder = live_recorder()
        opened, release = threading.Event(), threading.Event()

        def hold():
            with recorder.span("held"):
                opened.set()
                release.wait(5)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert opened.wait(5)

            def fresh():
                with recorder.span("fresh"):
                    pass

            worker = threading.Thread(target=fresh)
            worker.start()
            worker.join()
        finally:
            release.set()
            holder.join()
        spans = {s.name: s for s in recorder.spans()}
        assert spans["fresh"].parent_id is None
        assert spans["held"].parent_id is None

    def test_interleaved_tasks_nest_under_their_own_outer_span(self):
        recorder = live_recorder()

        async def work(label):
            with recorder.span(f"outer-{label}"):
                await asyncio.sleep(0)  # let the other task open its spans
                with recorder.span(f"inner-{label}"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(work(0), work(1))

        asyncio.run(main())
        spans = {s.name: s for s in recorder.spans()}
        assert len(spans) == 4
        for label in (0, 1):
            inner, outer = spans[f"inner-{label}"], spans[f"outer-{label}"]
            assert outer.parent_id is None
            assert inner.parent_id == outer.span_id

    def test_reset_clears_the_open_span(self):
        recorder = live_recorder()
        span = recorder.span("left-open").__enter__()
        assert recorder.current_span_id() == span.span_id
        recorder.reset()
        assert recorder.current_span_id() is None


class TestDrainAndAbsorb:
    def _worker_payload(self):
        worker = live_recorder()
        with worker.span("work", "w", unit=1):
            pass
        worker.metrics.counter("done").inc(2)
        return worker, worker.drain_payload()

    def test_payload_is_plain_data_and_empties_the_worker(self):
        worker, payload = self._worker_payload()
        json.dumps(payload)  # must survive a result pipe
        assert worker.spans() == []
        assert worker.metrics.snapshot()["counters"] == {}

    def test_absorb_restores_spans_and_merges_metrics(self):
        _, payload = self._worker_payload()
        parent = live_recorder()
        parent.metrics.counter("done").inc(1)
        parent.absorb(payload)
        (record,) = parent.spans()
        assert isinstance(record, SpanRecord)
        assert record.name == "work" and record.tags == {"unit": 1}
        assert parent.metrics.counter("done").value == 3

    def test_absorb_none_or_empty_is_a_noop(self):
        parent = live_recorder()
        parent.absorb(None)
        parent.absorb({})
        assert parent.spans() == []

    def test_span_record_round_trips_through_dict(self):
        _, payload = self._worker_payload()
        record = SpanRecord.from_dict(payload["spans"][0])
        assert record.as_dict() == payload["spans"][0]


class TestConfigureAndSession:
    def test_enabling_starts_a_fresh_session(self):
        configure(ObsConfig(enabled=True))
        with OBS.span("old"):
            pass
        configure(ObsConfig(enabled=False))  # keep spans for export
        assert [s.name for s in OBS.spans()] == ["old"]
        configure(ObsConfig(enabled=True))   # fresh session drops them
        assert OBS.spans() == []

    def test_session_restores_previous_enabled_state(self):
        assert OBS.enabled is False
        with session(ObsConfig()) as recorder:
            assert recorder is OBS and OBS.enabled is True
        assert OBS.enabled is False

    def test_session_writes_valid_trace_and_metrics(self, tmp_path):
        trace_path = tmp_path / "deep" / "out.trace.json"
        metrics_path = tmp_path / "out.metrics.json"
        with session(ObsConfig(trace_path=trace_path,
                               metrics_path=metrics_path)):
            with OBS.span("outer", "t"):
                with OBS.span("inner", "t") as span:
                    span.add(records=7)
            OBS.metrics.counter("seen").inc(7)
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        assert by_name["inner"]["args"]["parent_id"] == \
            by_name["outer"]["args"]["span_id"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"] == {"seen": 7}
        # and the CLI summary renderer accepts both files
        assert "inner" in summarize_file(trace_path)
        assert "seen" in summarize_file(metrics_path)

    def test_summarize_file_rejects_unknown_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"unrelated": true}')
        with pytest.raises(ValueError, match="neither a Chrome trace"):
            summarize_file(path)


class TestChromeTrace:
    def test_timestamps_normalise_to_earliest_span(self):
        recorder = live_recorder()
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        trace = chrome_trace(recorder.spans())
        ts = [e["ts"] for e in trace["traceEvents"]]
        assert min(ts) == 0.0
        assert all(t >= 0 for t in ts)
        assert trace["displayTimeUnit"] == "ms"

    def test_empty_span_list_is_a_valid_trace(self):
        trace = chrome_trace([])
        assert trace["traceEvents"] == []
        assert validate_chrome_trace(trace) == []

    def test_validator_flags_malformed_events(self):
        assert validate_chrome_trace([]) != []  # not even an object
        assert validate_chrome_trace({}) != []  # no traceEvents
        bad = {"traceEvents": [{"name": "x", "cat": "c", "ph": "B",
                                "ts": 0, "dur": -1.0, "pid": 1, "tid": 1,
                                "args": {}}]}
        problems = validate_chrome_trace(bad)
        assert any("ph='X'" in p for p in problems)
        assert any("negative dur" in p for p in problems)
