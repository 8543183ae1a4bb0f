"""``repro obs summary`` rendering, including the crash-recovery flag."""

from __future__ import annotations

from repro.obs.export import render_summary


def metrics_snapshot(**counters):
    return {"counters": dict(counters), "gauges": {}, "histograms": {}}


class TestTruncatedTailHighlight:
    def test_flagged_when_tails_were_recovered(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"journal.truncated_tail": 2, "stream.polls": 40}))
        assert "! 2 crash-torn journal tail(s) cut" in text
        # the highlight reads as an annotation, after the raw counters
        lines = text.splitlines()
        assert lines[-1].lstrip().startswith("!")

    def test_silent_when_no_tail_was_recovered(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"stream.polls": 40}))
        assert "crash-torn" not in text

    def test_counter_still_listed_plainly(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"journal.truncated_tail": 1}))
        assert "journal.truncated_tail" in text


class TestServeHighlight:
    def test_hit_rate_and_coalescing_summarised(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"serve.cache.hit": 9, "serve.cache.miss": 1,
               "serve.coalesced": 5}))
        assert "report-cache hit rate 90.0%" in text
        assert "(9 hits / 1 misses)" in text
        assert "5 coalesced" in text
        assert "rejected" not in text

    def test_rejections_appended_when_present(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"serve.cache.hit": 1, "serve.cache.miss": 1,
               "serve.quota.rejected": 3,
               "serve.backpressure.rejected": 2}))
        assert "5 rejected (quota/backpressure)" in text

    def test_silent_without_service_traffic(self):
        text = render_summary(metrics=metrics_snapshot(
            **{"stream.polls": 40}))
        assert "service:" not in text
