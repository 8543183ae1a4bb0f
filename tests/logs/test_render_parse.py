"""Render/parse line roundtrips, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.catalog import EVENTS
from repro.logs.catalogs import get_catalog
from repro.logs.parsing import LineParser, parse_line, parse_lines
from repro.logs.record import LogRecord, LogSource, Severity
from repro.logs.render import render_line, render_records
from repro.simul.clock import SimClock

from tests.logs.test_catalog import ALL_CATALOG_EVENTS, sample_attrs_for

CLOCK = SimClock()

#: a plausible space-free component token per source, per dialect
COMPONENTS = {
    "cray-xc": {
        LogSource.CONSOLE: "c0-0c1s4n2",
        LogSource.MESSAGES: "c0-0c1s4n2",
        LogSource.CONSUMER: "c0-0c1s4n2",
        LogSource.CONTROLLER: "c0-0c1s4",
        LogSource.ERD: "erd",
        LogSource.SCHEDULER: "sdb",
    },
    "bgq-ras": {
        LogSource.CONSOLE: "R01-M0-N04-J07",
        LogSource.MESSAGES: "R01-M0-N04-J07",
        LogSource.CONSUMER: "R01-M0-N04-J07",
        LogSource.CONTROLLER: "R01-M0",
        LogSource.ERD: "mc-server",
        LogSource.SCHEDULER: "cobalt-server",
    },
}


def make_record(key, t=3600.5, catalog="cray-xc"):
    spec = get_catalog(catalog).events[key]
    component = COMPONENTS[catalog][spec.source]
    return LogRecord(time=t, source=spec.source, component=component,
                     event=key, attrs=sample_attrs_for(key, catalog))


class TestRenderLine:
    def test_line_shape(self):
        line = render_line(make_record("mce"), CLOCK)
        stamp, component, rest = line.split(" ", 2)
        assert component == "c0-0c1s4n2"
        assert rest.startswith("kernel: Machine Check Exception")

    def test_source_mismatch_rejected(self):
        bad = LogRecord(time=1.0, source=LogSource.ERD, component="erd",
                        event="mce", attrs={"bank": 1, "status": "ff"})
        with pytest.raises(ValueError, match="does not match"):
            render_line(bad, CLOCK)

    def test_render_records_generator(self):
        lines = list(render_records([make_record("mce"), make_record("nhf")], CLOCK))
        assert len(lines) == 2


class TestParseLine:
    @pytest.mark.parametrize("catalog,key", ALL_CATALOG_EVENTS)
    def test_full_roundtrip_every_event(self, catalog, key):
        cat = get_catalog(catalog)
        record = make_record(key, catalog=catalog)
        line = render_line(record, CLOCK, catalog=cat)
        parsed = parse_line(line, CLOCK, catalog=cat)
        assert parsed is not None
        assert parsed.event == key
        assert parsed.component == record.component
        assert parsed.time == pytest.approx(record.time, abs=1e-5)
        assert parsed.source is record.source

    def test_blank_and_malformed(self):
        parser = LineParser(CLOCK)
        assert parser.parse("") is None
        assert parser.parse("   \n") is None
        assert parser.parse("too short") is None
        assert parser.parse("a b c") is None  # no 'daemon: ' separator

    def test_bad_timestamp(self):
        assert parse_line("notatime c0-0 kernel: hello", CLOCK) is None

    def test_unrecognised_chatter_kept(self):
        line = f"{CLOCK.stamp(10.0)} c0-0c0s0n0 kernel: some unknown chatter"
        parsed = parse_line(line, CLOCK)
        assert parsed is not None
        assert parsed.event is None
        assert parsed.body == "some unknown chatter"
        assert parsed.source is LogSource.CONSOLE

    def test_unknown_daemon_defaults_to_scheduler_source(self):
        line = f"{CLOCK.stamp(10.0)} host crond: job ran"
        parsed = parse_line(line, CLOCK)
        assert parsed.source is LogSource.SCHEDULER

    def test_parse_lines_skips_bad(self):
        good = render_line(make_record("mce"), CLOCK)
        out = list(parse_lines([good, "", "garbage"], CLOCK))
        assert len(out) == 1

    def test_attr_accessors(self):
        line = render_line(make_record("ec_sedc_warning"), CLOCK)
        parsed = parse_line(line, CLOCK)
        assert parsed.attr_float("value") == pytest.approx(41.2)
        assert parsed.attr_float("nope", 9.0) == 9.0
        assert parsed.attr_int("nope", 3) == 3
        assert parsed.attr_int("value") == 0  # "41.2" is not an int

    @given(t=st.floats(min_value=0, max_value=86400 * 30, allow_nan=False),
           bank=st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_mce_roundtrip_property(self, t, bank):
        record = LogRecord(
            time=t, source=LogSource.CONSOLE, component="c0-0c0s0n0",
            event="mce", attrs={"bank": bank, "status": "abc0"},
        )
        parsed = parse_line(render_line(record, CLOCK), CLOCK)
        assert parsed.event == "mce"
        assert parsed.attr_int("bank") == bank
        assert parsed.time == pytest.approx(t, abs=1e-5)

    @given(
        job=st.integers(1, 10**6),
        code=st.integers(-128, 255),
    )
    @settings(max_examples=50, deadline=None)
    def test_scheduler_complete_roundtrip_property(self, job, code):
        for event, comp in (("slurm_complete", "sdb"), ("torque_complete", "sdb")):
            record = LogRecord(
                time=5.0, source=LogSource.SCHEDULER, component=comp,
                event=event, attrs={"job": job, "code": code},
            )
            parsed = parse_line(render_line(record, CLOCK), CLOCK)
            assert parsed.event == event
            assert parsed.attr_int("job") == job
            assert parsed.attr_int("code") == code


class TestStampMemo:
    """The parser keeps one whole-second prefix, not one per second seen."""

    def test_many_seconds_retain_constant_memory(self):
        import tracemalloc

        lines = [f"{CLOCK.stamp(float(s))} c0-0c0s0n0 kernel: tick"
                 for s in range(20_000)]
        parser = LineParser(CLOCK)
        parser.parse_ex(lines[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for line in lines:
                parser.parse_ex(line)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a memo entry per second would hold ~140 bytes each (~2.8 MB)
        assert retained < 64 * 1024

    def test_returning_to_an_earlier_second_is_exact(self):
        from repro.simul.clock import parse_syslog

        parser = LineParser(CLOCK)
        for t in (0.5, 0.75, 1.25, 0.9, 0.0, 86400.5, 0.1):
            stamp = CLOCK.stamp(t)
            record = parser.parse(f"{stamp} c0-0c0s0n0 kernel: x")
            assert record.time == CLOCK.to_seconds(parse_syslog(stamp))
