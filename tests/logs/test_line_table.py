"""Differential test: the columnar file parse equals the per-line parse.

The batch readers and the parse cache parse a file as columns
(:func:`repro.logs.store._parse_log_text`): each line is split once,
each distinct ``daemon: body`` tail of the file is classified once
through a per-file table of tails (so records with equal tails share one
attrs dict and one body), stamps are converted in numpy with a scalar
fallback, and the skew clamp and torn-stamp repair read a running
maximum carried across blocks of lines.  The tailer parses line by line
through :meth:`~repro.logs.parsing.LineParser.parse_ex`.  These tests
pin the two to the same records (field by field, times by
``float.hex``), health and malformed lines on generated files drawn from
small pools of tails, with the block size cut to three lines so block
boundaries fall between any two kinds of line, and check the sharing
the table of tails exists for.

The generated files mix every line shape the hardened parser knows:
blank and whitespace-only lines, lines with fewer than two spaces or
no ``": "``, torn stamps before and after the first good one, backward
jumps inside and beyond ``max_skew``, CRLF endings, the replacement
character, unknown daemons, a pattern whose optional groups are
absent, both builtin catalogs, and the stamps the numpy path must hand
to the scalar one: year ``0000``, microseconds past 2**53, hour 24,
second 60, 29 February outside a leap year, whole-second stamps,
seven-digit fractions and non-ASCII digits.
"""

from __future__ import annotations

import re
import tempfile
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.cache as cache_mod
import repro.logs.store as store_mod
from repro.logs.cache import ParseCache
from repro.logs.catalog import EventSpec
from repro.logs.catalogs import PlatformCatalog, compile_dispatchers, get_catalog
from repro.logs.parsing import (
    DEFAULT_MAX_SKEW,
    REPLACEMENT_CHAR,
    LineParser,
    ParsedRecord,
    build_records,
)
from repro.logs.record import LogSource, Severity
from repro.logs.store import _parse_log_text
from repro.simul.clock import SimClock

from tests.logs.test_cache import entry_strings, most_copies
from tests.logs.test_catalog import sample_attrs_for

CLOCK = SimClock()

#: a dialect whose one pattern has optional groups, so a match can leave
#: some of them out of its attrs
_PROBE_SPEC = EventSpec(
    key="probe",
    source=LogSource.CONSOLE,
    daemon="probe",
    severity=Severity.WARNING,
    template="probe{node}{job}",
    pattern=re.compile(
        r"^probe(?: node=(?P<node>\S+))?(?: job=(?P<job>\d+))?$"),
)
PROBE = PlatformCatalog(
    name="line-table-probe",
    description="optional-group probe",
    events={"probe": _PROBE_SPEC},
    dispatchers=compile_dispatchers({"probe": _PROBE_SPEC}),
    daemon_sources={"probe": LogSource.CONSOLE},
)

COMPONENTS = ["c0-0c0s0n0", "c0-0c0s0n1", "c0-0c1s2", "erd", "sdb",
              "R01-M0-N04-J07"]


def catalog_tails(name: str) -> list[str]:
    """Every catalog event of one builtin dialect, rendered as a tail."""
    events = get_catalog(name).events
    return [f"{spec.daemon}: {spec.format(sample_attrs_for(key, name))}"
            for key, spec in sorted(events.items())]


#: tails every dialect sees: chatter of a known and an unknown daemon,
#: and a body holding a component's text
COMMON_TAILS = [
    "kernel: nothing the catalog knows",
    "mysteryd: an unknown daemon talking",
    "bc: c0-0c0s0n0",
]

#: tails without ": ": malformed before the stamp is read
NO_SEP_TAILS = ["kernel-no-separator", "daemon:no space after the colon"]

TAILS = {
    "cray-xc": catalog_tails("cray-xc") + COMMON_TAILS,
    "bgq-ras": catalog_tails("bgq-ras") + COMMON_TAILS,
    PROBE.name: [
        "probe: probe", "probe: probe node=c0-0c0s0n0",
        "probe: probe job=17", "probe: probe node=c0-0c0s0n1 job=17",
        "probe: probe node=17", "probe: probe job=x",
    ] + COMMON_TAILS,
}

CATALOGS = {"cray-xc": get_catalog("cray-xc"),
            "bgq-ras": get_catalog("bgq-ras"), PROBE.name: PROBE}

#: seconds between one good stamp and the next: forward steps, the
#: same second, small jitter back (kept) and jumps beyond the skew bound
#: (clamped)
STEPS = st.sampled_from([0.0, 0.25, 1.0, 7.5, 3600.0, -0.5, -60.0,
                         -DEFAULT_MAX_SKEW + 1.0, -DEFAULT_MAX_SKEW - 1.0,
                         -86400.0])

#: stamps a torn write leaves behind
TORN_STAMPS = ["T01:0####0000", "2015-01-05T01:00", "garbage",
               "2015-13-45T01:00:00.000000"]

#: stamps the numpy path must leave to the scalar one: year 0000 (numpy
#: accepts it), microseconds past 2**53 on both sides of the epoch,
#: values numpy refuses for the whole block (hour 24, second 60, 29
#: February of 2015), a leap day, a seven-digit and a five-digit
#: fraction, a bare "." and non-ASCII digits (fullwidth ones parse)
EDGE_STAMPS = ["0000-01-05T01:00:00.000000", "2400-01-05T01:00:00.123457",
               "1600-01-05T01:00:00.654321", "2015-01-05T24:00:00.000000",
               "2015-01-05T23:59:60.000000", "2015-02-29T00:00:00.000000",
               "2016-02-29T00:00:00.000001", "2015-01-05T01:00:00.1234567",
               "2015-01-05T01:00:00.12345", "2015-01-05T01:00:00.",
               "\u0662\u0660\u0661\u0665-01-05T01:00:00.000000",
               "\uff12\uff10\uff11\uff15-01-05T01:00:00.000000",
               "2015-01-05T01:00:00.\u0663"]

#: lines that never reach the stamp: blank, whitespace-only, fewer than
#: two spaces
ODD_LINES = ["", "   ", "\t", "justoneword", "two words"]


@st.composite
def log_lines(draw, catalog_name: str) -> list[str]:
    """One file's lines over a small pool of tails and components."""
    pool = draw(st.lists(st.sampled_from(TAILS[catalog_name]),
                         min_size=1, max_size=6))
    lines = []
    time = draw(st.sampled_from([0.0, 3600.0, 5 * 86400.0]))
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(
            ["line"] * 6 + ["odd", "torn", "edge", "unique", "mojibake",
                            "nosep"]))
        if kind == "odd":
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        time = max(0.0, time + draw(STEPS))
        if kind == "torn":
            stamp = draw(st.sampled_from(TORN_STAMPS))
        elif kind == "edge":
            stamp = draw(st.sampled_from(EDGE_STAMPS))
        else:
            stamp = CLOCK.stamp(time)
        if draw(st.booleans()):
            stamp = stamp[:19]  # a whole-second stamp
        tail = draw(st.sampled_from(NO_SEP_TAILS if kind == "nosep"
                                    else pool))
        if kind == "unique":
            tail = f"{tail} #{len(lines)}"
        elif kind == "mojibake":
            tail = tail.replace("e", REPLACEMENT_CHAR, 1)
        line = f"{stamp} {draw(st.sampled_from(COMPONENTS))} {tail}"
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            line += "\r"  # a CRLF ending
        lines.append(line)
    return lines


@st.composite
def log_files(draw):
    """(catalog name, text, resume_at) of one generated file."""
    name = draw(st.sampled_from(sorted(CATALOGS)))
    lines = draw(log_lines(name))
    text = "".join(line + "\n" for line in lines)
    if draw(st.booleans()):
        text += "2015-01-05T01:00:00 c0-0c0s0n0 kernel: torn tai"
    resume_at = draw(st.none() | st.sampled_from([0.0, 1800.0, 7200.0]))
    return name, text, resume_at


def per_line_parse(text: str, parser: LineParser, resume_at=None):
    """The reference: one :meth:`LineParser.parse_ex` call per line.

    The batch parse's loop before it went columnar: the torn tail held
    back, the mojibake scan once per file, blank lines ignored,
    malformed lines kept raw, one stable sort by time.
    """
    records, malformed = [], []
    read = parsed = recovered = ignored = 0
    parser.reset(resume_at)
    if text and not text.endswith("\n"):
        text = text[:text.rfind("\n") + 1]
    scan = REPLACEMENT_CHAR in text
    lines = text.split("\n")
    lines.pop()
    for line in lines:
        read += 1
        record, status, repaired = parser.parse_ex(line, scan)
        if record is not None:
            parsed += 1
            recovered += repaired
            records.append(record)
        elif status == "blank":
            ignored += 1
        else:
            malformed.append(line)
    records.sort(key=attrgetter("time"))
    health = {"read": read, "parsed": parsed, "quarantined": len(malformed),
              "ignored": ignored, "recovered": recovered}
    return records, health, malformed


def parse(name: str, text: str, resume_at=None):
    """The columnar parse's records, health and malformed lines."""
    parser = LineParser(CLOCK, catalog=CATALOGS[name])
    columns, health, malformed = store_mod._parse_log_text(
        text, parser, resume_at=resume_at)
    return build_records(columns), health, malformed


FIELDS = list(ParsedRecord.__dataclass_fields__)


def assert_same_records(records, want) -> None:
    """Field by field, times by their exact bits."""
    assert len(records) == len(want)
    for got, ref in zip(records, want):
        assert type(got.time) is float
        assert got.time.hex() == ref.time.hex()
        for name in FIELDS[1:]:
            assert getattr(got, name) == getattr(ref, name), name


def shared_strings(records) -> list[str]:
    """Every component, daemon and attrs key and value string."""
    strings = []
    for r in records:
        strings += [r.component, r.daemon, *r.attrs, *r.attrs.values()]
    return strings


def assert_tails_shared(records) -> None:
    """Records with equal tails hold one attrs dict and one body."""
    first = {}
    for r in records:
        seen = first.setdefault((r.daemon, r.body), r)
        assert seen.attrs is r.attrs
        assert seen.body is r.body


class TestLineTable:
    @given(case=log_files())
    @settings(max_examples=300, deadline=None)
    def test_equals_tableless_parse(self, case):
        name, text, resume_at = case
        for resume in (None, resume_at):
            want, health, malformed = per_line_parse(
                text, LineParser(CLOCK, catalog=CATALOGS[name]), resume)
            for block in (3, store_mod._PARSE_BLOCK):
                with mock.patch.object(store_mod, "_PARSE_BLOCK", block):
                    records, got_health, got_malformed = parse(
                        name, text, resume)
                assert_same_records(records, want)
                got = got_health.as_dict()
                assert {k: got[k] for k in health} == health
                assert got_malformed == malformed
                assert_tails_shared(records)
                assert most_copies(shared_strings(records)) <= 1

    @given(case=log_files())
    @settings(max_examples=60, deadline=None)
    def test_fresh_entry_holds_one_object_per_string(self, case):
        name, text, _ = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "console.log"
            path.write_text(text, encoding="utf-8", newline="")
            cache = ParseCache(Path(tmp) / "pc")
            parser = LineParser(CLOCK, catalog=CATALOGS[name])
            miss = cache.parse(path, parser)
            hit = cache.parse(path, LineParser(CLOCK,
                                               catalog=CATALOGS[name]))
            assert (cache.misses, cache.hits) == (1, 1)
            (entry_path,) = cache.entry_files()
            entry = cache_mod._read_entry(entry_path)
        assert miss[0] == hit[0] == parse(name, text)[0]
        assert most_copies(entry_strings(entry)) <= 1
        # the hit's records share what the parse shared (pickle memo)
        assert_tails_shared(hit[0])

    def test_repeated_tails_share_one_classification(self):
        lines = [f"{CLOCK.stamp(t)} {component} kernel: Machine Check "
                 f"Exception: 1 Bank 4: ff"
                 for t, component in [(1.0, "c0-0c0s0n0"),
                                      (2.0, "c0-0c0s0n1"),
                                      (3.0, "c0-0c0s0n0")]]
        records, health, _ = parse("cray-xc", "\n".join(lines) + "\n")
        assert health.parsed == 3
        assert records[0].attrs == {"count": "1", "bank": "4",
                                    "status": "ff"}
        assert records[0].attrs is records[1].attrs is records[2].attrs
        assert records[0].body is records[2].body
        assert records[0].component is records[2].component
        assert [r.component for r in records] == \
            ["c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s0n0"]

    def test_stamp_column_equals_scalar_stamps(self):
        # an epoch in year 1 puts year 0000 well inside 2**53 microseconds
        early = SimClock(epoch=datetime(1, 1, 1, tzinfo=timezone.utc))
        good = [CLOCK.stamp(t) for t in (0.0, 3600.25, 86400.0 * 400)]
        year_zero = ["0000-12-31T23:00:00.000000", early.stamp(7.5)]
        for clock, stamps in [
                (CLOCK, [*good, *EDGE_STAMPS, *TORN_STAMPS]),
                (CLOCK, [stamp[:19] for stamp in good]), (CLOCK, good),
                (early, [*year_zero, *good])]:
            parser = LineParser(clock)
            seconds, parsed = parser.stamp_column(stamps)
            for stamp, value, ok in zip(stamps, seconds.tolist(),
                                        parsed.tolist()):
                try:
                    want = LineParser(clock)._stamp_seconds(stamp)
                except ValueError:
                    assert not ok, stamp
                else:
                    assert ok, stamp
                    assert value.hex() == want.hex(), stamp

    def test_attrs_keys_are_one_object_across_specs(self):
        from repro.logs.catalog import DISPATCHERS

        keys = {}
        for dispatcher in DISPATCHERS.values():
            entries = ([dispatcher._all] if dispatcher._buckets is None
                       else [*dispatcher._buckets.values(), dispatcher._miss])
            for entry in filter(None, entries):
                for names, _ in entry[2].values():
                    for name in names:
                        assert keys.setdefault(name, name) is name
        assert "node" in keys
