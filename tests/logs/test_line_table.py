"""Property test: a parse through a line table equals the tableless parse.

The parse cache parses each file through a
:class:`~repro.logs.parsing.LineTable`, which classifies every distinct
``daemon: body`` tail once and hands each repeat the same attrs dict and
body.  The uncached reader and the tailer parse without one.  These
tests pin the two to the same records, health and malformed lines on
generated files drawn from small pools of tails (so tails repeat), and
check the sharing the table exists for: records with equal tails hold
one attrs dict and one body, and a fresh cache entry holds one object
per distinct component, daemon and attrs key or value.

The generated files mix every line shape the hardened parser knows:
blank and whitespace-only lines, lines with fewer than two spaces or
no ``": "``, torn stamps before and after the first good one, backward
jumps inside and beyond ``max_skew``, CRLF endings, the replacement
character, unknown daemons, a pattern whose optional groups are
absent, and both builtin catalogs.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.cache as cache_mod
from repro.logs.cache import ParseCache
from repro.logs.catalog import EventSpec
from repro.logs.catalogs import PlatformCatalog, compile_dispatchers, get_catalog
from repro.logs.parsing import DEFAULT_MAX_SKEW, REPLACEMENT_CHAR, LineParser
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
            ["line"] * 6 + ["odd", "torn", "unique", "mojibake", "nosep"]))
        if kind == "odd":
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        time = max(0.0, time + draw(STEPS))
        stamp = (draw(st.sampled_from(TORN_STAMPS)) if kind == "torn"
                 else CLOCK.stamp(time))
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


def parse(name: str, text: str, resume_at=None, line_table=False):
    parser = LineParser(CLOCK, catalog=CATALOGS[name])
    return _parse_log_text(text, parser, resume_at=resume_at,
                           line_table=line_table)


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
            plain = parse(name, text, resume)
            tabled = parse(name, text, resume, line_table=True)
            records, health, malformed = tabled
            assert records == plain[0]
            assert [type(r.time) for r in records] == \
                [type(r.time) for r in plain[0]]
            assert health.as_dict() == plain[1].as_dict()
            assert malformed == plain[2]
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
        records, health, _ = parse("cray-xc", "\n".join(lines) + "\n",
                                   line_table=True)
        assert health.parsed == 3
        assert records[0].attrs == {"count": "1", "bank": "4",
                                    "status": "ff"}
        assert records[0].attrs is records[1].attrs is records[2].attrs
        assert records[0].body is records[2].body
        assert records[0].component is records[2].component
        assert [r.component for r in records] == \
            ["c0-0c0s0n0", "c0-0c0s0n1", "c0-0c0s0n0"]

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
