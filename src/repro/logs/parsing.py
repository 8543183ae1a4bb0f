"""Parsing text log lines back into typed records.

This is the front end of the diagnosis pipeline: it sees only text.  A
line is split into ``timestamp component daemon: body`` and the body is
matched against the catalog patterns registered for that daemon.  Matching
is attempted against a per-daemon dispatch table ordered so that the more
specific patterns win; an unrecognised body yields a ``ParsedRecord`` with
``event=None`` (production logs always contain chatter the miner ignores).

Parsed timestamps are converted back to simulation seconds through the
same :class:`~repro.simul.clock.SimClock` the writer used, so time
arithmetic in the analysis layers is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.logs.catalog import CRAY_XC
from repro.logs.catalogs import PlatformCatalog, resolve_catalog
from repro.logs.record import LogSource, Severity
from repro.simul.clock import SimClock, parse_syslog

__all__ = [
    "ParsedRecord",
    "ParseOutcome",
    "LineParser",
    "RecordColumns",
    "build_records",
    "parse_line",
    "parse_lines",
    "DEFAULT_MAX_SKEW",
    "REPLACEMENT_CHAR",
]

#: largest backwards timestamp jump (seconds) treated as clock skew and
#: clamped; larger jumps usually mean daily rotation, which file order
#: already handles, so the bound is deliberately generous
DEFAULT_MAX_SKEW = 3600.0

#: the substitution character ``errors="replace"`` decoding leaves behind
REPLACEMENT_CHAR = "�"
_REPLACEMENT = REPLACEMENT_CHAR


@dataclass(slots=True, unsafe_hash=True)
class ParsedRecord:
    """One parsed log line.

    ``event`` is None when the body matched no catalog pattern; the raw
    body is always retained for forensic display (Table V style output).

    Slotted and built with a plain (non-frozen) ``__init__`` because
    millions are allocated per ingestion pass; ``unsafe_hash`` keeps the
    field-based hash the previously frozen class had.  Records are
    value objects by convention: never mutate one or its ``attrs`` after
    construction -- chatter records share a single empty ``attrs`` dict,
    and the records of one file's columnar parse share the attrs dict
    and body of every equal line tail (so do the records of one cache
    entry after a hit, through the pickle memo).
    """

    time: float
    source: LogSource
    component: str
    daemon: str
    event: Optional[str]
    attrs: dict[str, str] = field(default_factory=dict)
    severity: Severity = Severity.INFO
    body: str = ""

    def __reduce__(self):
        """Compact pickling: rebuild through ``__init__`` positionally.

        The default slots-dataclass reduction (class + state dict) costs
        several microseconds per record, which dominates any bulk
        pickle of a record list.
        """
        return (ParsedRecord, (self.time, self.source, self.component,
                               self.daemon, self.event, self.attrs,
                               self.severity, self.body))

    def attr(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup with default."""
        return self.attrs.get(key, default)

    def attr_float(self, key: str, default: float = 0.0) -> float:
        """Attribute as float (SEDC values and thresholds)."""
        raw = self.attrs.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            return default

    def attr_int(self, key: str, default: int = 0) -> int:
        """Attribute as int (job ids, exit codes)."""
        raw = self.attrs.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            return default


class ParseOutcome(NamedTuple):
    """Classified result of one hardened parse attempt.

    ``status`` is one of ``"parsed"`` (a record came out, possibly after
    repair -- see ``recovered``), ``"blank"`` (empty line, ignorable by
    construction) or ``"malformed"`` (nothing salvageable; the error
    policy decides its fate).  A NamedTuple, not a dataclass: one is
    allocated per log line, so construction cost is on the hot path.
    """

    record: Optional[ParsedRecord]
    status: str
    recovered: bool = False


#: shared outcomes for the two record-less cases (hot-path allocation)
_BLANK = ParseOutcome(None, "blank")
_MALFORMED = ParseOutcome(None, "malformed")

#: classification of a line tail with no ``": "`` (the line is malformed)
_NO_TAIL = ()

#: shared attrs sentinel for chatter records -- most production lines are
#: unrecognised chatter, so skipping the per-line dict allocation matters
_EMPTY_ATTRS: dict[str, str] = {}

#: whole-second stamp prefix eligible for the memoised fast path; ASCII
#: digits only so exotic stamps keep the exact strptime semantics
_STAMP_HEAD = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}$")

#: the stamp shape :meth:`LineParser.stamp_column` parses in numpy ("0"
#: stands for any ASCII digit), padded by one empty code point
_STAMP_FORM = "0000-00-00T00:00:00.000000"
_STAMP_WIDTH = len(_STAMP_FORM) + 1
_STAMP_DTYPE = f"U{_STAMP_WIDTH}"
_ZERO = ord("0")
#: per-column code point bounds of that shape
_STAMP_LO = np.array([ord(c) for c in _STAMP_FORM] + [0], dtype=np.uint32)
_STAMP_HI = np.array([ord("9") if c == "0" else ord(c) for c in _STAMP_FORM]
                     + [0], dtype=np.uint32)
#: microseconds from the epoch past which the int64 to float64 cast
#: stops being exact
_EXACT_US = 2 ** 53


class LineParser:
    """Reusable parser bound to one clock.

    Matching goes through the compiled per-daemon dispatchers built once
    at :mod:`repro.logs.catalog` import (one alternation regex per daemon
    plus a literal-prefix pre-filter); :meth:`parse` is then a hot loop
    of (split, dispatcher lookup, single regex match).

    :meth:`parse` keeps the seed semantics (None for anything it cannot
    handle); :meth:`parse_ex` is the hardened entry point used by the
    resilient readers -- it classifies every line and repairs what it
    can: bounded clock-skew clamping for out-of-order stamps, last-known
    time substitution for lines whose stamp was destroyed by a torn
    write, and accounting of mojibake survivors.  Call :meth:`reset`
    between files so skew tracking never bleeds across file boundaries.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        max_skew: float = DEFAULT_MAX_SKEW,
        catalog: "str | PlatformCatalog | None" = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.max_skew = float(max_skew)
        #: the platform dialect this parser recognises (default cray-xc)
        self.catalog = CRAY_XC if catalog is None else resolve_catalog(catalog)
        # bound locally: dispatcher lookup is the hottest dict access
        self._dispatchers = self.catalog.dispatchers
        self._daemon_sources = self.catalog.daemon_sources
        self._default_source = self.catalog.default_source
        self._last_time: Optional[float] = None
        #: the last whole-second stamp prefix and its integer
        #: microseconds since epoch (one entry: only consecutive lines
        #: share a second, and a long-lived parser must not grow)
        self._prefix: Optional[str] = None
        self._prefix_us = 0
        #: the epoch in numpy's integer microseconds (stamp_column)
        self._epoch_us = np.datetime64(self.clock._epoch_naive, "us") \
            .astype(np.int64)

    def reset(self, last_time: Optional[float] = None) -> None:
        """Forget skew state (call at each file boundary).

        ``last_time`` resumes it instead: the latest good stamp of the
        lines already parsed from the same file, so parsing the rest of
        a file repairs its lines exactly as one pass over the whole
        file would.
        """
        self._last_time = last_time

    def _stamp_seconds(self, stamp: str) -> float:
        """Simulation seconds for a stamp (raises ValueError when torn).

        Consecutive log lines often share their whole-second prefix, so
        the last prefix's microseconds-since-epoch is kept and only the
        fractional part is parsed for a line in the same second.  All
        arithmetic is integer microseconds divided once at the end -- the
        exact formula ``timedelta.total_seconds`` uses -- so results are
        bit-identical to the ``parse_syslog``/``to_seconds`` slow path,
        which remains the fallback for every stamp shape the fast path
        cannot prove.
        """
        head = stamp[:19]
        if head == self._prefix:
            us = self._prefix_us
        else:
            if _STAMP_HEAD.match(head) is None:
                return self.clock.to_seconds(parse_syslog(stamp))
            delta = datetime.fromisoformat(head) - self.clock._epoch_naive
            us = (delta.days * 86400 + delta.seconds) * 1_000_000 \
                + delta.microseconds
            self._prefix = head
            self._prefix_us = us
        rest = stamp[19:]
        if not rest:
            return us / 1_000_000
        frac = rest[1:]
        if rest[0] == "." and 0 < len(frac) <= 6 and frac.isascii() \
                and frac.isdigit():
            return (us + int(frac.ljust(6, "0"))) / 1_000_000
        return self.clock.to_seconds(parse_syslog(stamp))

    def parse(self, line: str) -> Optional[ParsedRecord]:
        """Parse one line; None for blank/malformed lines."""
        line = line.rstrip("\n")
        if not line or line.isspace():
            return None
        # split "stamp component daemon: body" (the hottest loop in
        # ingestion, so parse_ex() repeats it rather than call a helper)
        parts = line.split(" ", 2)
        if len(parts) < 3:
            return None
        stamp, component, rest = parts
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return None
        try:
            time = self._stamp_seconds(stamp)
        except ValueError:
            return None
        # match the body against the daemon's compiled dispatcher;
        # unrecognised chatter is kept, classified by daemon only
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body)
            if hit is not None:
                spec, attrs = hit
                return ParsedRecord(time, spec.source, component, daemon,
                                    spec.key, attrs, spec.severity, body)
        return ParsedRecord(
            time, self._daemon_sources.get(daemon, self._default_source),
            component, daemon, None, _EMPTY_ATTRS, Severity.INFO, body)

    def parse_ex(self, line: str, scan_mojibake: bool = True) -> ParseOutcome:
        """Hardened parse: classify and, where possible, repair a line.

        Repairs (all counted as ``recovered``):

        * **clock skew** -- a stamp more than :attr:`max_skew` seconds
          behind the last good one is clamped forward to it (bounded
          skew correction; small jitter is left for downstream sorting);
        * **destroyed stamp** -- a line whose stamp no longer parses but
          whose ``daemon: body`` structure survived inherits the last
          good time (torn writes shear mostly at line starts);
        * **mojibake survivors** -- lines that decoded with replacement
          characters yet still parsed.

        ``scan_mojibake=False`` skips the per-line replacement-character
        scan; the caller passes it when one scan of a larger buffer
        already proved the line clean.

        The tailer parses line by line through here; the batch readers
        parse whole files as columns
        (:func:`repro.logs.store._parse_log_text`), which must agree with
        this method line for line.
        """
        # a trailing "\r" is the rest of a CRLF ending, not the body
        line = line.rstrip("\r\n")
        if not line or line.isspace():
            return _BLANK
        # split as in parse()
        parts = line.split(" ", 2)
        if len(parts) < 3:
            return _MALFORMED
        stamp, component, rest = parts
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return _MALFORMED
        recovered = scan_mojibake and _REPLACEMENT in line
        last = self._last_time
        try:
            time = self._stamp_seconds(stamp)
        except ValueError:
            if last is None:
                return _MALFORMED
            time = last
            recovered = True
        if last is None or time > last:
            self._last_time = time
        elif time < last - self.max_skew:
            time = last
            recovered = True
        # classify as in parse()
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body)
            if hit is not None:
                spec, attrs = hit
                record = ParsedRecord(time, spec.source, component, daemon,
                                      spec.key, attrs, spec.severity, body)
                return ParseOutcome(record, "parsed", recovered)
        record = ParsedRecord(
            time, self._daemon_sources.get(daemon, self._default_source),
            component, daemon, None, _EMPTY_ATTRS, Severity.INFO, body)
        return ParseOutcome(record, "parsed", recovered)

    def classify(self, rest: str, share) -> tuple:
        """One line tail's ``(source, daemon, event, attrs, severity, body)``.

        ``rest`` is a line after its component; a tail with no ``": "``
        classifies as ``()`` (the line is malformed).  ``share`` is a
        ``dict.setdefault`` folding equal daemon and attrs key and value
        strings onto one object.  The columnar parse classifies each
        distinct tail of a file once and hands every repeat this tuple,
        so records with equal tails hold one attrs dict and one body.
        """
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return _NO_TAIL
        daemon = share(daemon, daemon)
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body, share)
            if hit is not None:
                spec, attrs = hit
                return (spec.source, daemon, spec.key, attrs,
                        spec.severity, body)
        return (self._daemon_sources.get(daemon, self._default_source),
                daemon, None, _EMPTY_ATTRS, Severity.INFO, body)

    def stamp_column(self, stamps: Sequence[str]) -> tuple[np.ndarray,
                                                            np.ndarray]:
        """Simulation seconds of a column of stamps, and which parsed.

        Returns ``(seconds, good)``: ``float64`` seconds and a ``bool``
        mask, ``False`` where the stamp is torn (its seconds are then
        meaningless).  Every value is bit-identical to
        :meth:`_stamp_seconds`:

        * a stamp of the exact ``YYYY-MM-DDTHH:MM:SS.ffffff`` ASCII
          shape is parsed by numpy (``datetime64[us]``), the epoch
          subtracted in integer microseconds and the result divided by
          ``1_000_000`` once -- the scalar formula, exact while the
          microseconds stay below 2**53;
        * every other stamp takes :meth:`_stamp_seconds`: another shape,
          year ``0000`` (numpy accepts it, ``fromisoformat`` does not),
          microseconds at or past 2**53, and the whole column's vector
          rows when numpy refuses one of them (hour 24, second 60, a
          29 February outside a leap year, ...).
        """
        count = len(stamps)
        seconds = np.zeros(count)
        good = np.ones(count, dtype=bool)
        # one column wider than the shape: a longer stamp keeps a
        # non-zero code point there instead of being silently truncated
        text = np.array(stamps, dtype=_STAMP_DTYPE)
        codes = text.view(np.uint32).reshape(count, _STAMP_WIDTH)
        vector = ((codes >= _STAMP_LO) & (codes <= _STAMP_HI)).all(axis=1)
        vector &= (codes[:, :4] != _ZERO).any(axis=1)
        rows = np.flatnonzero(vector)
        try:
            parsed = (text if len(rows) == count else text[rows]) \
                .astype("datetime64[us]").view(np.int64)
        except ValueError:
            vector[:] = False
        else:
            micros = parsed - self._epoch_us
            exact = np.abs(micros) < _EXACT_US
            seconds[rows] = micros / 1_000_000
            vector[rows[~exact]] = False
        stamp_seconds = self._stamp_seconds
        for row in np.flatnonzero(~vector).tolist():
            try:
                seconds[row] = stamp_seconds(stamps[row])
            except ValueError:
                good[row] = False
        return seconds, good

    def parse_many(self, lines: Iterable[str]) -> Iterator[ParsedRecord]:
        """Parse an iterable of lines, skipping unparseable ones."""
        for line in lines:
            rec = self.parse(line)
            if rec is not None:
                yield rec


#: a record list as eight columns, one list per :class:`ParsedRecord`
#: field (the parse cache's entry format)
RecordColumns = tuple[list, list, list, list, list, list, list, list]


def build_records(columns: RecordColumns) -> list[ParsedRecord]:
    """Records from eight columns, one per :class:`ParsedRecord` field.

    One C-level ``map``: the columnar parse and a parse-cache hit both
    build their records through here.
    """
    return list(map(ParsedRecord, *columns))


def parse_line(
    line: str,
    clock: Optional[SimClock] = None,
    catalog: "str | PlatformCatalog | None" = None,
) -> Optional[ParsedRecord]:
    """One-shot convenience wrapper around :class:`LineParser`."""
    return LineParser(clock, catalog=catalog).parse(line)


def parse_lines(
    lines: Iterable[str],
    clock: Optional[SimClock] = None,
    catalog: "str | PlatformCatalog | None" = None,
) -> Iterator[ParsedRecord]:
    """One-shot convenience wrapper for many lines."""
    return LineParser(clock, catalog=catalog).parse_many(lines)
