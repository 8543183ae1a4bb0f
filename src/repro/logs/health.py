"""Ingestion health accounting: error policies and quarantine bookkeeping.

Production log stores are never pristine -- truncated writes, interleaved
lines, mojibake and missing files are the norm at the 37 GB+ scale the
paper mines.  The hardened readers classify every physical line they see
into exactly one of three buckets, so the fundamental conservation law

    read == parsed + quarantined + ignored        (per source)

holds at all times.  ``recovered`` counts lines that needed repair
(clamped clock skew, replaced encoding garbage) but still parsed; it is a
subset of ``parsed``, not a fourth bucket.

The :class:`ErrorPolicy` decides what happens to a line that cannot be
parsed at all:

* ``strict`` -- raise :class:`IngestionError` immediately (the seed
  behaviour an operator wants while debugging a renderer);
* ``skip`` -- count it as ignored and move on (the old silent default,
  now accounted);
* ``quarantine`` -- count it *and* append the raw line to
  ``<store>/quarantine/<source>.quarantine.log`` for later forensics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.logs.record import LogSource

__all__ = [
    "ErrorPolicy",
    "IngestionError",
    "SourceHealth",
    "IngestionHealth",
]


class ErrorPolicy(str, Enum):
    """What the readers do with an unparseable line."""

    STRICT = "strict"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        """Accept either the enum or its string value (CLI flags)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown error_policy {value!r}; expected one of "
                f"{[p.value for p in cls]}"
            ) from None


class IngestionError(RuntimeError):
    """A line (or file) could not be ingested under the strict policy."""

    def __init__(self, message: str, path: Optional[str] = None,
                 line: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


@dataclass
class SourceHealth:
    """Line accounting for one log source family."""

    read: int = 0
    parsed: int = 0
    quarantined: int = 0
    ignored: int = 0
    #: lines repaired in flight (skew clamp, encoding replacement); a
    #: subset of ``parsed``
    recovered: int = 0
    #: physical files seen for this source (0 == source missing)
    files: int = 0
    #: worker/file level failures that were retried serially
    retried_files: int = 0
    #: files whose final line had no newline at read time (a mid-write
    #: snapshot); the torn line is *held back*, never parsed or
    #: quarantined -- it is not damage, just data still arriving, so it
    #: participates in neither the conservation law nor ``degraded``
    partial_tail: int = 0

    @property
    def conserved(self) -> bool:
        """The conservation law every reader must maintain."""
        return self.read == self.parsed + self.quarantined + self.ignored

    def merge(self, other: "SourceHealth") -> None:
        """Fold another accounting (e.g. a worker's) into this one."""
        self.read += other.read
        self.parsed += other.parsed
        self.quarantined += other.quarantined
        self.ignored += other.ignored
        self.recovered += other.recovered
        self.files += other.files
        self.retried_files += other.retried_files
        self.partial_tail += other.partial_tail

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (pickles cheaply across process boundaries)."""
        return {
            "read": self.read,
            "parsed": self.parsed,
            "quarantined": self.quarantined,
            "ignored": self.ignored,
            "recovered": self.recovered,
            "files": self.files,
            "retried_files": self.retried_files,
            "partial_tail": self.partial_tail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "SourceHealth":
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass
class IngestionHealth:
    """Whole-store ingestion accounting, one :class:`SourceHealth` each."""

    sources: dict[LogSource, SourceHealth] = field(default_factory=dict)
    #: human-readable notes on anything abnormal (missing files, retried
    #: workers, decode repairs) -- surfaced on the diagnosis report
    notes: list[str] = field(default_factory=list)

    def source(self, source: LogSource) -> SourceHealth:
        """The accounting bucket for one source (created on demand)."""
        bucket = self.sources.get(source)
        if bucket is None:
            bucket = SourceHealth()
            self.sources[source] = bucket
        return bucket

    def note(self, message: str) -> None:
        """Record an abnormality once (idempotent per message)."""
        if message not in self.notes:
            self.notes.append(message)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def conserved(self) -> bool:
        """True when every source satisfies the conservation law."""
        return all(s.conserved for s in self.sources.values())

    @property
    def total_quarantined(self) -> int:
        return sum(s.quarantined for s in self.sources.values())

    @property
    def total_recovered(self) -> int:
        return sum(s.recovered for s in self.sources.values())

    @property
    def partial_tails(self) -> int:
        """Files whose final line was held back as a mid-write snapshot.

        Deliberately *not* part of :attr:`degraded`: a growing log's
        unterminated last line is normal operation, not corruption.
        """
        return sum(s.partial_tail for s in self.sources.values())

    @property
    def degraded(self) -> bool:
        """Anything worth flagging on the report?"""
        return bool(
            self.missing_sources()
            or self.total_quarantined
            or self.total_recovered
            or any(s.retried_files for s in self.sources.values())
        )

    def missing_sources(self) -> list[LogSource]:
        """Sources whose file set was empty at read time."""
        return [s for s, h in self.sources.items() if h.files == 0]

    def merge(self, other: "IngestionHealth") -> None:
        """Fold another health object into this one."""
        for source, bucket in other.sources.items():
            self.source(source).merge(bucket)
        for message in other.notes:
            self.note(message)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Table II style per-source census with the failure buckets."""
        lines = []
        for source in LogSource:
            bucket = self.sources.get(source)
            if bucket is None:
                continue
            status = "missing" if bucket.files == 0 else "ok"
            extras = []
            if bucket.quarantined:
                extras.append(f"{bucket.quarantined} quarantined")
            if bucket.ignored:
                extras.append(f"{bucket.ignored} ignored")
            if bucket.recovered:
                extras.append(f"{bucket.recovered} recovered")
            if bucket.retried_files:
                extras.append(f"{bucket.retried_files} files retried")
            if bucket.partial_tail:
                extras.append(f"{bucket.partial_tail} partial tail held back")
            tail = f" ({', '.join(extras)})" if extras else ""
            lines.append(
                f"{source.value:<11} {bucket.parsed}/{bucket.read} "
                f"lines parsed [{status}]{tail}"
            )
        return lines

    def render(self) -> str:
        """Multi-line human summary (used by the CLI)."""
        lines = ["ingestion health:"]
        lines.extend(f"  {line}" for line in self.summary_lines())
        for message in self.notes:
            lines.append(f"  ! {message}")
        return "\n".join(lines)


def conservation_violations(health: IngestionHealth) -> list[str]:
    """Human-readable description of every broken conservation law."""
    problems = []
    for source, bucket in health.sources.items():
        if not bucket.conserved:
            problems.append(
                f"{source.value}: read={bucket.read} != parsed={bucket.parsed}"
                f" + quarantined={bucket.quarantined} + ignored={bucket.ignored}"
            )
    return problems
