"""Deterministic log-store corruption injection (chaos for the readers).

The fault injector (:mod:`repro.faults.injector`) breaks the simulated
*machine*; this module breaks the *logs themselves*, reproducing the
pathologies production syslog directories accumulate at the 37 GB+
scale the paper mines: torn writes, interleaved lines from concurrent
writers, duplicated lines from retransmitting relays, mojibake from
firmware consoles, clock skew, vanished files and gzip-rotated
segments.

All mutation randomness flows through :class:`~repro.simul.rng.RngStream`
children keyed by ``(mode, relative path)``, so a given ``(store, seed,
spec)`` always produces byte-identical corruption -- the chaos gate can
replay any failure.  Mutations are applied at the *byte* level so the
injector can produce genuinely invalid UTF-8, not just odd characters.

Typical use (also what ``scripts/run_chaos.sh`` drives)::

    injector = CorruptionInjector(store, seed=3)
    report = injector.apply(CorruptionSpec(modes=ALL_MODES, rate=0.05))
    health = IngestionHealth()
    HolisticDiagnosis.from_store(store, error_policy="quarantine",
                                 health=health).run()
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from repro.logs.record import LogSource
from repro.logs.store import LogStore
from repro.simul.rng import RngStream

__all__ = [
    "CorruptionMode",
    "CorruptionSpec",
    "CorruptionReport",
    "CorruptionInjector",
    "ALL_MODES",
    "LIFECYCLE_MODES",
]

#: invalid-UTF-8 byte sequences sprinkled by the mojibake mode (lone
#: continuation bytes, an overlong start byte, a stray UTF-16 BOM half)
_GARBAGE = (b"\x80\x9f", b"\xc0\xaf", b"\xff\xfe", b"\xf8\x88\x80")


class CorruptionMode(str, Enum):
    """One family of on-disk log damage."""

    #: lines cut mid-way (torn writes; the file tail loses its newline)
    TRUNCATE = "truncate"
    #: two adjacent lines spliced into one (interleaved partial writes)
    INTERLEAVE = "interleave"
    #: lines repeated back-to-back (retransmitting syslog relays)
    DUPLICATE = "duplicate"
    #: invalid UTF-8 bytes injected into line bodies
    MOJIBAKE = "mojibake"
    #: local windows of lines shuffled (out-of-order timestamps)
    REORDER = "reorder"
    #: one whole source family emptied or deleted
    DROP_SOURCE = "drop_source"
    #: some files gzip-compressed in place (rotation mid-ingest)
    GZIP_ROTATE = "gzip_rotate"
    # -- file-lifecycle faults (the streaming tailer's chaos diet) -----
    #: active file renamed to a rotated segment, fresh active created
    ROTATE = "rotate"
    #: copytruncate rotation: content copied out, active truncated to 0
    #: (``truncate`` at the line level is taken by :attr:`TRUNCATE`)
    TRUNCATE_FILE = "truncate_file"
    #: the final line caught mid-append (tail bytes present, no newline)
    PARTIAL_APPEND = "partial_append"
    #: file deleted and rewritten with identical content (new inode)
    REAPPEAR = "reappear"


#: the original content-damage campaign (line + file *content* modes);
#: deliberately excludes the lifecycle modes below so existing chaos
#: campaigns keep their exact historical fault mix
ALL_MODES: tuple[CorruptionMode, ...] = (
    CorruptionMode.TRUNCATE,
    CorruptionMode.INTERLEAVE,
    CorruptionMode.DUPLICATE,
    CorruptionMode.MOJIBAKE,
    CorruptionMode.REORDER,
    CorruptionMode.DROP_SOURCE,
    CorruptionMode.GZIP_ROTATE,
)

#: file-lifecycle faults: what a live, rotating log directory does to a
#: tailer (see ``docs/STREAMING.md``); usable standalone or mid-replay
LIFECYCLE_MODES: tuple[CorruptionMode, ...] = (
    CorruptionMode.ROTATE,
    CorruptionMode.TRUNCATE_FILE,
    CorruptionMode.PARTIAL_APPEND,
    CorruptionMode.REAPPEAR,
)


@dataclass(frozen=True)
class CorruptionSpec:
    """Declarative description of one corruption campaign."""

    modes: tuple[CorruptionMode, ...] = ALL_MODES
    #: fraction of lines mutated by each line-level mode
    rate: float = 0.05
    #: sources dropped by :attr:`CorruptionMode.DROP_SOURCE`
    drop_count: int = 1
    #: fraction of files gzipped by :attr:`CorruptionMode.GZIP_ROTATE`
    gzip_fraction: float = 0.5
    #: fraction of files hit by each file-lifecycle mode
    file_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.drop_count < 0:
            raise ValueError("drop_count must be non-negative")
        if not 0.0 <= self.gzip_fraction <= 1.0:
            raise ValueError("gzip_fraction must be in [0, 1]")
        if not 0.0 <= self.file_fraction <= 1.0:
            raise ValueError("file_fraction must be in [0, 1]")


@dataclass
class CorruptionReport:
    """What a campaign actually did (for assertions and forensics)."""

    #: mode value -> lines mutated / duplicated / reordered
    mutated_lines: dict[str, int] = field(default_factory=dict)
    #: files whose bytes changed, relative to the store root
    touched_files: list[str] = field(default_factory=list)
    #: source values emptied or deleted by DROP_SOURCE
    dropped_sources: list[str] = field(default_factory=list)
    #: files compressed by GZIP_ROTATE, relative to the store root
    gzipped_files: list[str] = field(default_factory=list)

    def count(self, mode: CorruptionMode) -> int:
        return self.mutated_lines.get(mode.value, 0)


class CorruptionInjector:
    """Mutates a written :class:`LogStore` on disk, deterministically."""

    def __init__(self, store: LogStore, seed: int = 0) -> None:
        self.store = store
        self.seed = int(seed)
        self.rng = RngStream(self.seed, ("corruption",))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _stream(self, mode: CorruptionMode, path: Path) -> RngStream:
        """Per-(mode, file) child stream: order-independent determinism."""
        rel = path.relative_to(self.store.root).as_posix()
        return self.rng.child(mode.value, rel)

    def _files(self, sources: Optional[Sequence[LogSource]] = None) -> list[Path]:
        """Every plain-text log file of the chosen sources, store order."""
        files: list[Path] = []
        for source in sources or list(LogSource):
            files.extend(p for p in self.store.source_files(source)
                         if p.suffix != ".gz")
        return files

    @staticmethod
    def _read_lines(path: Path) -> list[bytes]:
        data = path.read_bytes()
        if not data:
            return []
        return data.split(b"\n")[:-1] if data.endswith(b"\n") else data.split(b"\n")

    @staticmethod
    def _write_lines(path: Path, lines: list[bytes], final_newline: bool = True) -> None:
        body = b"\n".join(lines)
        if lines and final_newline:
            body += b"\n"
        path.write_bytes(body)

    def _touch(self, report: CorruptionReport, path: Path) -> None:
        rel = path.relative_to(self.store.root).as_posix()
        if rel not in report.touched_files:
            report.touched_files.append(rel)

    # ------------------------------------------------------------------
    # line-level modes
    # ------------------------------------------------------------------
    def truncate_lines(self, rate: float, report: CorruptionReport) -> int:
        """Cut a fraction of lines mid-way; shear the file tail too."""
        mutated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.TRUNCATE, path)
            lines = self._read_lines(path)
            if not lines:
                continue
            changed = False
            for i, line in enumerate(lines):
                if len(line) > 4 and rng.bernoulli(rate):
                    cut = rng.integer(1, max(1, len(line) - 1))
                    lines[i] = line[:cut]
                    mutated += 1
                    changed = True
            # a torn final write: the last line loses its newline and tail
            shear_tail = rng.bernoulli(min(1.0, rate * 4))
            if shear_tail and len(lines[-1]) > 4:
                lines[-1] = lines[-1][: max(1, len(lines[-1]) // 2)]
                mutated += 1
                changed = True
            if changed:
                self._write_lines(path, lines, final_newline=not shear_tail)
                self._touch(report, path)
        return mutated

    def interleave_lines(self, rate: float, report: CorruptionReport) -> int:
        """Splice adjacent line pairs, as concurrent writers would."""
        mutated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.INTERLEAVE, path)
            lines = self._read_lines(path)
            out: list[bytes] = []
            changed = False
            i = 0
            while i < len(lines):
                line = lines[i]
                nxt = lines[i + 1] if i + 1 < len(lines) else None
                if nxt is not None and len(line) > 4 and rng.bernoulli(rate):
                    cut_a = rng.integer(1, max(1, len(line) - 1))
                    cut_b = rng.integer(0, max(0, len(nxt) // 2))
                    out.append(line[:cut_a] + nxt[cut_b:])
                    mutated += 2
                    changed = True
                    i += 2
                else:
                    out.append(line)
                    i += 1
            if changed:
                self._write_lines(path, out)
                self._touch(report, path)
        return mutated

    def duplicate_lines(self, rate: float, report: CorruptionReport) -> int:
        """Repeat a fraction of lines back-to-back."""
        mutated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.DUPLICATE, path)
            lines = self._read_lines(path)
            out: list[bytes] = []
            changed = False
            for line in lines:
                out.append(line)
                if line and rng.bernoulli(rate):
                    out.append(line)
                    mutated += 1
                    changed = True
            if changed:
                self._write_lines(path, out)
                self._touch(report, path)
        return mutated

    def inject_mojibake(self, rate: float, report: CorruptionReport) -> int:
        """Drop invalid UTF-8 bytes into a fraction of line bodies."""
        mutated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.MOJIBAKE, path)
            lines = self._read_lines(path)
            changed = False
            for i, line in enumerate(lines):
                if len(line) > 8 and rng.bernoulli(rate):
                    pos = rng.integer(len(line) // 2, len(line) - 1)
                    garbage = _GARBAGE[rng.integer(0, len(_GARBAGE) - 1)]
                    lines[i] = line[:pos] + garbage + line[pos:]
                    mutated += 1
                    changed = True
            if changed:
                self._write_lines(path, lines)
                self._touch(report, path)
        return mutated

    def reorder_lines(self, rate: float, report: CorruptionReport) -> int:
        """Shuffle short local windows, creating out-of-order stamps."""
        mutated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.REORDER, path)
            lines = self._read_lines(path)
            changed = False
            i = 0
            while i + 1 < len(lines):
                if rng.bernoulli(rate):
                    width = min(rng.integer(2, 5), len(lines) - i)
                    window = lines[i:i + width]
                    shuffled = rng.shuffle(window)
                    if shuffled != window:
                        lines[i:i + width] = shuffled
                        mutated += width
                        changed = True
                    i += width
                else:
                    i += 1
            if changed:
                self._write_lines(path, lines)
                self._touch(report, path)
        return mutated

    # ------------------------------------------------------------------
    # file-level modes
    # ------------------------------------------------------------------
    def drop_sources(self, count: int, report: CorruptionReport) -> list[LogSource]:
        """Empty or delete whole source families (missing streams)."""
        rng = self.rng.child(CorruptionMode.DROP_SOURCE.value)
        candidates = [s for s in LogSource if self.store.source_files(s)]
        if not candidates or count < 1:
            return []
        victims = rng.sample(candidates, min(count, len(candidates)))
        for source in victims:
            delete = rng.bernoulli(0.5)
            for path in self.store.source_files(source):
                self._touch(report, path)
                if delete:
                    path.unlink()
                else:
                    path.write_bytes(b"")
            report.dropped_sources.append(source.value)
        return victims

    # ------------------------------------------------------------------
    # file-lifecycle modes (what live log directories do to a tailer)
    # ------------------------------------------------------------------
    def _rotated_name(self, path: Path) -> Path:
        """Next free ``<stem>-rN.log`` segment name next to ``path``."""
        n = 0
        while True:
            candidate = path.with_name(f"{path.stem}-r{n}.log")
            if not candidate.exists():
                return candidate
            n += 1

    def rotate_file(self, path: Path, report: Optional[CorruptionReport] = None) -> Path:
        """Classic rotation: rename the active file, recreate it empty.

        The renamed segment keeps its inode (a tailer identifies it by
        that) and the fresh active file starts at offset 0.
        """
        target = self._rotated_name(path)
        path.rename(target)
        path.write_bytes(b"")
        if report is not None:
            self._touch(report, path)
            self._touch(report, target)
        return target

    def truncate_file(self, path: Path, report: Optional[CorruptionReport] = None) -> Path:
        """Copytruncate rotation: copy content out, truncate in place.

        The active file keeps its inode but shrinks to zero -- the
        shrink is what a tailer must recognise; the copied segment is
        found again by its content prefix.
        """
        target = self._rotated_name(path)
        target.write_bytes(path.read_bytes())
        with path.open("wb"):
            pass  # truncate, same inode
        if report is not None:
            self._touch(report, path)
            self._touch(report, target)
        return target

    def partial_append(self, path: Path, report: Optional[CorruptionReport] = None) -> int:
        """Leave the file looking caught mid-append: shear the final
        newline plus the tail half of the last line.

        Returns the number of bytes sheared (0 when the file is empty).
        The sheared bytes are *gone* from this snapshot -- a later
        append (or the replay harness) may complete the line again.
        """
        data = path.read_bytes()
        if not data.endswith(b"\n"):
            return 0
        body = data[:-1]
        cut = body.rfind(b"\n") + 1
        last = body[cut:]
        if len(last) < 2:
            return 0
        keep = len(last) // 2
        path.write_bytes(body[:cut] + last[:keep])
        if report is not None:
            self._touch(report, path)
        return len(last) - keep + 1

    def reappear_file(self, path: Path, report: Optional[CorruptionReport] = None) -> None:
        """Delete and rewrite the file with identical bytes (new inode).

        A tailer that tracks only inodes re-reads everything; one that
        also matches content prefixes resumes at its old offset.
        """
        data = path.read_bytes()
        path.unlink()
        path.write_bytes(data)
        if report is not None:
            self._touch(report, path)

    def _apply_lifecycle(
        self,
        mode: CorruptionMode,
        fraction: float,
        report: CorruptionReport,
    ) -> int:
        """Run one lifecycle mode over a sampled fraction of files."""
        count = 0
        for path in self._files():
            rng = self._stream(mode, path)
            if not rng.bernoulli(fraction):
                continue
            if mode is CorruptionMode.ROTATE:
                self.rotate_file(path, report)
            elif mode is CorruptionMode.TRUNCATE_FILE:
                self.truncate_file(path, report)
            elif mode is CorruptionMode.PARTIAL_APPEND:
                if not self.partial_append(path, report):
                    continue
            else:  # REAPPEAR
                self.reappear_file(path, report)
            count += 1
        return count

    def gzip_rotate(self, fraction: float, report: CorruptionReport) -> int:
        """Compress a fraction of plain files in place (``.log.gz``)."""
        rotated = 0
        for path in self._files():
            rng = self._stream(CorruptionMode.GZIP_ROTATE, path)
            if not rng.bernoulli(fraction):
                continue
            gz_path = path.with_name(path.name + ".gz")
            # mtime=0 + no embedded filename: gzip headers stay
            # byte-identical across runs (same seed => same bytes)
            with open(gz_path, "wb") as raw, gzip.GzipFile(
                    fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(path.read_bytes())
            path.unlink()
            rel = gz_path.relative_to(self.store.root).as_posix()
            report.gzipped_files.append(rel)
            rotated += 1
        return rotated

    # ------------------------------------------------------------------
    def apply(self, spec: CorruptionSpec) -> CorruptionReport:
        """Run every mode of the spec; returns the damage report.

        Modes run in enum order so a multi-mode campaign is itself
        deterministic (each mode's streams are keyed independently, so
        dropping a mode from the spec never changes the others' draws).
        """
        report = CorruptionReport()
        for mode in spec.modes:
            if mode is CorruptionMode.TRUNCATE:
                count = self.truncate_lines(spec.rate, report)
            elif mode is CorruptionMode.INTERLEAVE:
                count = self.interleave_lines(spec.rate, report)
            elif mode is CorruptionMode.DUPLICATE:
                count = self.duplicate_lines(spec.rate, report)
            elif mode is CorruptionMode.MOJIBAKE:
                count = self.inject_mojibake(spec.rate, report)
            elif mode is CorruptionMode.REORDER:
                count = self.reorder_lines(spec.rate, report)
            elif mode is CorruptionMode.DROP_SOURCE:
                count = len(self.drop_sources(spec.drop_count, report))
            elif mode is CorruptionMode.GZIP_ROTATE:
                count = self.gzip_rotate(spec.gzip_fraction, report)
            elif mode in LIFECYCLE_MODES:
                count = self._apply_lifecycle(mode, spec.file_fraction, report)
            else:  # pragma: no cover - exhaustive over the enum
                raise ValueError(f"unknown corruption mode {mode!r}")
            report.mutated_lines[mode.value] = (
                report.mutated_lines.get(mode.value, 0) + count)
        return report
