"""Crash-safe watch checkpoint: the daemon's append-only source of truth.

One JSONL file (``checkpoint.jsonl`` under the watch output directory)
records everything a killed daemon needs to pick up where it left off.
:class:`WatchCheckpoint` is a :class:`~repro.runtime.journal.Journal`,
the campaign and fleet journals' one append-and-replay class: each
event is flushed as one line stamped with ``wall``, a SIGKILL can tear
at most the final line, and the replay cuts exactly that fragment off
the file, so the resumed daemon's first append starts a line of its
own and the run survives any number of resumes.

Event vocabulary::

    watch-start    window_days, error_policy, system, seed, resumed,
                   missing=[...]      # sources frozen absent at startup
    window-close   window, start_day, end_day, watermark,
                   offsets={rel: {offset, prefix[, final]}},
                   health={...},                      # boundary health
                   report={...}                       # close-time report
    finalize       digest, windows

Every event also carries ``wall``; :attr:`WatchState.config` leaves it
out.

``offsets`` holds the boundary offsets of the live and still-changing
files.  An entry marked ``final`` is a finalized segment's last offset:
later events omit that file, and :meth:`WatchCheckpoint.load` keeps the
entry until an event names the file again.  Checkpoints written before
``final`` existed carry every file in every event and replay as before.

The ``window-close`` event is the heart of exactly-once streaming: it
captures the *boundary-consistent* pair of per-file restart offsets and
ingestion-health baseline (see
:meth:`~repro.stream.tailer.LogTailer.boundary_health`) plus the
window's full close-time report, so a resume never recomputes a closed
window and re-reads exactly the open window's bytes.  ``health`` is
:func:`repro.core.serialize.to_jsonable` of the boundary health, read
back by :func:`health_from_jsonable`.  The checkpoint is the only record
of the closed windows: the daemon keeps none in memory, and its
finalize reads them back with :meth:`WatchCheckpoint.load`.

Emitted alerts are not checkpointed: each alert line is flushed to
``alerts.jsonl`` as it is emitted, and a resume dedups against a
scan of that file that cuts a torn tail by the same rule
(:meth:`repro.stream.alerts.AlertEngine.resume`).  Checkpoints written
when an ``alerts`` event recorded the ids still load; the replay
ignores those events, as it does any event it does not know.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.logs.health import IngestionHealth, SourceHealth
from repro.logs.record import LogSource
from repro.runtime.journal import Journal

__all__ = [
    "WatchCheckpoint",
    "WatchState",
    "CheckpointError",
    "health_from_jsonable",
]

#: checkpoint file name under the watch output directory
CHECKPOINT_NAME = "checkpoint.jsonl"


class CheckpointError(RuntimeError):
    """A checkpoint is unusable for the requested resume (e.g. it was
    written with a different window size than the one requested)."""


def health_from_jsonable(data: dict) -> IngestionHealth:
    """Rebuild an :class:`IngestionHealth` from its
    :func:`~repro.core.serialize.to_jsonable` form (checkpoint data)."""
    health = IngestionHealth()
    for key, counts in data.get("sources", {}).items():
        health.sources[LogSource(key)] = SourceHealth.from_dict(counts)
    for message in data.get("notes", []):
        health.note(message)
    return health


class WatchState:
    """Everything a resumed daemon restores from one checkpoint replay."""

    __slots__ = ("started", "config", "windows", "offsets", "watermark",
                 "health", "truncated_tail", "finalized")

    def __init__(self) -> None:
        self.started = False
        #: the watch-start fields (window_days, error_policy, ...)
        self.config: dict[str, Any] = {}
        #: window index -> its window-close event (last write wins)
        self.windows: dict[int, dict] = {}
        #: per-file restart offsets of the *latest* closed window (its
        #: event's entries, plus the ``final`` ones of earlier events)
        self.offsets: dict[str, dict] = {}
        #: watermark recorded at the latest closed window
        self.watermark: float = float("-inf")
        #: boundary health of the latest closed window (None == fresh)
        self.health: Optional[IngestionHealth] = None
        #: the checkpoint ended in a crash-torn line
        self.truncated_tail = False
        #: a finalize event exists (the watch ran to completion)
        self.finalized = False

    @property
    def next_window(self) -> int:
        """First window index the resumed daemon still has to close."""
        return max(self.windows, default=-1) + 1

    def closed_windows(self) -> list[dict]:
        """The window-close events in window order."""
        return [self.windows[k] for k in sorted(self.windows)]


class WatchCheckpoint(Journal):
    """The append-only checkpoint file of one watch output directory."""

    name = CHECKPOINT_NAME
    # in this class's own __dict__: perfbench/tracer.py wraps
    # cls.__dict__["append"] as the stream.checkpoint layer
    append = Journal.append

    # ------------------------------------------------------------------
    def load(self) -> WatchState:
        """Replay the checkpoint into a :class:`WatchState`.

        Cuts (and reports) a crash-torn final line; raises
        :class:`~repro.runtime.journal.JournalError` for damage anywhere
        else, because that means the file was edited, not crashed.
        """
        state = WatchState()
        for record in self.events():
            kind = record.get("event")
            if kind == "watch-start":
                state.started = True
                state.config = {k: v for k, v in record.items()
                                if k not in ("event", "wall")}
            elif kind == "window-close":
                state.windows[int(record["window"])] = record
                offsets = {rel: entry for rel, entry in state.offsets.items()
                           if entry.get("final")}
                offsets.update(record.get("offsets", {}))
                state.offsets = offsets
                state.watermark = float(record.get("watermark",
                                                   float("-inf")))
                health = record.get("health")
                state.health = (health_from_jsonable(health)
                                if health is not None else None)
            elif kind == "finalize":
                state.finalized = True
        state.truncated_tail = self.truncated_tail
        return state

    def check_resumable(self, state: WatchState,
                        window_days: int, error_policy: str) -> None:
        """Reject a resume whose configuration contradicts the record.

        Window geometry and ``error_policy`` both change what every window
        report contains; silently mixing them would produce an artifact
        that matches *neither* configuration's batch run.
        """
        if not state.started:
            return
        recorded_days = state.config.get("window_days")
        if recorded_days is not None and int(recorded_days) != window_days:
            raise CheckpointError(
                f"checkpoint was written with window_days="
                f"{recorded_days}, cannot resume with {window_days}")
        recorded_policy = state.config.get("error_policy")
        if recorded_policy is not None and recorded_policy != error_policy:
            raise CheckpointError(
                f"checkpoint was written with error_policy="
                f"{recorded_policy!r}, cannot resume with {error_policy!r}")
