"""Crash-safe append-only journals: one JSONL event log per directory.

:class:`Journal` is the one append-and-replay mechanism behind every
resumable run in the repo.  Its subclasses add only their vocabulary:

* :class:`CampaignJournal` -- the campaign supervisor's event log plus
  its per-experiment artifacts::

      <root>/
        journal.jsonl            # append-only event log (flushed per event)
        artifacts/<exp_id>.json  # canonical per-experiment results

* :class:`~repro.fleet.supervisor.FleetJournal` -- the fleet's shard
  artifacts and merged report;
* :class:`~repro.stream.checkpoint.WatchCheckpoint` -- the watch
  daemon's checkpoint.

Crash-safety contract:

* events are appended and flushed one line at a time, each stamped
  with ``wall`` (wall-clock seconds), so the journal never contains a
  *reordered* history and a process kill (the threat model: SIGKILL,
  crash, OOM) loses nothing already appended.  A kill mid-append can
  tear the final line; :func:`read_jsonl_tolerant` forgives exactly
  that and cuts the fragment off the file, so the next append starts
  on a line of its own and a run survives any number of resumes.
  Events skip the per-line ``fsync`` deliberately; it buys nothing
  against process death and costs milliseconds per event (see
  ``benchmarks/bench_supervisor.py``);
* the cut rests on one precondition: a log has one writer, and only
  that writer replays it, at resume (or between its own appends).  A
  reader racing a live writer could cut a line still being written;
* artifacts are written to a temp file and published with
  ``os.replace``, so an artifact either exists completely or not at
  all, and each artifact's bytes are canonical
  (:meth:`~repro.experiments.result.ExperimentResult.to_json`) --
  independent of attempt counts, wall clock, or which process produced
  them.  That is what makes interrupted-then-resumed campaigns
  byte-identical to uninterrupted ones;
* an experiment counts as *completed* only when both its ``complete``
  event and a parseable artifact exist (:meth:`completed_results`), so
  a crash between the two is re-run, never silently trusted.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.core.artifacts import atomic_write_text
from repro.experiments.result import ExperimentResult
from repro.obs import OBS

__all__ = ["CampaignJournal", "Journal", "JournalError",
           "read_jsonl_tolerant"]

#: journal file name under the campaign root
JOURNAL_NAME = "journal.jsonl"
#: artifact directory name under the campaign root
ARTIFACTS_DIR = "artifacts"


class JournalError(RuntimeError):
    """A journal is unusable for the requested operation (e.g. resuming
    with a different seed than the one the campaign started with)."""


def read_jsonl_tolerant(path: Path) -> tuple[list[dict], bool]:
    """Replay an append-only JSONL file, cutting a crash-torn tail.

    Returns ``(events, truncated_tail)``.  Only a *final* damaged line
    is forgiven (that is the one a SIGKILL can produce), and the file
    is truncated to the end of its last intact line, so the writer's
    next append starts on a line of its own.  Damage earlier in the
    file means the journal was edited or corrupted and raises
    :class:`JournalError`.  Every forgiven tail increments the
    ``journal.truncated_tail`` observability counter so silent
    crash-recoveries become visible in ``repro obs summary``.

    The one rule for torn tails: every journal and ``alerts.jsonl``
    (:meth:`repro.stream.alerts.AlertEngine.resume`) replay through it.
    Precondition: the file has one writer, and only that writer replays
    it, at resume -- see the module docstring.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], False
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    parsed: list[dict] = []
    offset = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                parsed.append(json.loads(line))
            except ValueError:
                if i < len(lines) - 1:
                    raise JournalError(
                        f"corrupt journal line {i + 1} in {path}: "
                        f"{line[:80].decode('utf-8', 'replace')!r}"
                    ) from None
                os.truncate(path, offset)
                if OBS.enabled:
                    OBS.metrics.counter("journal.truncated_tail").inc()
                return parsed, True
        offset += len(line) + 1
    return parsed, False


class Journal:
    """One append-only JSONL event log under a directory."""

    #: log file name under the root
    name = JOURNAL_NAME
    #: globs (relative to the root) of the files :meth:`reset` drops
    #: along with the log
    owned: tuple[str, ...] = ()

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / self.name
        self._truncated_tail = False

    def append(self, event: str, **fields: Any) -> dict:
        """Append one event line, stamped with ``wall`` (flushed before
        returning)."""
        record = {"event": event, **fields, "wall": time.time()}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
        return record

    def events(self) -> list[dict]:
        """Replay the event log, cutting a crash-torn tail (see
        :func:`read_jsonl_tolerant`)."""
        parsed, self._truncated_tail = read_jsonl_tolerant(self.path)
        return parsed

    @property
    def truncated_tail(self) -> bool:
        """True when the last :meth:`events` call cut a partial line."""
        return self._truncated_tail

    def exists(self) -> bool:
        return self.path.is_file()

    def reset(self) -> None:
        """Start fresh: drop the event log and every owned file."""
        self.path.unlink(missing_ok=True)
        for pattern in self.owned:
            for path in self.root.glob(pattern):
                path.unlink()


class CampaignJournal(Journal):
    """One campaign directory: the event log plus its artifacts."""

    owned = (f"{ARTIFACTS_DIR}/*.json",)

    def __init__(self, root: Path | str) -> None:
        super().__init__(root)
        self.artifacts = self.root / ARTIFACTS_DIR

    # ------------------------------------------------------------------
    # campaign-level helpers
    # ------------------------------------------------------------------
    def campaign_seed(self) -> Optional[int]:
        """Seed of the recorded campaign (None for an empty journal)."""
        for record in self.events():
            if record["event"] == "campaign-start":
                return int(record["seed"])
        return None

    def start(self, seed: int, experiments: Iterable[str],
              resumed: bool = False) -> None:
        """Record the campaign start (or a resume of an existing one)."""
        self.append("campaign-resume" if resumed else "campaign-start",
                    seed=seed, experiments=list(experiments))

    def completed_results(self) -> dict[str, ExperimentResult]:
        """Experiments proven done: ``complete`` event + intact artifact.

        The artifact is re-read and re-parsed; a missing or damaged
        file demotes the experiment back to pending.  Failure and skip
        events never mask an earlier completion (completion is final).
        """
        done: dict[str, ExperimentResult] = {}
        for record in self.events():
            if record["event"] != "complete":
                continue
            exp_id = record["experiment"]
            try:
                done[exp_id] = self.read_artifact(exp_id)
            except (OSError, json.JSONDecodeError, KeyError):
                done.pop(exp_id, None)
        return done

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def artifact_path(self, exp_id: str) -> Path:
        return self.artifacts / f"{exp_id}.json"

    def write_artifact(self, result: ExperimentResult) -> Path:
        """Atomically publish one experiment's canonical artifact."""
        path = self.artifact_path(result.experiment)
        atomic_write_text(path, result.to_json())
        return path

    def read_artifact(self, exp_id: str) -> ExperimentResult:
        data = json.loads(self.artifact_path(exp_id).read_text("utf-8"))
        return ExperimentResult.from_jsonable(data)
