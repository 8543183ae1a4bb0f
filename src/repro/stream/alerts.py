"""Live early-warning alerts: deterministic ids, exactly-once emission.

The watch daemon's product between window reports: every node-scoped
external precursor (``nvf``, ``nhf``, ``ecb_fault`` -- the events the
lead-time analysis credits with predicting NVF/NHF failures, paper
Obs. 5/6) becomes an alert the moment its log line is tailed, hours
before the window containing the failure closes.  A second alert kind
summarises each closed window that confirmed failures.

Exactly-once across crashes rests on two properties:

* **deterministic ids** -- an alert's id is a digest of its semantic
  identity (kind, time, node, event / window geometry), never of wall
  clock or emission order, so the same log line re-tailed after a
  resume produces the *same* alert id;
* **the alert file is the record** -- each alert line is flushed to
  ``alerts.jsonl`` as it is emitted, and on resume the dedup set is a
  scan of that file that cuts a crash-torn final line: an alert whose
  line reached the file is never emitted again, and one killed before
  (or while) its line was written is re-emitted whole from the
  re-tailed record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.core.external import NODE_SCOPED_PRECURSORS
from repro.core.serialize import canonical_json
from repro.logs.parsing import ParsedRecord
from repro.obs import OBS
from repro.runtime.journal import read_jsonl_tolerant
from repro.simul.clock import DAY

__all__ = ["Alert", "AlertEngine", "PRECURSOR_EVENTS"]

#: external events that trigger a per-record early warning (node-scoped
#: so a blade peer's fault never alerts about the wrong node)
PRECURSOR_EVENTS = NODE_SCOPED_PRECURSORS

#: alert file name under the watch output directory
ALERTS_NAME = "alerts.jsonl"


@dataclass(frozen=True)
class Alert:
    """One early warning, identified by content, not by emission."""

    #: "precursor" (a node-scoped external fault) or "window" (a closed
    #: window that confirmed failures)
    kind: str
    #: simulation seconds of the triggering record / window end
    time: float
    #: node cname the warning is about ("" for window alerts)
    node: str = ""
    #: triggering event key ("" for window alerts)
    event: str = ""
    #: closing window index (-1 for precursor alerts)
    window: int = -1
    #: confirmed failures in the closed window (0 for precursor alerts)
    failures: int = 0

    @property
    def alert_id(self) -> str:
        """Digest of the semantic identity (stable across replays)."""
        identity = canonical_json({
            "kind": self.kind, "time": self.time, "node": self.node,
            "event": self.event, "window": self.window,
            "failures": self.failures,
        })
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict:
        return {
            "id": self.alert_id,
            "kind": self.kind,
            "time": self.time,
            "day": int(self.time // DAY),
            "node": self.node,
            "event": self.event,
            "window": self.window,
            "failures": self.failures,
        }


def _about(record: ParsedRecord) -> str:
    """The node an external record is about (mirrors ExternalIndex)."""
    return record.attr("node") or record.attr("src") or record.component


class AlertEngine:
    """Turns tailed records and closed windows into deduplicated alerts."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / ALERTS_NAME
        #: every id ever emitted (seeded from the alert file on resume)
        self._emitted: set[str] = set()

    # ------------------------------------------------------------------
    # alert construction
    # ------------------------------------------------------------------
    @staticmethod
    def scan_records(records: Sequence[ParsedRecord]) -> list[Alert]:
        """Precursor alerts for one poll's external increment."""
        return [
            Alert(kind="precursor", time=record.time,
                  node=_about(record), event=record.event)
            for record in records
            if record.event in PRECURSOR_EVENTS
        ]

    @staticmethod
    def window_alert(window: int, start_day: int, end_day: int,
                     failures: int) -> Optional[Alert]:
        """The summary alert for one closed window (None if clean)."""
        if not failures:
            return None
        return Alert(kind="window", time=float(end_day * DAY),
                     window=window, failures=failures)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, alerts: Sequence[Alert]) -> list[Alert]:
        """Append the not-yet-emitted alerts to the file; flush; return
        them."""
        fresh: list[Alert] = []
        deduped = 0
        for alert in alerts:
            if alert.alert_id in self._emitted:
                deduped += 1
                continue
            self._emitted.add(alert.alert_id)
            fresh.append(alert)
        if fresh:
            self.root.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                for alert in fresh:
                    handle.write(
                        json.dumps(alert.as_dict(), sort_keys=True) + "\n")
                handle.flush()
        if OBS.enabled:
            if fresh:
                OBS.metrics.counter("stream.alerts.emitted").inc(len(fresh))
            if deduped:
                OBS.metrics.counter("stream.alerts.deduped").inc(deduped)
        return fresh

    # ------------------------------------------------------------------
    # resume support
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, root: Path | str) -> "AlertEngine":
        """An engine whose dedup set is every id in the alert file.

        The scan cuts a torn final alert line off the file (the one
        torn-tail rule, :func:`~repro.runtime.journal
        .read_jsonl_tolerant`), and the re-tailed record re-emits that
        alert whole: the cut file plus the replayed emissions is
        byte-identical to an uninterrupted run's.
        """
        engine = cls(root)
        lines, _ = read_jsonl_tolerant(engine.path)
        engine._emitted.update(entry["id"] for entry in lines
                               if "id" in entry)
        return engine
