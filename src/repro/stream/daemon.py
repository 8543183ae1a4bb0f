"""The streaming watch daemon: batch-faithful diagnosis of a live store.

``repro watch`` runs this loop against a log directory that is still
being written::

    poll -> tail increments -> append to the shared index
         -> emit precursor alerts -> close any completed windows
         -> checkpoint -> sleep

and, when the stream goes quiet (or SIGTERM arrives), finalizes into
exactly the artifact a batch :meth:`~repro.core.pipeline
.HolisticDiagnosis.run_windowed` over the finished directory produces
-- *byte*-identical canonical JSON, which is the correctness bar every
streaming shortcut here is held to (``tests/stream/test_daemon.py``
and the chaos replay harness assert it).

How the batch equivalences are kept:

* records: the tailer reads the same lines with the same parser and
  the same per-file merge order (:mod:`repro.stream.tailer`), and the
  index extends in place (:meth:`~repro.core.index.RecordIndex.append`)
  instead of rebuilding;
* window geometry: a window closes the moment the watermark (latest
  appended record time) passes its end boundary -- by then every record
  the batch run would put in it has been appended, because streams are
  time-sorted; the final partial window closes at finalize with the
  same ``duration_days`` arithmetic the batch driver uses;
* ingestion health: windows are diagnosed with ``ingestion_health=None``
  and their reports re-based on the *final* health at finalize --
  because that is what every batch window report carries (the batch
  driver shares one health object that is complete before the first
  window runs).  The re-derivation reuses the pipeline's own
  :func:`~repro.core.pipeline.degradation_for`;
* stragglers: a record that arrives after its stream has moved past
  its stamp (a source reappearing from an outage that other sources
  out-ran, typically across a resume) is merged at its true time while
  its window is still open (:meth:`~repro.core.index.StreamIndex
  .merge_records`); only a record whose window was already reported is
  clamped, and counted as a divergence;
* bounded memory: everything older than the youngest closed window is
  evicted (:meth:`~repro.core.index.RecordIndex.evict_before`), so
  resident records track the open window, not the stream's age; a
  closed window's report lives only in the checkpoint, and finalize
  reads the reports back from it.

Crash safety is delegated to :mod:`repro.stream.checkpoint` (window
closes carry boundary-consistent offsets + health) and
:mod:`repro.stream.alerts` (deterministic ids; the flushed alert file is
the record of what was emitted): a
SIGKILL at any poll, resumed with ``--resume``, re-emits no duplicate
alert, loses no alert, and finalizes to the same bytes.

One documented constraint: sources must have their (possibly empty)
log files in place when the daemon starts.  ``missing_sources`` is
frozen at startup -- exactly like a batch run decides it at read time
-- so a source whose first file appears mid-watch would skip analyses
in early windows that a batch rerun would not.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.core.failure_detection import FailureDetector
from repro.core.index import RecordIndex, StreamIndex
from repro.core.pipeline import HolisticDiagnosis, degradation_for
from repro.core.serialize import to_jsonable
from repro.logs.health import ErrorPolicy, IngestionHealth
from repro.logs.parsing import ParsedRecord
from repro.logs.record import LogSource
from repro.logs.store import LogStore
from repro.obs import OBS
from repro.core.artifacts import write_canonical_artifact
from repro.runtime.faults import inject
from repro.simul.clock import DAY
from repro.stream.alerts import AlertEngine
from repro.stream.checkpoint import WatchCheckpoint
from repro.stream.tailer import LogTailer

__all__ = ["WatchConfig", "WatchDaemon", "WatchReport", "REPORT_NAME",
           "streamed_batch_equivalent"]

#: final streamed report file name under the watch output directory
REPORT_NAME = "report.json"


@dataclass
class WatchConfig:
    """Everything a watch run is parameterised by."""

    logdir: Path
    out: Path
    window_days: int = 1
    poll_interval: float = 0.5
    error_policy: ErrorPolicy | str = ErrorPolicy.SKIP
    #: resume from an existing checkpoint instead of starting fresh
    resume: bool = False
    #: hard poll budget (None = unbounded)
    max_polls: Optional[int] = None
    #: finalize after this many consecutive polls with no new data
    #: (None = run until stopped)
    idle_polls: Optional[int] = None
    #: platform catalog the store is read under (a registry name from
    #: :mod:`repro.logs.catalogs`); None defers to the store's manifest
    #: (falling back to content sniffing, then the default dialect)
    platform: Optional[str] = None

    def __post_init__(self) -> None:
        self.logdir = Path(self.logdir)
        self.out = Path(self.out)
        self.error_policy = ErrorPolicy.coerce(self.error_policy)
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")


@dataclass
class WatchReport:
    """What one watch run produced (the CLI's and API's return value)."""

    #: ``[{"start_day", "end_day", "report"}, ...]`` -- the canonical
    #: streamed equivalent of the batch ``run_windowed`` sequence
    windows: list[dict]
    #: sha256 of the canonical final artifact (the parity fingerprint)
    digest: str
    report_path: Path
    alerts_path: Path
    checkpoint_path: Path
    polls: int = 0
    records: int = 0
    alerts_emitted: int = 0
    windows_closed: int = 0
    resumed: bool = False
    tail_stats: dict = field(default_factory=dict)

    @property
    def window_count(self) -> int:
        return len(self.windows)


class WatchDaemon:
    """One watch run: construct, :meth:`run` (or drive :meth:`tick`)."""

    def __init__(self, config: WatchConfig) -> None:
        self.config = config
        self.store = LogStore(config.logdir, platform=config.platform)
        manifest = self.store.manifest()  # FileNotFoundError for bare dirs
        self.clock = manifest.clock()
        self.system = manifest.system
        self.seed = manifest.seed
        self.detector = FailureDetector()
        try:
            from repro.cluster.systems import get_system

            self.total_nodes: Optional[int] = get_system(manifest.system).nodes
        except KeyError:
            self.total_nodes = None
        self.checkpoint = WatchCheckpoint(config.out)
        self._started = False
        self._stop = False
        self._poll_no = 0
        self._finalized: Optional[WatchReport] = None
        self.records_appended = 0
        #: alerts freshly written by *this* daemon (a resume's seeded
        #: dedup set does not count)
        self.alerts_emitted = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open (or resume) the run: checkpoint, tailer, alert engine."""
        if self._started:
            return
        config = self.config
        state = None
        if config.resume and self.checkpoint.exists():
            state = self.checkpoint.load()
            self.checkpoint.check_resumable(
                state, config.window_days, config.error_policy.value)
        resumed = state is not None and state.started
        self.resumed = resumed
        if not resumed:
            self.checkpoint.reset()
            alerts_path = Path(config.out) / "alerts.jsonl"
            if alerts_path.is_file():
                alerts_path.unlink()
            self.health = IngestionHealth()
            self.engine = AlertEngine(config.out)
            self.next_window = 0
            self.watermark = float("-inf")
        else:
            self.health = (state.health if state.health is not None
                           else IngestionHealth())
            self.engine = AlertEngine.resume(config.out)
            self.next_window = state.next_window
            self.watermark = state.watermark
        # missing sources are frozen at the *original* startup, matching
        # the batch driver's decision at read time (see module
        # docstring).  A resume restores the frozen list from the
        # checkpoint rather than re-inspecting the directory: a source
        # whose file is only transiently absent at resume time (e.g.
        # mid-rotation, or deleted by the very fault that killed the
        # previous daemon) must not be reclassified as missing.
        if resumed and state is not None and "missing" in state.config:
            self.missing = [LogSource(v) for v in state.config["missing"]]
        else:
            self.missing = [s for s in LogSource
                            if not self.store.source_files(s)]
        self.tailer = LogTailer(
            self.store, self.clock, config.error_policy, self.health,
            boundary_seconds=config.window_days * DAY,
            reset_quarantine=not resumed)
        if resumed and state is not None:
            self.tailer.seed(state.offsets)
        self.index = RecordIndex.build([], [], [])
        self.checkpoint.append(
            "watch-start", window_days=config.window_days,
            error_policy=config.error_policy.value, system=self.system,
            seed=self.seed, resumed=resumed,
            missing=[s.value for s in self.missing])
        self._started = True

    def stop(self) -> None:
        """Ask the run loop to finalize after the current poll."""
        self._stop = True

    # ------------------------------------------------------------------
    # the poll
    # ------------------------------------------------------------------
    def _place_records(self, stream: StreamIndex,
                       records: list[ParsedRecord]) -> list[ParsedRecord]:
        """Place one poll's records, tolerating cross-poll stragglers.

        A record stamped *before* the stream tail can no longer be
        appended (the index is append-ordered).  If its window is still
        open it is merged into the resident set at its true time -- the
        report stays batch-identical; this happens when a source
        reappears after an outage that other sources out-ran.  Only a
        record whose window has already been closed and reported is
        clamped (to the open-window floor), and counted, because a
        non-zero clamp count means the streamed and batch views can
        diverge.  Returns the in-order suffix for the fast append path.
        """
        if not records or not len(stream.records):
            return records
        tail = stream.records[-1].time
        if records[0].time >= tail:
            return records
        floor = self.next_window * self.config.window_days * DAY
        split = 0
        while split < len(records) and records[split].time < tail:
            split += 1
        early, suffix = list(records[:split]), records[split:]
        clamped = 0
        for i, record in enumerate(early):
            if record.time >= floor:
                break
            early[i] = replace(record, time=floor)
            clamped += 1
        self.records_appended += stream.merge_records(early)
        if OBS.enabled:
            if clamped:
                OBS.metrics.counter(
                    "stream.stragglers_clamped").inc(clamped)
            if len(early) > clamped:
                OBS.metrics.counter(
                    "stream.stragglers_merged").inc(len(early) - clamped)
        return suffix

    def tick(self) -> int:
        """One poll: tail, index, alert, close windows.  Returns the
        number of records appended."""
        if not self._started:
            self.start()
        self._poll_no += 1
        # the chaos harness kills/hangs the daemon at a chosen poll;
        # a no-op without a fault plan in the environment
        inject("watch", self._poll_no)
        with OBS.span("stream.poll", "stream", poll=self._poll_no) as span:
            before = self.records_appended
            increment = self.tailer.poll()
            internal = self._place_records(
                self.index.internal, increment.internal)
            external = self._place_records(
                self.index.external, increment.external)
            scheduler = self._place_records(
                self.index.scheduler, increment.scheduler)
            self.records_appended += self.index.append(
                internal=internal, external=external, scheduler=scheduler)
            appended = self.records_appended - before  # merged included
            for stream in (internal, external, scheduler):
                if stream:
                    self.watermark = max(self.watermark, stream[-1].time)
            # live early warnings: precursors alert the moment their
            # line is tailed, not when their window closes -- scanned at
            # their *true* stamps (placement never changes an alert id)
            self._emit(self.engine.scan_records(increment.external))
            closed = self._close_ready_windows()
            span.add(records=appended, windows_closed=closed,
                     bytes=increment.bytes_read)
            if OBS.enabled:
                OBS.metrics.counter("stream.polls").inc()
                if appended:
                    OBS.metrics.counter(
                        "stream.records_appended").inc(appended)
        return appended

    def _emit(self, alerts) -> None:
        # the flushed alert lines are the durable record of emission
        # (AlertEngine.resume scans them); nothing is checkpointed
        self.alerts_emitted += len(self.engine.emit(alerts))

    # ------------------------------------------------------------------
    # window closing
    # ------------------------------------------------------------------
    def _close_ready_windows(self) -> int:
        """Close every window whose end the watermark has passed."""
        days = self.config.window_days
        closed = 0
        while self.watermark >= (self.next_window + 1) * days * DAY:
            start = self.next_window * days
            self._close_window(self.next_window, start, start + days)
            closed += 1
        return closed

    def _close_window(self, window: int, start_day: int,
                      end_day: int) -> None:
        t0, t1 = start_day * DAY, end_day * DAY
        with OBS.span("stream.window_close", "stream", window=window,
                      start_day=start_day, end_day=end_day) as span:
            # health=None on purpose: the report is re-based on the
            # final health at finalize (see module docstring)
            sub = HolisticDiagnosis(
                internal=self.index.internal.window(t0, t1),
                external=self.index.external.window(t0, t1),
                scheduler=self.index.scheduler.window(t0, t1),
                detector=self.detector,
                total_nodes=self.total_nodes,
                missing_sources=self.missing,
                ingestion_health=None,
                platform=self.store.catalog.name,
            )
            report = sub.run()
            report_dict = to_jsonable(report)
            span.add(failures=len(report.failures))
        alert = self.engine.window_alert(
            window, start_day, end_day, len(report.failures))
        if alert is not None:
            self._emit([alert])
        # boundary index: marks are multiples of window_days * DAY, so
        # the end of window k is mark k+1 (health BEFORE snapshot: the
        # snapshot prunes the marks the health subtraction reads)
        boundary = window + 1
        health_snapshot = self.tailer.boundary_health(boundary)
        offsets = self.tailer.boundary_snapshot(boundary)
        self.checkpoint.append(
            "window-close", window=window, start_day=start_day,
            end_day=end_day, watermark=self.watermark, offsets=offsets,
            health=to_jsonable(health_snapshot), report=report_dict)
        self.next_window = window + 1
        evicted = self.index.evict_before(t1)
        if OBS.enabled:
            OBS.metrics.counter("stream.windows_closed").inc()
            if evicted:
                OBS.metrics.counter("stream.records_evicted").inc(evicted)

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> WatchReport:
        """Close remaining windows, re-base health, write the artifact."""
        if self._finalized is not None:
            return self._finalized
        if not self._started:
            self.start()
        self.tick()  # drain whatever arrived since the last poll
        self.tailer.finalize_health()
        days = self.config.window_days
        if self.watermark == float("-inf"):
            total = 1
        else:
            # the batch duration_days arithmetic, verbatim
            total = max(1, int(self.watermark // DAY) + 1)
        while self.next_window * days < total:
            start = self.next_window * days
            self._close_window(self.next_window, start,
                               min(start + days, total))
        # re-base every window report, read back from the checkpoint,
        # on the final ingestion health -- the health a batch run over
        # the finished directory bakes into all its windows
        missing_part = degradation_for(self.missing, None)[1]
        full_reasons = degradation_for(self.missing, self.health)[1]
        health_part = full_reasons[len(missing_part):]
        health_jsonable = to_jsonable(self.health)
        health_degraded = self.health.degraded
        base = len(missing_part)
        windows_out: list[dict] = []
        for event in self.checkpoint.load().closed_windows():
            patched = dict(event["report"])
            patched["degraded_reasons"] = (
                missing_part + health_part
                + list(patched["degraded_reasons"])[base:])
            patched["ingestion_health"] = health_jsonable
            patched["degraded"] = bool(
                patched["skipped_analyses"] or patched["analysis_errors"]
                or patched["degraded_reasons"] or health_degraded)
            windows_out.append({
                "start_day": event["start_day"],
                "end_day": event["end_day"],
                "report": patched,
            })
        report_path = Path(self.config.out) / REPORT_NAME
        digest = write_canonical_artifact(report_path, windows_out)
        self.checkpoint.append("finalize", digest=digest,
                               windows=len(windows_out))
        if OBS.enabled:
            OBS.metrics.gauge("index.resident_records").set(
                self.index.resident_records())
        self._finalized = WatchReport(
            windows=windows_out,
            digest=digest,
            report_path=report_path,
            alerts_path=self.engine.path,
            checkpoint_path=self.checkpoint.path,
            polls=self._poll_no,
            records=self.records_appended,
            alerts_emitted=self.alerts_emitted,
            windows_closed=len(windows_out),
            resumed=self.resumed,
            tail_stats=self.tailer.stats.as_dict(),
        )
        return self._finalized

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, handle_signals: bool = True) -> WatchReport:
        """Poll until stopped (SIGTERM/SIGINT), idle, or out of budget.

        ``handle_signals`` installs handlers that turn SIGTERM/SIGINT
        into a graceful finalize (only possible from the main thread;
        pass False when driving the daemon from a test thread).
        """
        self.start()
        previous: dict[int, object] = {}
        if handle_signals:
            def _graceful(signum, frame):  # noqa: ARG001
                self._stop = True

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous[signum] = signal.signal(signum, _graceful)
                except ValueError:  # not the main thread
                    break
        try:
            idle = 0
            config = self.config
            while not self._stop:
                if (config.max_polls is not None
                        and self._poll_no >= config.max_polls):
                    break
                appended = self.tick()
                if appended:
                    idle = 0
                else:
                    idle += 1
                    if (config.idle_polls is not None
                            and idle >= config.idle_polls):
                        break
                if self._stop:
                    break
                time.sleep(config.poll_interval)
            return self.finalize()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)


def streamed_batch_equivalent(
    store: LogStore,
    window_days: int,
    error_policy: ErrorPolicy | str = ErrorPolicy.SKIP,
) -> list[dict]:
    """The batch-side artifact the streamed one must byte-match.

    Runs the ordinary batch ``run_windowed`` over the (finished) store
    and shapes it exactly like :attr:`WatchReport.windows` -- the two
    sides of every parity assertion in the streaming tests and the
    chaos gate.
    """
    diag = HolisticDiagnosis.from_store(store, error_policy=error_policy)
    return [
        {"start_day": win.start_day, "end_day": win.end_day,
         "report": to_jsonable(win.report)}
        for win in diag.run_windowed(window_days)
    ]
