"""Online node-failure prediction from the joint log stream.

The paper positions its measurements as fuel for proactive failure
prediction (refs. [9], [24]): internal fault patterns raise alarms,
external correlation filters them (Fig. 14), and fail-slow precursors
buy lead time (Fig. 13).  :class:`OnlinePredictor` packages exactly that
policy as a *streaming* detector an operator could run against a live
log tail:

* it consumes time-ordered :class:`~repro.logs.parsing.ParsedRecord`
  objects (internal and external interleaved);
* per node it keeps a sliding window of fault-indicative internal
  events; per blade a window of precursor-class external events;
* an alarm fires when the internal window reaches ``min_events`` *or* a
  critical event (panic-adjacent) appears, optionally gated on a
  corroborating external event (``require_external``);
* alarms are rate-limited per node (``cooldown``) so one sick node does
  not flood the operator.

:func:`evaluate` scores an alarm stream against detected failures with
the standard prediction metrics (precision / recall / mean warning lead
time), which is how the ablation benches quantify the paper's central
claim that external correlation trades a little recall for a much lower
false-alarm rate.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.external import EXTERNAL_PRECURSOR_EVENTS, _blade_of
from repro.core.failure_detection import DetectedFailure
from repro.core.leadtime import INTERNAL_INDICATIVE
from repro.logs.parsing import ParsedRecord
from repro.simul.clock import HOUR, MINUTE

__all__ = ["PredictorConfig", "Alarm", "OnlinePredictor", "PredictionScore",
           "evaluate"]

#: internal events that alone justify an immediate alarm
CRITICAL_EVENTS = frozenset({
    "mce", "ecc_uncorrected", "cpu_corruption", "lbug", "kernel_bug_at",
    "invalid_opcode", "oom_kill", "l0_sysd_mce",
})


@dataclass(frozen=True)
class PredictorConfig:
    """Tunables of the online predictor."""

    #: sliding-window width for internal evidence (seconds)
    window: float = 30 * MINUTE
    #: indicative events needed in-window to alarm (non-critical path)
    min_events: int = 3
    #: only alarm when a precursor-class external event corroborates
    require_external: bool = False
    #: how far back an external event may be to corroborate (seconds)
    external_window: float = 2 * HOUR
    #: minimum spacing between alarms for one node (seconds)
    cooldown: float = HOUR

    def __post_init__(self) -> None:
        if self.window <= 0 or self.external_window <= 0 or self.cooldown < 0:
            raise ValueError("windows must be positive, cooldown non-negative")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")


@dataclass(frozen=True)
class Alarm:
    """One prediction: ``node`` is expected to fail soon after ``time``."""

    time: float
    node: str
    reason: str
    events_in_window: int
    external_corroborated: bool


class OnlinePredictor:
    """Streaming failure predictor over the joint log record stream."""

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self.config = config or PredictorConfig()
        self._internal: dict[str, deque[float]] = defaultdict(deque)
        self._external: dict[str, deque[float]] = defaultdict(deque)
        self._last_alarm: dict[str, float] = {}
        self.alarms: list[Alarm] = []

    # ------------------------------------------------------------------
    def observe(self, record: ParsedRecord) -> Optional[Alarm]:
        """Feed one record; returns the alarm it triggered, if any."""
        if record.event is None:
            return None
        cfg = self.config
        if record.source.is_external:
            if record.event in EXTERNAL_PRECURSOR_EVENTS:
                about = record.attr("node") or record.attr("src") or record.component
                blade = _blade_of(about)
                if blade is not None:
                    window = self._external[blade]
                    window.append(record.time)
                    self._trim(window, record.time, cfg.external_window)
            return None
        if not record.source.is_internal:
            return None
        if record.event not in INTERNAL_INDICATIVE:
            return None
        node = record.component
        window = self._internal[node]
        window.append(record.time)
        self._trim(window, record.time, cfg.window)
        critical = record.event in CRITICAL_EVENTS
        if not critical and len(window) < cfg.min_events:
            return None
        last = self._last_alarm.get(node)
        if last is not None and record.time - last < cfg.cooldown:
            return None
        corroborated = self._has_external(node, record.time)
        if cfg.require_external and not corroborated:
            return None
        alarm = Alarm(
            time=record.time,
            node=node,
            reason=record.event if critical else f"{len(window)} indicative events",
            events_in_window=len(window),
            external_corroborated=corroborated,
        )
        self._last_alarm[node] = record.time
        self.alarms.append(alarm)
        return alarm

    def observe_all(self, records: Iterable[ParsedRecord]) -> list[Alarm]:
        """Feed a whole (time-ordered) stream; returns all alarms raised."""
        for record in records:
            self.observe(record)
        return self.alarms

    # ------------------------------------------------------------------
    def _has_external(self, node: str, now: float) -> bool:
        blade = _blade_of(node)
        if blade is None:
            return False
        window = self._external.get(blade)
        if not window:
            return False
        self._trim(window, now, self.config.external_window)
        return bool(window)

    @staticmethod
    def _trim(window: deque, now: float, width: float) -> None:
        while window and now - window[0] > width:
            window.popleft()


@dataclass
class PredictionScore:
    """Standard prediction metrics for one alarm stream."""

    alarms: int
    true_alarms: int
    failures: int
    predicted_failures: int
    lead_times: list[float] = field(default_factory=list)

    @property
    def precision(self) -> float:
        return self.true_alarms / self.alarms if self.alarms else 0.0

    @property
    def recall(self) -> float:
        return self.predicted_failures / self.failures if self.failures else 0.0

    @property
    def mean_lead_time(self) -> float:
        return float(np.mean(self.lead_times)) if self.lead_times else 0.0

    @property
    def false_alarm_rate(self) -> float:
        return 1.0 - self.precision if self.alarms else 0.0


def evaluate(
    alarms: Sequence[Alarm],
    failures: Sequence[DetectedFailure],
    horizon: float = 2 * HOUR,
) -> PredictionScore:
    """Score alarms against failures.

    An alarm is *true* when its node fails within ``horizon`` after it;
    a failure is *predicted* when any alarm on its node preceded it
    within the horizon.  Lead times are measured from the earliest true
    alarm of each predicted failure.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    fail_times: dict[str, np.ndarray] = {}
    grouped: dict[str, list[float]] = defaultdict(list)
    for f in failures:
        grouped[f.node].append(f.time)
    for node, times in grouped.items():
        fail_times[node] = np.sort(np.asarray(times))
    true_alarms = 0
    earliest_alarm: dict[tuple[str, float], float] = {}
    for alarm in alarms:
        times = fail_times.get(alarm.node)
        hit = False
        if times is not None:
            idx = np.searchsorted(times, alarm.time, side="left")
            if idx < times.size and times[idx] - alarm.time <= horizon:
                hit = True
                key = (alarm.node, float(times[idx]))
                if key not in earliest_alarm or alarm.time < earliest_alarm[key]:
                    earliest_alarm[key] = alarm.time
        true_alarms += hit
    lead_times = [fail_t - alarm_t
                  for (node, fail_t), alarm_t in earliest_alarm.items()]
    return PredictionScore(
        alarms=len(alarms),
        true_alarms=true_alarms,
        failures=len(failures),
        predicted_failures=len(earliest_alarm),
        lead_times=lead_times,
    )
