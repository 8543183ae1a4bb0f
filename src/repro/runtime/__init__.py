"""Resilient campaign runtime: supervision, journaling, retry, faults.

The execution-layer counterpart of :mod:`repro.logs`' hardened
ingestion: where PR 1 made the pipeline survive damaged *data*, this
package makes the experiment campaign survive damaged *execution* --
crashed or hung workers, SIGKILLed processes, interrupted runs.

* :mod:`repro.runtime.supervisor` -- isolated worker processes with
  heartbeats, per-experiment deadlines, bounded retry and a
  per-scenario circuit breaker;
* :mod:`repro.runtime.journal` -- the one append-only JSONL journal
  class (campaign, fleet, watch checkpoint), whose replay cuts a
  crash-torn tail, plus atomic, byte-deterministic campaign artifacts
  enabling ``--resume``;
* :mod:`repro.runtime.retry` -- backoff policy and circuit breaker;
* :mod:`repro.runtime.faults` -- process-level fault injection
  (SIGKILL, hang, crash, slow) for the chaos harness.
"""

from repro.runtime.journal import CampaignJournal, JournalError
from repro.runtime.retry import CircuitBreaker, RetryPolicy
from repro.runtime.supervisor import (
    CampaignReport,
    CampaignSupervisor,
    ExperimentOutcome,
    SupervisorConfig,
)

__all__ = [
    "CampaignJournal",
    "JournalError",
    "CircuitBreaker",
    "RetryPolicy",
    "CampaignReport",
    "CampaignSupervisor",
    "ExperimentOutcome",
    "SupervisorConfig",
]
