"""The blessed public surface: stable names, keyword-only options.

Everything an operator or notebook needs lives here under four verbs
and one config object::

    from repro import api

    report = api.diagnose("logs/s1")                    # whole span
    windows = api.diagnose_windowed("logs/s1", window_days=7)
    campaign = api.run_campaign("campaign", seed=7)
    diag = api.load_system("logs/s1")                   # the pipeline itself

    # observability: pass an ObsConfig and artifacts are written for you
    report = api.diagnose("logs/s1",
                          obs=api.ObsConfig(trace_path="out.trace.json"))

Stability contract (see ``docs/API.md``):

* every function takes one positional argument (the log directory or
  campaign directory) -- all options are keyword-only;
* option names are shared across the whole package: ``error_policy``
  (never ``policy``), ``window_days``, ``stride_days``, ``only``,
  ``seed``, ``obs``;
* results are the typed report objects re-exported below, never bare
  dicts;
* the surface is snapshotted in ``tests/data/api_surface.json`` and
  guarded by ``scripts/check_api.py`` -- changing a signature without
  re-capturing the snapshot fails CI;
* a renamed or moved entry point keeps working for one release behind
  a :class:`DeprecationWarning` shim (none is current; see
  ``docs/API.md``).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.gcpause import paused_gc
from repro.core.pipeline import (
    DiagnosisReport,
    DiagnosisWindow,
    HolisticDiagnosis,
)
from repro.core.schema import json_schema_of
from repro.core.serialize import canonical_json
from repro.fleet.rollup import FleetReport
from repro.logs.health import ErrorPolicy, IngestionHealth
from repro.logs.store import LogStore
from repro.obs import ObsConfig, session

__all__ = [
    "load_system",
    "diagnose",
    "diagnose_windowed",
    "diagnose_fleet",
    "run_campaign",
    "watch",
    "serve",
    "report_schema",
    "DiagnoseRequest",
    "ServiceResponse",
    "FleetReport",
    "ObsConfig",
    "ErrorPolicy",
    "DiagnosisReport",
    "DiagnosisWindow",
    "HolisticDiagnosis",
    "IngestionHealth",
    "LogStore",
]


@dataclass(frozen=True)
class DiagnoseRequest:
    """The wire form of one diagnosis request.

    Frozen and JSON-pure: every field round-trips through
    :meth:`canonical` -> ``json.loads`` -> :meth:`from_wire` to an equal
    object, so the same value works as an HTTP body for the service
    layer (``POST /v1/diagnose``), as the first positional argument to
    :func:`diagnose` / :func:`diagnose_windowed` / :func:`load_system`,
    and as a coalescing/cache key ingredient.  Field names *are* the
    HTTP field names -- the unified option vocabulary (``error_policy``,
    ``window_days``, ``stride_days``, ``only``, ``platform``).
    """

    logdir: str
    window_days: Optional[int] = None
    stride_days: Optional[int] = None
    only: Optional[tuple[str, ...]] = None
    error_policy: str = "skip"
    platform: Optional[str] = None
    cache: Union[bool, str, None] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "logdir", str(self.logdir))
        if self.only is not None:
            only = tuple(str(name) for name in self.only)
            object.__setattr__(self, "only", only)
        object.__setattr__(
            self, "error_policy", ErrorPolicy.coerce(self.error_policy).value)
        if self.window_days is not None and self.window_days < 1:
            raise ValueError(
                f"window_days must be >= 1, got {self.window_days}")
        if self.stride_days is not None:
            if self.window_days is None:
                raise ValueError("stride_days requires window_days")
            if self.stride_days < 1:
                raise ValueError(
                    f"stride_days must be >= 1, got {self.stride_days}")
        if isinstance(self.cache, Path):
            object.__setattr__(self, "cache", str(self.cache))
        elif not isinstance(self.cache, (bool, str, type(None))):
            raise TypeError(
                f"cache must be bool, str or None on the wire, "
                f"got {type(self.cache).__name__}")

    def to_wire(self) -> dict:
        """A plain JSON-ready dict (tuples become lists)."""
        return {
            "logdir": self.logdir,
            "window_days": self.window_days,
            "stride_days": self.stride_days,
            "only": list(self.only) if self.only is not None else None,
            "error_policy": self.error_policy,
            "platform": self.platform,
            "cache": self.cache,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "DiagnoseRequest":
        """Parse a wire dict, rejecting unknown keys loudly."""
        if not isinstance(data, dict):
            raise ValueError(
                f"request must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}")
        if "logdir" not in data:
            raise ValueError("request is missing required field logdir")
        kwargs = dict(data)
        only = kwargs.get("only")
        if only is not None:
            if not isinstance(only, (list, tuple)):
                raise ValueError("only must be a list of analysis names")
            kwargs["only"] = tuple(only)
        return cls(**kwargs)

    def canonical(self) -> str:
        """Canonical JSON text (sorted keys, no whitespace)."""
        return canonical_json(self.to_wire())


@dataclass(frozen=True)
class ServiceResponse:
    """The wire form of one service answer.

    ``body`` is the exact JSON text the service computed -- for report
    endpoints that is ``canonical_json(report)``, byte-for-byte what a
    direct :func:`diagnose` plus canonical serialization yields.
    ``cached`` / ``coalesced`` / ``key`` mirror the ``X-Cache`` /
    ``X-Coalesced`` / ``X-Request-Key`` response headers.
    """

    status: int
    #: what the body is: report | windows | fleet | schema | health | error
    kind: str
    body: str
    cached: bool = False
    coalesced: bool = False
    key: Optional[str] = None

    @property
    def body_bytes(self) -> bytes:
        """The response body exactly as it crosses the wire."""
        return self.body.encode("utf-8")

    def payload(self) -> object:
        """The body parsed back to Python."""
        return json.loads(self.body)

    def to_wire(self) -> dict:
        return {
            "status": self.status,
            "kind": self.kind,
            "body": self.body,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "key": self.key,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "ServiceResponse":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown response field(s) {', '.join(unknown)}")
        return cls(**data)

    def canonical(self) -> str:
        return canonical_json(self.to_wire())


#: keyword defaults of the request options, shared by every entry point
#: that accepts a :class:`DiagnoseRequest` (``watch`` overrides one)
_REQUEST_DEFAULTS = dict(window_days=None, stride_days=None,
                         error_policy=ErrorPolicy.SKIP, only=None,
                         cache=None, platform=None)


def _resolve(fn_name: str, logdir, defaults: dict, **given):
    """``(logdir, options)`` for an entry point taking a request or a path.

    With a path, ``given`` (the caller's keywords) passes through.  With
    a :class:`DiagnoseRequest`, every keyword must sit at its default in
    ``defaults`` (else ``TypeError``) and the request supplies the
    values instead -- a field the request leaves ``None`` keeps the
    keyword's default.
    """
    if not isinstance(logdir, DiagnoseRequest):
        return logdir, given
    for name, value in given.items():
        if value != defaults[name]:
            raise TypeError(
                f"{fn_name}() got both a DiagnoseRequest and an explicit "
                f"{name}= keyword; set {name} on the request instead")
    options = {}
    for name in given:
        value = getattr(logdir, name)
        options[name] = defaults[name] if value is None else value
    return logdir.logdir, options


def _store(logdir: Union[Path, str],
           platform: Optional[str] = None) -> LogStore:
    """Open an on-disk log store, failing with a useful message."""
    store = LogStore(Path(logdir), platform=platform)
    if not store.exists():
        raise FileNotFoundError(
            f"{logdir} is not a log store (no manifest.json)")
    return store


def _maybe_session(obs: Optional[ObsConfig]):
    """An observability session when asked for one, else a no-op scope."""
    return contextlib.nullcontext() if obs is None else session(obs)


def load_system(
    logdir: Union[Path, str, DiagnoseRequest],
    *,
    error_policy: Union[ErrorPolicy, str] = ErrorPolicy.SKIP,
    health: Optional[IngestionHealth] = None,
    cache=None,
    platform: Optional[str] = None,
) -> HolisticDiagnosis:
    """Ingest a log directory and return the bound diagnosis pipeline.

    The positional argument may be a :class:`DiagnoseRequest` instead
    of a path, in which case the request's fields supply the options
    and the overlapping keywords must be left at their defaults.

    The pipeline object exposes the full power surface (``run``,
    ``run_windowed``, ``compute``, the shared record index); the
    ``diagnose*`` helpers below cover the common cases in one call.
    ``error_policy`` governs the hardened readers -- ``"strict"``
    raises on the first malformed line, ``"skip"`` and ``"quarantine"``
    ingest around damage and account for it in the report's
    :class:`IngestionHealth`.

    ``cache`` attaches a persistent parse cache so re-ingesting
    unchanged logs skips parsing entirely: ``True`` uses the store-local
    default directory (``<logdir>/.parse-cache``), a path uses that
    directory, ``None`` (default) parses uncached.  Output is
    byte-identical either way (see ``docs/PERFORMANCE.md``).

    ``platform`` forces the catalog the logs are read under (a registry
    name from :mod:`repro.logs.catalogs`, e.g. ``"cray-xc"`` or
    ``"bgq-ras"``); the default ``None`` honors the store manifest's
    recorded dialect, content-sniffing when the manifest predates the
    field (see ``docs/PLATFORMS.md``).
    """
    logdir, options = _resolve(
        "load_system", logdir, _REQUEST_DEFAULTS, error_policy=error_policy,
        cache=cache, platform=platform)
    return HolisticDiagnosis.from_store(
        _store(logdir, options["platform"]),
        error_policy=options["error_policy"], health=health,
        cache=options["cache"])


def diagnose(
    logdir: Union[Path, str, DiagnoseRequest],
    *,
    error_policy: Union[ErrorPolicy, str] = ErrorPolicy.SKIP,
    only: Optional[Sequence[str]] = None,
    obs: Optional[ObsConfig] = None,
    cache=None,
    platform: Optional[str] = None,
) -> DiagnosisReport:
    """One call from a log directory to the paper's full diagnosis.

    ``only`` restricts the run to the named registry analyses (plus
    their dependencies); a requested analysis whose required source
    stream is missing is reported in ``degraded_reasons`` rather than
    silently returning its neutral result.  ``obs`` scopes the call in
    an observability session and writes the artifacts its paths name.
    ``cache`` and ``platform`` are the parse-cache and read-dialect
    knobs of :func:`load_system`.  A :class:`DiagnoseRequest` (with
    ``window_days`` unset) may stand in for the path plus options.
    """
    logdir, options = _resolve(
        "diagnose", logdir, _REQUEST_DEFAULTS, window_days=None,
        error_policy=error_policy, only=only, cache=cache, platform=platform)
    if options.pop("window_days") is not None:
        raise ValueError(
            "request sets window_days; use diagnose_windowed for "
            "windowed runs")
    only = options.pop("only")
    with _maybe_session(obs), paused_gc():
        return load_system(logdir, **options).run(only=only)


def diagnose_windowed(
    logdir: Union[Path, str, DiagnoseRequest],
    *,
    window_days: Optional[int] = None,
    stride_days: Optional[int] = None,
    error_policy: Union[ErrorPolicy, str] = ErrorPolicy.SKIP,
    only: Optional[Sequence[str]] = None,
    obs: Optional[ObsConfig] = None,
    cache=None,
    platform: Optional[str] = None,
) -> list[DiagnosisWindow]:
    """Sliding-window diagnosis: one report per ``window_days`` slice.

    Windows advance by ``stride_days`` (default: tumbling).  With
    observability enabled (an ``obs`` config, or a surrounding
    :func:`repro.obs.session`) each window carries a per-analysis cost
    profile in :attr:`DiagnosisWindow.profile`.  ``cache`` and
    ``platform`` are the parse-cache and read-dialect knobs of
    :func:`load_system`.  A :class:`DiagnoseRequest` carrying
    ``window_days`` may stand in for the path plus options -- the
    keywords must then be left at their defaults.
    """
    logdir, options = _resolve(
        "diagnose_windowed", logdir, _REQUEST_DEFAULTS,
        window_days=window_days, stride_days=stride_days,
        error_policy=error_policy, only=only, cache=cache, platform=platform)
    windows = {name: options.pop(name)
               for name in ("window_days", "stride_days", "only")}
    if windows["window_days"] is None:
        raise TypeError(
            "diagnose_windowed() needs window_days -- as a keyword or on "
            "the DiagnoseRequest")
    with _maybe_session(obs), paused_gc():
        return list(load_system(logdir, **options).run_windowed(**windows))


def watch(
    logdir: Union[Path, str, DiagnoseRequest],
    *,
    out: Union[Path, str],
    window_days: int = 1,
    poll_interval: float = 0.5,
    error_policy: Union[ErrorPolicy, str] = ErrorPolicy.SKIP,
    resume: bool = False,
    max_polls: Optional[int] = None,
    idle_polls: Optional[int] = None,
    obs: Optional[ObsConfig] = None,
    platform: Optional[str] = None,
):
    """Stream-diagnose a live log directory until it goes quiet.

    Long-running counterpart of :func:`diagnose_windowed`: tails the
    directory's log files (surviving rotation, copy-truncate, gzip
    compression and torn writes), emits early-warning alerts to
    ``out/alerts.jsonl`` the moment a failure-precursor line lands, and
    closes a diagnosis window whenever the stream passes a
    ``window_days`` boundary.  The final artifact (``out/report.json``)
    is byte-identical to a batch :func:`diagnose_windowed` over the
    finished directory.

    Crash safety: progress is checkpointed under ``out``; after a hard
    kill, ``resume=True`` continues exactly-once (no duplicate alerts,
    no lost windows, same final bytes).  Stops after ``idle_polls``
    consecutive empty polls or ``max_polls`` total (each ``None`` means
    unbounded -- then it runs until SIGTERM/SIGINT, which finalize
    gracefully).  Returns a :class:`repro.stream.WatchReport`.
    There is no parse-cache knob: the daemon's tailer parses every
    file, fresh or resumed, incrementally from its checkpointed offsets
    (a request's ``cache`` is ignored).  ``platform`` forces the read
    dialect, as in :func:`load_system`.
    """
    # imported lazily, like run_campaign: the streaming subsystem is
    # not needed by the batch-only surface above
    from repro.stream import WatchConfig, WatchDaemon

    logdir, options = _resolve(
        "watch", logdir, {**_REQUEST_DEFAULTS, "window_days": 1},
        window_days=window_days, error_policy=error_policy,
        platform=platform)
    _store(logdir)  # fail early with the shared useful message
    config = WatchConfig(
        logdir=Path(logdir), out=Path(out), poll_interval=poll_interval,
        resume=resume, max_polls=max_polls, idle_polls=idle_polls,
        **options)
    with _maybe_session(obs):
        return WatchDaemon(config).run()


def run_campaign(
    out: Union[Path, str],
    *,
    seed: int = 7,
    resume: bool = False,
    only: Optional[Sequence[str]] = None,
    config=None,
    obs: Optional[ObsConfig] = None,
):
    """Run the paper's experiment campaign under supervision.

    Thin facade over :class:`repro.runtime.CampaignSupervisor`: isolated
    workers, retries, circuit breakers and a crash-safe journal under
    ``out`` (``resume=True`` re-runs only what is not proven complete).
    Returns the :class:`repro.runtime.CampaignReport`.  ``config`` is an
    optional :class:`repro.runtime.SupervisorConfig`.
    """
    # imported lazily: the campaign registry materialises scenarios and
    # is far heavier than the diagnosis-only surface above
    from repro.runtime import CampaignSupervisor

    supervisor = CampaignSupervisor(out, seed=seed, config=config, only=only)
    with _maybe_session(obs):
        return supervisor.run(resume=resume)


def diagnose_fleet(
    out: Union[Path, str],
    *,
    systems: int = 100,
    days: int = 2,
    seed: int = 7,
    resume: bool = False,
    config=None,
    obs: Optional[ObsConfig] = None,
    platform: Optional[str] = None,
) -> FleetReport:
    """Diagnose a fleet of simulated systems under shard supervision.

    Every member runs in its own supervised worker shard (private
    deadline, retries and circuit breaker), persists a self-validating
    columnar artifact under ``out/shards/``, and the surviving shards
    are merged into a :class:`FleetReport` with conserved accounting
    (``covered + degraded == fleet``) -- a partial fleet degrades, it
    never crashes the rollup.  ``resume=True`` replays the fleet
    journal, re-validates every artifact through its checksum
    (rebuilding any that rotted), re-runs only what is unproven, and
    reproduces ``out/fleet_report.json`` byte-identically.  ``config``
    is an optional :class:`repro.runtime.SupervisorConfig` (defaults
    to :func:`repro.fleet.fleet_config`'s concurrent profile).
    ``platform`` forces the catalog every member store is read under
    (``None`` honors each member's manifest).  See ``docs/FLEET.md``.
    """
    # imported lazily, like run_campaign: the fleet subsystem drags in
    # the simulator and is not needed by the diagnosis-only surface
    from repro.fleet import FleetSpec, FleetSupervisor

    supervisor = FleetSupervisor(
        out, spec=FleetSpec(systems=systems, days=days, seed=seed,
                            platform=platform),
        config=config)
    with _maybe_session(obs):
        return supervisor.run(resume=resume)


def report_schema() -> dict:
    """A stable JSON schema for :class:`DiagnosisReport`.

    Derived from the report dataclasses themselves (so it cannot drift)
    and emitted deterministically -- sorted ``$defs`` and properties,
    canonical-JSON friendly.  The service layer serves exactly this
    document at ``GET /v1/schema``.
    """
    return json_schema_of(DiagnosisReport, title="DiagnosisReport")


def serve(
    root: Union[Path, str] = ".",
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_workers: int = 4,
    cache_entries: int = 128,
    quota_rate: float = 50.0,
    quota_burst: float = 200.0,
    max_pending: int = 64,
    drain_grace: float = 30.0,
    obs: Optional[ObsConfig] = None,
):
    """Run the diagnosis service until SIGTERM/SIGINT; returns its report.

    Blocking facade over :mod:`repro.serve`: an asyncio HTTP front end
    exposing ``POST /v1/diagnose``, ``POST /v1/diagnose/windowed``,
    ``POST /v1/fleet``, ``GET /v1/health``, ``GET /v1/schema`` and the
    chunked ``GET /v1/alerts/stream``.  Identical concurrent requests
    coalesce into one pipeline run, warm repeats answer from an LRU
    report cache invalidated by logdir content fingerprints, per-tenant
    token buckets and a global backpressure cap answer overload with
    429 + ``Retry-After``.  ``root`` anchors every ``logdir`` in
    request bodies (path escapes answer 403); a ``root`` that is not a
    directory raises ``FileNotFoundError`` before anything binds.  Once
    the socket is bound it prints ``serving on http://host:port`` (with
    ``port=0`` that line is the only way to learn the ephemeral port).
    See ``docs/SERVICE.md``.
    """
    # imported lazily, like run_campaign: asyncio service machinery is
    # not needed by the batch-only surface above
    from repro.serve import ServiceConfig, run_service

    if not Path(root).is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    config = ServiceConfig(
        root=Path(root), host=host, port=port, max_workers=max_workers,
        cache_entries=cache_entries, quota_rate=quota_rate,
        quota_burst=quota_burst, max_pending=max_pending,
        drain_grace=drain_grace, announce=True)
    with _maybe_session(obs):
        return run_service(config)
