"""Declarative analysis registry: the pipeline's plugin layer.

The paper's holistic method is a *set* of per-question analyses
(Observations 1-9) joined over three log families.  Instead of one
hand-wired driver function, every analysis module declares what it
computes as an :class:`AnalysisSpec` and registers it here::

    # at the bottom of repro/core/dominant.py
    register(AnalysisSpec(
        name="dominance",
        inputs=("failures", "failures_by_day"),
        compute=lambda failures, by_day: daily_dominance(failures, by_day=by_day),
        neutral=list,
    ))

A spec is self-describing:

``name``
    Registry key; also the key used in ``skipped_analyses`` and
    ``analysis_errors`` on the report.
``inputs``
    Names of attributes resolved from the *analysis context* (the
    :class:`~repro.core.pipeline.HolisticDiagnosis` instance, whose
    tables are built on first read, or any object with the same
    attributes) before any analysis runs, outside its error capture,
    and passed positionally to ``compute``.  A bound zero-argument
    method (e.g. ``duration_days``) is called; the rest pass as-is.
``depends_on``
    Names of previously registered analyses whose *results* are passed
    to ``compute`` after the context inputs (e.g. ``dominance_summary``
    consumes ``dominance``).  Dependencies must already be registered,
    so registration order is always a valid execution order.
``required_sources``
    Log streams the analysis cannot run without.  The driver derives
    the whole skip/degradation contract from these declarations -- there
    is no hand-maintained source-to-analyses table anymore.
``neutral``
    A **lazy** factory for the analysis's empty result, invoked only
    when the analysis is skipped, deselected, or crashes.  The success
    path never pays for it.
``field``
    The :class:`~repro.core.pipeline.DiagnosisReport` attribute the
    result lands in (defaults to ``name``).
``platforms``
    Platform catalogs (registry names from :mod:`repro.logs.catalogs`)
    the analysis applies to.  Empty -- the overwhelming default -- means
    platform-independent: the analysis runs everywhere and claims a
    report field.  Non-empty marks a dialect-specific analysis: it runs
    only when the diagnosed store's platform is listed, never claims a
    dedicated report field, and lands in the report's
    ``platform_analyses`` mapping instead -- so a Cray diagnosis simply
    omits BG/Q analyses rather than crashing on their absent vocabulary.

:func:`execute` is the generic driver: it resolves inputs from a
context object, runs every (selected) analysis under error capture,
honors inter-analysis dependencies, and returns ``name -> result``.
Both the batch and the windowed pipeline drivers are thin wrappers
around it.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.logs.record import LogSource
from repro.obs import OBS

__all__ = [
    "AnalysisSpec",
    "AnalysisRegistry",
    "REGISTRY",
    "register",
    "execute",
    "resolve_input",
    "guarded",
]

T = TypeVar("T")


def guarded(
    name: str,
    fn: Callable[[], T],
    default: T,
    errors: dict[str, str],
    skipped: Sequence[str] = (),
) -> T:
    """Run one unit of work under error capture.

    The degradation primitive shared by the analysis driver and the
    campaign runtime's in-process fallback: a crash in ``fn`` records
    ``name -> message`` in ``errors`` and returns ``default`` instead of
    propagating, and a ``name`` listed in ``skipped`` never runs at all.
    """
    if name in skipped:
        return default
    try:
        return fn()
    except Exception as exc:  # capture, degrade, carry on
        errors[name] = f"{type(exc).__name__}: {exc}"
        return default


@dataclass(frozen=True)
class AnalysisSpec:
    """One self-describing analysis (see the module docstring)."""

    name: str
    compute: Callable[..., Any]
    neutral: Callable[[], Any]
    inputs: tuple[str, ...] = ()
    depends_on: tuple[str, ...] = ()
    required_sources: tuple[LogSource, ...] = ()
    field: Optional[str] = None
    doc: str = ""
    platforms: tuple[str, ...] = ()

    @property
    def report_field(self) -> str:
        """The report attribute this analysis fills."""
        return self.field or self.name

    def applies_to(self, platform: Optional[str]) -> bool:
        """Whether this analysis runs for a store of ``platform``.

        Universal analyses (empty ``platforms``) apply everywhere,
        including to a ``None`` platform (a directly constructed
        diagnosis with no store); scoped analyses need a listed name.
        """
        return not self.platforms or (
            platform is not None and platform in self.platforms)


class AnalysisRegistry:
    """Ordered collection of :class:`AnalysisSpec`.

    Registration order is execution order (dependencies must be
    registered before their dependents), which keeps the driver a
    single forward pass instead of a topological sort.
    """

    def __init__(self) -> None:
        self._specs: dict[str, AnalysisSpec] = {}

    # -- registration --------------------------------------------------
    def register(self, spec: AnalysisSpec) -> AnalysisSpec:
        """Add one spec; returns it so modules can keep a handle."""
        if spec.name in self._specs:
            raise ValueError(f"duplicate analysis {spec.name!r}")
        for dep in spec.depends_on:
            if dep not in self._specs:
                raise ValueError(
                    f"analysis {spec.name!r} depends on unregistered "
                    f"{dep!r}; register dependencies first")
        fields = {s.report_field for s in self._specs.values()}
        if spec.report_field in fields:
            raise ValueError(
                f"analysis {spec.name!r} maps to report field "
                f"{spec.report_field!r}, already taken")
        self._specs[spec.name] = spec
        return spec

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def names(self) -> list[str]:
        """All analysis names, in registration (= execution) order."""
        return list(self._specs)

    def specs(self) -> list[AnalysisSpec]:
        """All specs, in registration (= execution) order."""
        return list(self._specs.values())

    def get(self, name: str) -> AnalysisSpec:
        """Lookup with a helpful error."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown analysis {name!r}; registered: "
                + ", ".join(self._specs)) from None

    def dependents(self, source: LogSource) -> tuple[str, ...]:
        """Analyses that declare ``source`` as required, in order."""
        return tuple(s.name for s in self._specs.values()
                     if source in s.required_sources)

    def source_dependents(self) -> dict[LogSource, tuple[str, ...]]:
        """The derived source -> dependent-analyses table.

        Computed from each spec's ``required_sources``, so the table can
        never drift from the declarations it summarises.
        """
        table: dict[LogSource, tuple[str, ...]] = {}
        for source in LogSource:
            dependents = self.dependents(source)
            if dependents:
                table[source] = dependents
        return table

    def platform_excluded(self, platform: Optional[str]) -> list[str]:
        """Names of platform-scoped analyses that do *not* apply.

        The driver folds these into the skip set, so a dialect-specific
        analysis degrades to its neutral result on every other platform
        instead of crashing on a vocabulary it cannot see.
        """
        return [s.name for s in self._specs.values()
                if not s.applies_to(platform)]

    def closure(self, names: Iterable[str]) -> list[str]:
        """``names`` plus transitive dependencies, in execution order.

        Raises ``KeyError`` naming the registered analyses when any
        requested name is unknown (the ``--only`` contract).
        """
        wanted: set[str] = set()
        stack = [self.get(name).name for name in names]
        while stack:
            name = stack.pop()
            if name in wanted:
                continue
            wanted.add(name)
            stack.extend(self._specs[name].depends_on)
        return [name for name in self._specs if name in wanted]


#: the process-wide registry every analysis module registers into
REGISTRY = AnalysisRegistry()


def register(spec: AnalysisSpec) -> AnalysisSpec:
    """Register ``spec`` with the module-level :data:`REGISTRY`."""
    return REGISTRY.register(spec)


def resolve_input(ctx: Any, name: str) -> Any:
    """One declared input, resolved from the analysis context.

    A bound zero-argument method is called (``duration_days``); plain
    attributes and properties are returned as-is.
    """
    value = getattr(ctx, name)
    if inspect.ismethod(value):
        return value()
    return value


def execute(
    ctx: Any,
    registry: Optional[AnalysisRegistry] = None,
    *,
    skipped: Sequence[str] = (),
    exclude: Sequence[str] = (),
    errors: Optional[dict[str, str]] = None,
    only: Optional[Iterable[str]] = None,
    profile: Optional[dict[str, float]] = None,
) -> dict[str, Any]:
    """Run registered analyses over ``ctx``; returns ``name -> result``.

    Every selected analysis runs under error capture: a crash records
    ``name -> message`` in ``errors`` and yields the analysis's neutral
    result.  A ``name`` in ``skipped`` (the missing-source contract) and
    any analysis outside ``only``'s dependency closure never runs and
    yields its neutral result -- the neutral factory is invoked *only*
    on those paths, never on success.  A ``name`` in ``exclude`` (the
    platform-scoping contract) is dropped entirely: no run, no neutral,
    no entry in the result mapping.

    With observability enabled every executed analysis runs under an
    ``analysis.<name>`` span; passing a ``profile`` dict additionally
    collects ``name -> wall seconds`` for the analyses that ran (the
    windowed driver uses this for per-window cost profiles).
    """
    registry = REGISTRY if registry is None else registry
    if errors is None:
        errors = {}
    selected = (set(registry.names()) if only is None
                else set(registry.closure(only)))
    excluded = set(exclude)
    selected -= set(skipped) | excluded
    inputs = {name: resolve_input(ctx, name) for spec in registry
              if spec.name in selected for name in spec.inputs}
    results: dict[str, Any] = {}
    for spec in registry:
        if spec.name in excluded:
            continue
        if spec.name not in selected:
            results[spec.name] = spec.neutral()
            continue
        started = time.perf_counter() if profile is not None else 0.0
        with OBS.span("analysis." + spec.name, "analysis") as span:
            try:
                args = [inputs[name] for name in spec.inputs]
                args.extend(results[dep] for dep in spec.depends_on)
                results[spec.name] = spec.compute(*args)
            except Exception as exc:  # capture, degrade, carry on
                errors[spec.name] = f"{type(exc).__name__}: {exc}"
                results[spec.name] = spec.neutral()
                span.tag(error=type(exc).__name__)
        if profile is not None:
            profile[spec.name] = time.perf_counter() - started
    return results
