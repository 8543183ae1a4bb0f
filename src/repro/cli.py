"""Command-line interface: simulate, diagnose, predict, advise.

Usage (installed as a module runner)::

    python -m repro simulate s3 --out logs/s3 --seed 7
    python -m repro diagnose logs/s3 --findings --cases
    python -m repro predict logs/s3 --require-external
    python -m repro checkpoint logs/s3 --cost 360
    python -m repro experiments
    python -m repro run-all --out campaign --resume
    python -m repro fleet fleetdir --systems 100 --resume
    python -m repro watch logs/live --out watch --idle-polls 10
    python -m repro serve data --port 8787

The CLI is a thin layer over :mod:`repro.api`: each subcommand that
builds a pipeline, daemon, service or supervisor gets it from one
public API call (the verb -> call table is in ``docs/API.md``), so
everything it prints is reproducible from a notebook with the same
few lines.  The batch verbs (``diagnose``, ``predict``, ``checkpoint``,
``timeline``) run load and body under one collector pause.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import api
from repro.core.checkpointing import CheckpointAdvisor
from repro.core.gcpause import paused_gc
from repro.core.health import MitigationAdvisor
from repro.core.prediction import OnlinePredictor, PredictorConfig, evaluate
from repro.core.report import generate_findings, render_findings
from repro.experiments.render import bar_chart
from repro.experiments.scenarios import SCENARIOS, materialize
from repro.logs.catalogs import catalog_names
from repro.logs.health import ErrorPolicy, IngestionError
from repro.logs.store import LogStore
from repro.obs import ObsConfig, session

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systemic assessment of node failures: simulate HPC "
                    "platform logs and diagnose them holistically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="materialise a scenario's logs")
    p_sim.add_argument("scenario", choices=sorted(SCENARIOS))
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--out", type=Path, default=None,
                       help="directory root (default: scenario cache)")

    policy_kwargs = dict(
        choices=[p.value for p in ErrorPolicy],
        default=ErrorPolicy.SKIP.value,
        help="what to do with unparseable log lines (default: skip; "
             "quarantine also writes them to <logdir>/quarantine/)",
    )

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-cache", action="store_true",
                       help="parse without the persistent parse cache "
                            "(output is byte-identical either way)")
        p.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                       help="parse-cache directory (default: "
                            "<logdir>/.parse-cache)")

    def add_obs_flags(p: argparse.ArgumentParser, what: str = "run") -> None:
        p.add_argument("--trace", type=Path, default=None, metavar="PATH",
                       help=f"record the {what} and write a Chrome "
                            "trace-event JSON file (open with Perfetto)")
        p.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                       help=f"record the {what} and write a canonical-JSON "
                            "metrics snapshot")

    def add_platform_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--platform", choices=catalog_names(), default=None,
                       help="platform catalog to read the logs under "
                            "(default: the store manifest's recorded "
                            "dialect, sniffed from content for stores "
                            "that predate the field)")

    p_diag = sub.add_parser("diagnose", help="run the pipeline over a log dir")
    p_diag.add_argument("logdir", type=Path, nargs="?", default=None)
    p_diag.add_argument("--error-policy", **policy_kwargs)
    add_cache_flags(p_diag)
    add_platform_flag(p_diag)
    p_diag.add_argument("--findings", action="store_true",
                        help="print Table VI style findings")
    p_diag.add_argument("--cases", action="store_true",
                        help="print per-failure case narratives")
    p_diag.add_argument("--health", action="store_true",
                        help="print per-source ingestion accounting")
    p_diag.add_argument("--only", type=str, default=None, metavar="NAME[,NAME]",
                        help="run only these registered analyses (plus their "
                             "dependencies); see --list-analyses")
    p_diag.add_argument("--list-analyses", action="store_true",
                        help="print the analysis registry and exit")
    p_diag.add_argument("--window-days", type=int, default=None, metavar="N",
                        help="windowed mode: diagnose sliding N-day windows "
                             "instead of the whole span")
    p_diag.add_argument("--stride-days", type=int, default=None, metavar="M",
                        help="window advance in days (default: --window-days, "
                             "i.e. tumbling windows)")
    add_obs_flags(p_diag)

    p_pred = sub.add_parser("predict", help="online failure prediction")
    p_pred.add_argument("logdir", type=Path)
    p_pred.add_argument("--error-policy", **policy_kwargs)
    add_cache_flags(p_pred)
    p_pred.add_argument("--require-external", action="store_true")
    p_pred.add_argument("--min-events", type=int, default=3)
    p_pred.add_argument("--horizon", type=float, default=7200.0,
                        help="true-alarm horizon in seconds")

    p_ckpt = sub.add_parser("checkpoint", help="checkpoint interval advice")
    p_ckpt.add_argument("logdir", type=Path)
    p_ckpt.add_argument("--error-policy", **policy_kwargs)
    add_cache_flags(p_ckpt)
    p_ckpt.add_argument("--cost", type=float, default=360.0,
                        help="checkpoint cost in seconds")

    p_tl = sub.add_parser("timeline", help="forensic timeline for one node")
    p_tl.add_argument("logdir", type=Path)
    p_tl.add_argument("--error-policy", **policy_kwargs)
    add_cache_flags(p_tl)
    p_tl.add_argument("node", help="node cname, e.g. c0-0c1s4n2")
    p_tl.add_argument("--at", type=float, default=None,
                      help="anchor sim-time (default: the node's first "
                           "detected failure)")
    p_tl.add_argument("--before", type=float, default=7200.0)
    p_tl.add_argument("--after", type=float, default=600.0)

    p_exp = sub.add_parser("experiments", help="run all paper reproductions")
    p_exp.add_argument("--seed", type=int, default=7)
    p_exp.add_argument("--draw", action="store_true",
                       help="render each figure's ASCII shape")

    p_run = sub.add_parser(
        "run-all",
        help="supervised campaign: isolated workers, retries, resume")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--out", type=Path, default=Path("campaign"),
                       help="campaign directory (journal + artifacts; "
                            "default: ./campaign)")
    p_run.add_argument("--resume", action="store_true",
                       help="skip experiments the journal proves complete")
    p_run.add_argument("--only", nargs="+", metavar="EXP", default=None,
                       help="restrict the campaign to these experiment ids")
    p_run.add_argument("--deadline", type=float, default=1800.0,
                       help="per-experiment wall-clock deadline in seconds")
    p_run.add_argument("--max-attempts", type=int, default=3)
    p_run.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures before a scenario's "
                            "circuit opens")
    p_run.add_argument("--no-isolation", action="store_true",
                       help="run experiments in-process (no worker "
                            "processes; exception capture only)")
    add_obs_flags(p_run, "campaign")

    p_fleet = sub.add_parser(
        "fleet",
        help="diagnose a sharded fleet of systems (partial-failure safe)")
    p_fleet.add_argument("out", type=Path,
                         help="fleet directory (journal + shard artifacts "
                              "+ fleet_report.json)")
    p_fleet.add_argument("--systems", type=int, default=100,
                         help="fleet size (default: 100)")
    p_fleet.add_argument("--days", type=int, default=2,
                         help="simulated days per member (default: 2)")
    p_fleet.add_argument("--seed", type=int, default=7)
    add_platform_flag(p_fleet)
    p_fleet.add_argument("--resume", action="store_true",
                         help="re-validate shard artifacts and re-run only "
                              "what the journal cannot prove complete")
    p_fleet.add_argument("--max-workers", type=int, default=None,
                         metavar="N",
                         help="concurrent shard workers (default: cpu-1, "
                              "capped at 8; 1 runs one at a time)")
    add_obs_flags(p_fleet)

    p_watch = sub.add_parser(
        "watch",
        help="stream-diagnose a live log dir (tail, alert, window)")
    p_watch.add_argument("logdir", type=Path)
    p_watch.add_argument("--out", type=Path, required=True,
                         help="watch output directory (alerts.jsonl, "
                              "checkpoint.jsonl, report.json)")
    p_watch.add_argument("--error-policy", **policy_kwargs)
    add_platform_flag(p_watch)
    p_watch.add_argument("--window-days", type=int, default=1, metavar="N",
                         help="diagnosis window size in days (default: 1)")
    p_watch.add_argument("--poll-interval", type=float, default=0.5,
                         metavar="SECONDS",
                         help="sleep between polls (default: 0.5)")
    p_watch.add_argument("--resume", action="store_true",
                         help="continue from the checkpoint in --out "
                              "(exactly-once after a crash)")
    p_watch.add_argument("--max-polls", type=int, default=None, metavar="N",
                         help="finalize after N polls total")
    p_watch.add_argument("--idle-polls", type=int, default=None, metavar="N",
                         help="finalize after N consecutive polls with no "
                              "new data (default: run until SIGTERM)")
    add_obs_flags(p_watch)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP diagnosis service (coalescing, report cache, quotas)")
    p_serve.add_argument("root", type=Path, nargs="?", default=Path("."),
                        help="directory request logdirs are resolved "
                             "under (default: cwd)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787, metavar="N",
                         help="bind port; 0 picks an ephemeral port "
                              "(default: 8787)")
    p_serve.add_argument("--max-workers", type=int, default=4, metavar="N",
                         help="executor threads running pipeline work "
                              "(default: 4)")
    p_serve.add_argument("--cache-entries", type=int, default=128,
                         metavar="N",
                         help="LRU report-cache capacity (default: 128)")
    p_serve.add_argument("--quota-rate", type=float, default=50.0,
                         metavar="R",
                         help="per-tenant sustained requests/second "
                              "(default: 50)")
    p_serve.add_argument("--quota-burst", type=float, default=200.0,
                         metavar="B",
                         help="per-tenant burst capacity (default: 200)")
    p_serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                         help="global cap on admitted pipeline runs; "
                              "beyond it requests get 429 (default: 64)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="SECONDS",
                         help="seconds to let in-flight requests finish "
                              "on SIGTERM (default: 30)")
    add_obs_flags(p_serve, "service")

    p_cache = sub.add_parser(
        "cache", help="manage a store's persistent parse cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, text in (
        ("stats", "entry count, disk bytes, records, and -- when a "
                  "--metrics snapshot is given -- the hit rate"),
        ("clear", "delete every cache entry and path record"),
        ("verify", "validate every entry's checksum (healing rot)"),
    ):
        pc = cache_sub.add_parser(name, help=text)
        pc.add_argument("logdir", type=Path,
                        help="log store whose cache to inspect")
        pc.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="cache directory (default: "
                             "<logdir>/.parse-cache)")
        if name == "stats":
            pc.add_argument("--metrics", type=Path, default=None,
                            metavar="PATH",
                            help="metrics snapshot of a recorded run (from "
                                 "any command's --metrics flag) to compute "
                                 "the hit rate from")
        if name == "verify":
            pc.add_argument("--no-heal", action="store_true",
                            help="report invalid entries without deleting "
                                 "them")

    p_cat = sub.add_parser(
        "catalogs", help="list the registered platform catalogs")
    p_cat.add_argument("--events", action="store_true",
                       help="also list every event key per catalog")

    p_obs = sub.add_parser(
        "obs", help="inspect observability artifacts")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_osum = obs_sub.add_parser(
        "summary",
        help="human summary of a --trace / --metrics JSON file")
    p_osum.add_argument("file", type=Path,
                        help="a Chrome trace or metrics snapshot file")
    return parser


@contextlib.contextmanager
def _observed(args: argparse.Namespace):
    """The ``--trace`` / ``--metrics`` scope: a real session when either
    was passed (noting where its artifacts landed once it closes), a
    no-op otherwise."""
    if args.trace is None and args.metrics is None:
        yield
        return
    with session(ObsConfig(trace_path=args.trace, metrics_path=args.metrics)):
        yield
    for what, path in (("trace", args.trace), ("metrics", args.metrics)):
        if path is not None:
            print(f"{what} written: {path}")


def _cache_from_args(args: argparse.Namespace):
    """Resolve the shared ``--no-cache`` / ``--cache-dir`` flags.

    The parse cache is *on by default* for the read-only commands (it
    is byte-transparent and a second run over unchanged logs skips
    parsing entirely): ``True`` means the store-local default
    directory, a path overrides the location, ``False`` disables.
    """
    if getattr(args, "no_cache", False):
        if getattr(args, "cache_dir", None) is not None:
            raise SystemExit("error: --no-cache and --cache-dir conflict")
        return False
    cache_dir = getattr(args, "cache_dir", None)
    return True if cache_dir is None else cache_dir


def _load(args: argparse.Namespace) -> api.HolisticDiagnosis:
    """The pipeline over ``args.logdir``, built by :func:`api.load_system`."""
    return api.load_system(args.logdir, error_policy=args.error_policy,
                           cache=_cache_from_args(args),
                           platform=getattr(args, "platform", None))


def _cmd_simulate(args: argparse.Namespace) -> int:
    store = materialize(args.scenario, seed=args.seed, root=args.out)
    counts = store.line_counts()
    print(f"scenario {args.scenario!r} (seed {args.seed}) at {store.root}")
    print(bar_chart({k: float(v) for k, v in counts.items()},
                    fmt="{:.0f}", title="log lines per source"))
    return 0


def _list_analyses() -> int:
    from repro.core.analysis import REGISTRY

    width = max(len(name) for name in REGISTRY.names())
    print(f"{'analysis':<{width}}  requires    depends on        -> report field")
    for spec in REGISTRY:
        requires = ",".join(s.value for s in spec.required_sources) or "-"
        depends = ",".join(spec.depends_on) or "-"
        print(f"{spec.name:<{width}}  {requires:<10}  {depends:<16}  "
              f"-> {spec.report_field}")
        if spec.doc:
            print(f"{'':<{width}}    {spec.doc}")
    return 0


def _parse_only(raw: Optional[str]) -> Optional[list[str]]:
    """Validate a comma-separated ``--only`` list against the registry."""
    if raw is None:
        return None
    from repro.core.analysis import REGISTRY

    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise SystemExit("error: --only needs at least one analysis name")
    try:
        REGISTRY.closure(names)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    return names


def _cmd_diagnose_windowed(args: argparse.Namespace,
                           only: Optional[list[str]]) -> int:
    try:
        windows = api.diagnose_windowed(
            args.logdir, window_days=args.window_days,
            stride_days=args.stride_days, error_policy=args.error_policy,
            only=only, cache=_cache_from_args(args), platform=args.platform)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    reasons_shown = False
    for win in windows:
        report = win.report
        if report.degraded and not reasons_shown:
            # the reasons are structural (missing streams, ingestion
            # damage), so one header covers every window
            reasons_shown = True
            print(f"DEGRADED windows "
                  f"({len(report.degraded_reasons)} reasons):")
            for reason in report.degraded_reasons:
                print(f"  - {reason}")
        lt = report.lead_times
        summary = report.dominance_summary
        dom = (f"dominant-cause {summary['mean_fraction']:.0%}"
               if summary.get("days") else "dominant-cause n/a")
        flags = " DEGRADED" if report.degraded else ""
        print(f"days {win.start_day:>3}-{win.end_day:<3} "
              f"failures {report.failure_count:>4}  {dom}  "
              f"enhanceable {lt.enhanceable_fraction:.0%}{flags}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if args.list_analyses:
        return _list_analyses()
    if args.logdir is None:
        raise SystemExit("error: logdir is required (or pass --list-analyses)")
    only = _parse_only(args.only)
    if args.window_days is None and args.stride_days is not None:
        raise SystemExit("error: --stride-days needs --window-days")
    with _observed(args):
        if args.window_days is not None:
            return _cmd_diagnose_windowed(args, only)
        return _diagnose_batch(args, only)


def _diagnose_batch(args: argparse.Namespace,
                    only: Optional[list[str]]) -> int:
    """The whole-span diagnosis body (``diagnose`` without windows)."""
    diag = _load(args)
    report = diag.run(only=only)
    if report.degraded:
        print(f"DEGRADED diagnosis ({len(report.degraded_reasons)} reasons):")
        for reason in report.degraded_reasons:
            print(f"  - {reason}")
        if report.skipped_analyses:
            print(f"  skipped analyses: {', '.join(report.skipped_analyses)}")
    if args.health and report.ingestion_health is not None:
        print(report.ingestion_health.render())
    print(f"failures detected: {report.failure_count}")
    lt = report.lead_times
    print(f"lead times: {lt.enhanceable_fraction:.0%} enhanceable, "
          f"mean gain {lt.mean_enhancement_factor:.1f}x")
    fp = report.false_positives
    print(f"false positives: {fp.internal_fpr:.1%} internal-only vs "
          f"{fp.correlated_fpr:.1%} correlated")
    print(bar_chart(
        {c.value: f for c, f in report.category_breakdown.items()},
        fmt="{:.1%}", title="failure categories",
    ))
    if report.swos:
        print(f"system-wide outages: {len(report.swos)} "
              f"({sum(s.nodes for s in report.swos)} nodes, accounted "
              "separately)")
    if report.intended_shutdowns:
        print(f"intended shutdowns excluded: {len(report.intended_shutdowns)}")
    if diag.index.failovers:
        from repro.core.external import failover_census
        census = failover_census(diag.index, diag.failures)
        print(f"interconnect failovers: {census['succeeded']}/"
              f"{census['attempts']} succeeded; "
              f"{census['failed_followed_by_failure']} failed ones were "
              "followed by a failure")
    if diag.jobs:
        from repro.core.jobs import lost_core_hours
        lost = lost_core_hours(diag.jobs, diag.failures)
        print(f"core-hours lost to node failures: "
              f"{lost['node_failure_core_hours']:.0f} "
              f"({lost['node_failure_fraction']:.1%} of accounted time)")
    if args.cases:
        inferences = diag.compute("root_causes")
        advisor = MitigationAdvisor()
        for inf, mit in zip(inferences, advisor.advise(inferences)):
            print(f"\n{inf.failure.node} [{inf.family.value}/{inf.cause}] "
                  f"-> {mit.action.value}")
            print(f"  internal: {inf.internal_indicators}")
            print(f"  external: {inf.external_indicators}")
            print(f"  inference: {inf.inference}")
    if args.findings:
        print()
        print(render_findings(generate_findings(report)))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    diag = _load(args)
    config = PredictorConfig(
        require_external=args.require_external,
        min_events=args.min_events,
    )
    predictor = OnlinePredictor(config)
    stream = sorted(diag.internal + diag.external, key=lambda r: r.time)
    alarms = predictor.observe_all(stream)
    score = evaluate(alarms, diag.failures, horizon=args.horizon)
    print(f"alarms: {score.alarms}  precision: {score.precision:.1%}  "
          f"recall: {score.recall:.1%}  "
          f"mean lead: {score.mean_lead_time:.0f}s")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    diag = _load(args)
    advisor = CheckpointAdvisor(diag.failures)
    predictor = OnlinePredictor()
    stream = sorted(diag.internal + diag.external, key=lambda r: r.time)
    alarms = predictor.observe_all(stream)
    plan = advisor.plan(checkpoint_cost=args.cost, alarms=alarms)
    print(f"system MTBF: {plan.mtbf / 60:.1f} min")
    print(f"Young/Daly interval at C={plan.checkpoint_cost:.0f}s: "
          f"{plan.interval / 60:.1f} min")
    print(f"expected waste: {plan.blind_waste_fraction:.1%} blind, "
          f"{plan.predicted_waste_fraction:.1%} with prediction-triggered "
          f"checkpoints (recall {plan.prediction_recall:.0%}, "
          f"saving {plan.waste_reduction:.0%})")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.timeline import node_timeline, render_timeline

    diag = _load(args)
    anchor = args.at
    failure = None
    if anchor is None:
        node_failures = [f for f in diag.failures if f.node == args.node]
        if not node_failures:
            raise SystemExit(
                f"error: no detected failure for {args.node}; pass --at")
        failure = node_failures[0]
        anchor = failure.time
    entries = node_timeline(
        args.node, anchor, diag.internal, diag.external, diag.jobs,
        before=args.before, after=args.after,
    )
    print(render_timeline(entries, failure))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    # import lazily: this materialises every scenario on first run
    from repro.experiments.registry import run_all

    from repro.experiments.draw import draw

    failures = 0
    total = 0
    for run in run_all(args.seed):
        tag = f" ({run.scenario})" if run.scenario else ""
        if run.result is None:
            print(f"ERR  {run.experiment:<9} {run.error}{tag}")
        else:
            flag = "ok  " if run.result.shape_ok else "FAIL"
            print(f"{flag} {run.experiment:<9} {run.result.title}{tag}")
            if args.draw:
                print(draw(run.result))
                print()
        failures += not run.ok
        total += 1
    print(f"\n{total - failures}/{total} experiment shapes hold")
    return 1 if failures else 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.core.report import generate_campaign_findings
    from repro.runtime import JournalError, RetryPolicy, SupervisorConfig
    from repro.runtime.journal import JOURNAL_NAME

    try:
        config = SupervisorConfig(
            deadline=args.deadline,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            breaker_threshold=args.breaker_threshold,
            isolated=not args.no_isolation,
        )
        with _observed(args):
            report = api.run_campaign(args.out, seed=args.seed,
                                      resume=args.resume, only=args.only,
                                      config=config)
    except (JournalError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    for outcome in report.outcomes:
        tag = f" ({outcome.scenario})" if outcome.scenario else ""
        if outcome.completed:
            flag = "ok  " if outcome.shape_ok else "FAIL"
            origin = " [journal]" if outcome.from_journal else (
                f" [attempt {outcome.attempts}]" if outcome.attempts > 1 else "")
            print(f"{flag} {outcome.experiment:<9} "
                  f"{outcome.result.title}{tag}{origin}")
        else:
            print(f"{outcome.status.upper():<4} {outcome.experiment:<9} "
                  f"{outcome.reason}{tag}")
    completed = report.by_status("completed")
    shapes = sum(1 for o in completed if o.shape_ok)
    print(f"\n{len(completed)}/{len(report.outcomes)} experiments completed; "
          f"{shapes}/{len(completed)} shapes hold")
    print(f"journal: {args.out / JOURNAL_NAME}")
    for note in report.notes:
        print(f"note: {note}")
    if report.degraded:
        print("\nDEGRADED campaign:")
        print(render_findings(generate_campaign_findings(report.outcomes)))
        print("\nre-run with --resume to retry failed/skipped experiments")
    return report.exit_code()


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import fleet_config
    from repro.fleet.supervisor import REPORT_NAME
    from repro.runtime import JournalError

    try:
        config = fleet_config(max_workers=args.max_workers)
        with _observed(args):
            report = api.diagnose_fleet(
                args.out, systems=args.systems, days=args.days,
                seed=args.seed, resume=args.resume, config=config,
                platform=args.platform)
    except (JournalError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    cov = report.coverage
    print(f"fleet: {cov['fleet']} systems, {cov['covered']} covered, "
          f"{cov['degraded']} degraded "
          f"({report.total_failures} failures total)")
    if report.dominant_causes:
        print(bar_chart(report.dominant_causes, fmt="{:.1%}",
                        title="fleet-wide dominant causes"))
    dist = report.failure_time_distribution
    if dist.get("gaps"):
        print(f"inter-failure gaps: {dist['gaps']} pooled, "
              f"median {dist['median_hours']:.2f}h, "
              f"mean {dist['mean_hours']:.2f}h")
    for outlier in report.outliers:
        print(f"outlier: {outlier['system']} at "
              f"{outlier['failures_per_day']:.1f} failures/day "
              f"(robust z {outlier['robust_z']:.1f})")
    if report.degraded:
        print("\nDEGRADED fleet (coverage is conserved, not silently "
              "shrunk):")
        for entry in report.degraded_systems:
            print(f"  {entry['status'].upper():<7} {entry['system']:<9} "
                  f"{entry['reason']}")
        print("re-run with --resume to retry degraded shards")
    print(f"report written: {args.out / REPORT_NAME}")
    return report.exit_code()


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.stream import CheckpointError

    print(f"watching {args.logdir} (window {args.window_days}d, "
          f"poll every {args.poll_interval}s); alerts -> "
          f"{args.out / 'alerts.jsonl'}", flush=True)
    with _observed(args):
        try:
            report = api.watch(
                args.logdir, out=args.out, window_days=args.window_days,
                poll_interval=args.poll_interval,
                error_policy=args.error_policy, resume=args.resume,
                max_polls=args.max_polls, idle_polls=args.idle_polls,
                platform=args.platform)
        except (CheckpointError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
        stats = report.tail_stats
        print(f"{'resumed' if report.resumed else 'watched'}: "
              f"{report.polls} polls, {report.records} records, "
              f"{stats.get('rotations', 0)} rotations survived")
        print(f"windows: {report.window_count} "
              f"(report sha256 {report.digest[:16]})")
        print(f"alerts emitted: {report.alerts_emitted} "
              f"-> {report.alerts_path}")
        print(f"report written: {report.report_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with _observed(args):
        try:
            report = api.serve(
                args.root, host=args.host, port=args.port,
                max_workers=args.max_workers,
                cache_entries=args.cache_entries,
                quota_rate=args.quota_rate, quota_burst=args.quota_burst,
                max_pending=args.max_pending, drain_grace=args.drain_grace)
        except FileNotFoundError:
            raise  # a root that is not a directory; main() reports it
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        except (OSError, OverflowError) as exc:
            # bind() raises OverflowError for a port outside 0-65535
            raise SystemExit(
                f"error: cannot bind {args.host}:{args.port}: {exc}")
        cache = report.cache
        coalesce = report.coalesce
        print(f"served {report.requests} requests "
              f"({report.errors} internal errors); "
              f"{'drained cleanly' if report.drained else 'drain timed out'}")
        print(f"cache: {cache['hits']} hits / {cache['misses']} misses "
              f"(hit rate {cache['hit_rate']:.2%}); "
              f"coalesced {coalesce['coalesced']} requests into "
              f"{coalesce['flights']} runs")
        print(f"rejected: {report.quota['rejected']} quota, "
              f"{report.backpressure['rejected']} backpressure")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.logs.cache import ParseCache
    from repro.logs.store import DEFAULT_CACHE_DIRNAME

    store = LogStore(args.logdir)
    if not store.exists():
        raise SystemExit(f"error: {args.logdir} is not a log store "
                         "(no manifest.json)")
    cache_dir = args.cache_dir or store.root / DEFAULT_CACHE_DIRNAME
    cache = ParseCache(cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entries from {cache_dir}")
        return 0
    if args.cache_command == "verify":
        valid, invalid = cache.verify(heal=not args.no_heal)
        for entry_path in invalid:
            verb = "evicted" if not args.no_heal else "invalid"
            print(f"{verb}: {entry_path.name}")
        print(f"{valid} valid, {len(invalid)} invalid entries "
              f"in {cache_dir}")
        return 1 if invalid else 0
    # stats
    stats = cache.stats(count_records=True)
    print(f"cache at {cache_dir}")
    print(f"  entries:      {stats.entries}")
    print(f"  disk bytes:   {stats.total_bytes}")
    print(f"  records:      {stats.records}")
    if stats.invalid:
        print(f"  invalid:      {stats.invalid}  (run `repro cache verify` "
              "to heal)")
    if getattr(args, "metrics", None) is not None:
        import json

        try:
            counters = json.loads(
                Path(args.metrics).read_text()).get("counters", {})
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: unreadable metrics snapshot: {exc}")
        hits = counters.get("cache.hit", 0)
        misses = counters.get("cache.miss", 0)
        if hits + misses:
            print(f"  hit rate:     {hits / (hits + misses):.1%} "
                  f"({hits} hits / {misses} misses)")
        else:
            print("  hit rate:     n/a (snapshot has no cache counters)")
        if counters.get("cache.invalidate"):
            print(f"  invalidated:  {counters['cache.invalidate']} "
                  "(rotted entries self-healed)")
    return 0


def _cmd_catalogs(args: argparse.Namespace) -> int:
    from repro.logs.catalogs import DEFAULT_PLATFORM, get_catalog

    for name in catalog_names():
        catalog = get_catalog(name)
        default = "  (default)" if name == DEFAULT_PLATFORM else ""
        print(f"{name}{default}")
        print(f"  {catalog.description}")
        print(f"  events: {len(catalog.events)}  "
              f"daemons: {', '.join(sorted(catalog.daemons))}")
        print(f"  fingerprint: {catalog.fingerprint[:16]}")
        if args.events:
            for key in sorted(catalog.events):
                spec = catalog.events[key]
                print(f"    {key:<24} {spec.source.value:<10} "
                      f"{spec.daemon}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import summarize_file

    try:
        text = summarize_file(args.file)
    except FileNotFoundError:
        raise SystemExit(f"error: {args.file} does not exist")
    except (ValueError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    print(text)
    return 0


#: verbs that load one store and analyse it: load and body share one
#: collector pause (never the long-lived ``watch`` / ``serve``)
_BATCH_VERBS = frozenset({"diagnose", "predict", "checkpoint", "timeline"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "diagnose": _cmd_diagnose,
        "predict": _cmd_predict,
        "checkpoint": _cmd_checkpoint,
        "timeline": _cmd_timeline,
        "experiments": _cmd_experiments,
        "run-all": _cmd_run_all,
        "fleet": _cmd_fleet,
        "watch": _cmd_watch,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
        "catalogs": _cmd_catalogs,
        "obs": _cmd_obs,
    }
    pause = (paused_gc() if args.command in _BATCH_VERBS
             else contextlib.nullcontext())
    try:
        with pause:
            return handlers[args.command](args)
    except FileNotFoundError as exc:
        # e.g. a logdir that is not a log store (api.load_system)
        raise SystemExit(f"error: {exc}")
    except IngestionError as exc:
        # strict-policy refusal: a clean diagnostic, not a traceback
        print(f"error: {exc}\n(rerun with --error-policy=skip or "
              "quarantine to ingest around the damage)", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # e.g. `repro diagnose ... | head`: the reader went away, which
        # is not an error worth a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - module runner below
    sys.exit(main())
