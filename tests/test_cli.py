"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def logdir(tmp_path_factory):
    """A tiny diagnosable log directory for CLI commands."""
    from repro.faults import Campaign
    from repro.platform import Platform
    from repro.scheduler import WorkloadConfig, WorkloadGenerator, WorkloadScheduler
    from tests.conftest import make_tiny_spec

    plat = Platform(make_tiny_spec(nodes=64), seed=31)
    camp = Campaign(plat)
    camp.burst("mce_failstop", day=0, count=4, params={"precursor": True})
    camp.burst("app_exit_chain", day=0, count=3, start_hour=16.0)
    sched = WorkloadScheduler(plat, ledger=camp.ledger)
    gen = WorkloadGenerator(plat.rng.child("wl"))
    sched.submit_all(gen.generate(WorkloadConfig(jobs_per_day=30,
                                                 duration_days=1,
                                                 max_nodes=4)))
    plat.run(days=2)
    root = tmp_path_factory.mktemp("cli") / "logs"
    plat.write_logs(root)
    return root


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "bogus"])

    def test_all_subcommands_parse(self, tmp_path):
        parser = build_parser()
        assert parser.parse_args(["simulate", "cases"]).command == "simulate"
        assert parser.parse_args(["diagnose", "x"]).command == "diagnose"
        assert parser.parse_args(["predict", "x"]).command == "predict"
        assert parser.parse_args(["checkpoint", "x"]).command == "checkpoint"
        assert parser.parse_args(["experiments"]).command == "experiments"
        assert parser.parse_args(["run-all"]).command == "run-all"

    def test_run_all_defaults(self):
        args = build_parser().parse_args(["run-all"])
        assert args.seed == 7
        assert str(args.out) == "campaign"
        assert not args.resume and args.only is None
        assert args.max_attempts == 3 and args.breaker_threshold == 3

    def test_run_all_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run-all", "--out", str(tmp_path), "--resume",
             "--only", "fig4", "table3", "--deadline", "60",
             "--no-isolation"])
        assert args.resume and args.no_isolation
        assert args.only == ["fig4", "table3"]
        assert args.deadline == 60.0


class TestCommands:
    def test_diagnose(self, logdir, capsys):
        assert main(["diagnose", str(logdir)]) == 0
        out = capsys.readouterr().out
        assert "failures detected: 7" in out
        assert "failure categories" in out

    def test_diagnose_findings_and_cases(self, logdir, capsys):
        import re

        from repro import api

        assert main(["diagnose", str(logdir), "--findings", "--cases"]) == 0
        out = capsys.readouterr().out
        assert "inference:" in out
        assert "Recommendation:" in out or "no findings" in out
        headers = re.findall(r"^(\S+) \[(\w+)/(.+?)\] -> ", out, re.M)
        report = api.load_system(logdir).run()
        assert headers == [(inf.failure.node, inf.family.value, inf.cause)
                           for inf in report.root_causes]
        assert headers

    def test_predict(self, logdir, capsys):
        assert main(["predict", str(logdir)]) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out

    def test_predict_require_external(self, logdir, capsys):
        assert main(["predict", str(logdir), "--require-external"]) == 0
        assert "alarms:" in capsys.readouterr().out

    def test_checkpoint(self, logdir, capsys):
        assert main(["checkpoint", str(logdir), "--cost", "120"]) == 0
        out = capsys.readouterr().out
        assert "Young/Daly interval" in out
        assert "expected waste" in out

    def test_simulate_into_tmp(self, tmp_path, capsys):
        assert main(["simulate", "cases", "--seed", "3",
                     "--out", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "log lines per source" in out
        assert (tmp_path / "cache" / "cases-seed3" / "manifest.json").exists()

    @pytest.mark.parametrize("verb, extra", [
        ("diagnose", []),
        ("diagnose", ["--window-days", "1"]),
        ("predict", []),
        ("checkpoint", []),
        ("timeline", ["c0-0c0s0n0"]),
        ("watch", ["--out", "OUT"]),
    ], ids=["diagnose", "diagnose-windowed", "predict", "checkpoint",
            "timeline", "watch"])
    def test_missing_store_errors(self, tmp_path, verb, extra):
        """Every verb reads the store through repro.api, whose refusal
        main() turns into one clean error."""
        extra = [str(tmp_path / "out") if a == "OUT" else a for a in extra]
        with pytest.raises(SystemExit, match="error: .* is not a log store"):
            main([verb, str(tmp_path / "nowhere"), *extra])

    def test_diagnose_holds_one_collector_pause(self, logdir, monkeypatch,
                                                capsys):
        """Load and analyses share one collector pause: the collector is
        already off when run() starts, so no pass walks the records
        ingestion just built."""
        import gc

        from repro.core.pipeline import HolisticDiagnosis

        seen = []
        run = HolisticDiagnosis.run

        def spy(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return run(self, *args, **kwargs)

        monkeypatch.setattr(HolisticDiagnosis, "run", spy)
        assert gc.isenabled()
        assert main(["diagnose", str(logdir)]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_diagnose_strict_fails_cleanly(self, logdir, tmp_path, capsys):
        """Strict policy on a damaged store: exit 2 + diagnostic, no
        traceback leaking out of main()."""
        import shutil

        from repro.logs.record import LogSource
        from repro.logs.store import LogStore

        damaged = tmp_path / "damaged"
        shutil.copytree(logdir, damaged)
        with LogStore(damaged).path_for(LogSource.CONSOLE).open("a") as fh:
            fh.write("complete garbage\n")
        assert main(["diagnose", str(damaged),
                     "--error-policy=strict"]) == 2
        err = capsys.readouterr().err
        assert "malformed line" in err
        assert "--error-policy=skip" in err

    def test_diagnose_list_analyses(self, capsys):
        """--list-analyses needs no logdir and prints the registry."""
        assert main(["diagnose", "--list-analyses"]) == 0
        out = capsys.readouterr().out
        assert "dominance_summary" in out
        assert "scheduler" in out  # required-source column

    def test_diagnose_requires_logdir_without_list(self):
        with pytest.raises(SystemExit, match="logdir is required"):
            main(["diagnose"])

    def test_diagnose_only_subset(self, logdir, capsys):
        assert main(["diagnose", str(logdir),
                     "--only", "dominance_summary"]) == 0
        out = capsys.readouterr().out
        assert "failures detected: 7" in out

    def test_diagnose_only_unknown_name(self, logdir):
        with pytest.raises(SystemExit, match="registered"):
            main(["diagnose", str(logdir), "--only", "bogus_analysis"])

    def test_diagnose_windowed(self, logdir, capsys):
        assert main(["diagnose", str(logdir), "--window-days", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # two one-day windows
        assert lines[0].startswith("days") and "failures" in lines[0]

    def test_diagnose_stride_needs_window(self, logdir):
        with pytest.raises(SystemExit, match="--window-days"):
            main(["diagnose", str(logdir), "--stride-days", "1"])

    def test_experiments_command_reports(self, capsys, monkeypatch):
        """The experiments subcommand prints per-experiment status and
        returns non-zero when any shape fails (run_all is stubbed so the
        test stays fast)."""
        from repro.experiments.registry import ExperimentRun
        from repro.experiments.result import ExperimentResult
        import repro.experiments.registry as registry

        def fake_run_all(seed):
            yield ExperimentRun(
                "figX", "s9", ExperimentResult("figX", "good", {}, {}, True))
            yield ExperimentRun(
                "figY", None, ExperimentResult("figY", "bad", {}, {}, False))
            yield ExperimentRun("figZ", None, None, error="scenario exploded")

        monkeypatch.setattr(registry, "run_all", fake_run_all)
        assert main(["experiments"]) == 1
        out = capsys.readouterr().out
        assert "ok   figX" in out
        assert "FAIL figY" in out
        assert "ERR  figZ" in out and "scenario exploded" in out
        assert "1/3 experiment shapes hold" in out

    def test_experiments_command_draw(self, capsys, monkeypatch):
        from repro.experiments.registry import ExperimentRun
        from repro.experiments.result import ExperimentResult
        import repro.experiments.registry as registry

        def fake_run_all(seed):
            yield ExperimentRun("fig16", "s2", ExperimentResult(
                "fig16", "t", {"app_exit": 0.4}, {}, True))

        monkeypatch.setattr(registry, "run_all", fake_run_all)
        assert main(["experiments", "--draw"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 16" in out and "#" in out


class TestRunAllCommand:
    """run-all against a stubbed experiment table (in-process mode so
    the stubs' closures need no fork; the real worker path is covered in
    tests/runtime/ and the chaos gate)."""

    @pytest.fixture
    def stub_specs(self, monkeypatch):
        from repro.experiments.registry import ExperimentSpec
        from repro.experiments.result import ExperimentResult
        import repro.runtime.supervisor as supervisor

        def make(exp, scenario, ok=True):
            def produce(seed):
                return ExperimentResult(exp, f"title {exp}",
                                        {"seed": seed}, {}, ok)
            return ExperimentSpec(exp, scenario, produce)

        specs = (make("figX", "s9"), make("figY", None, ok=False))
        monkeypatch.setattr(supervisor, "EXPERIMENT_SPECS", specs)
        return specs

    def test_clean_campaign(self, stub_specs, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        code = main(["run-all", "--out", str(out_dir), "--no-isolation",
                     "--only", "figX"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   figX" in out
        assert "1/1 experiments completed" in out
        assert "journal:" in out
        assert (out_dir / "journal.jsonl").is_file()
        assert (out_dir / "artifacts" / "figX.json").is_file()

    def test_shape_failure_exit_code(self, stub_specs, tmp_path, capsys):
        code = main(["run-all", "--out", str(tmp_path / "c"),
                     "--no-isolation"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL figY" in out
        assert "1/2 shapes hold" in out

    def test_resume_replays_journal(self, stub_specs, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX"]) == 0
        capsys.readouterr()
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX", "--resume"]) == 0
        assert "[journal]" in capsys.readouterr().out

    def test_seed_mismatch_is_clean_error(self, stub_specs, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX"]) == 0
        with pytest.raises(SystemExit, match="seed"):
            main(["run-all", "--out", out_dir, "--no-isolation",
                  "--only", "figX", "--resume", "--seed", "8"])

    def test_unknown_only_is_clean_error(self, stub_specs, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiments"):
            main(["run-all", "--out", str(tmp_path / "c"),
                  "--no-isolation", "--only", "nope"])

    def test_bad_max_attempts_is_clean_error(self, stub_specs, tmp_path):
        with pytest.raises(SystemExit, match="error: max_attempts"):
            main(["run-all", "--out", str(tmp_path / "c"),
                  "--max-attempts", "0"])


class TestOptionErrors:
    """Bad option values exit with ``error: ...``, never a traceback."""

    def test_fleet_zero_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="error: max_workers"):
            main(["fleet", str(tmp_path / "f"), "--systems", "1",
                  "--days", "1", "--max-workers", "0"])

    def test_serve_port_out_of_range(self, tmp_path):
        with pytest.raises(SystemExit, match="error: cannot bind .*65535"):
            main(["serve", str(tmp_path), "--port", "99999"])

    def test_serve_root_not_a_directory(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="error: .* is not a directory"):
            main(["serve", str(tmp_path / "nowhere"), "--port", "0"])


class TestCacheCommand:
    def test_stats_clear_verify_roundtrip(self, logdir, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "disk bytes:" in out
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_verify_flags_and_heals_rot(self, logdir, tmp_path, capsys):
        from repro.logs.cache import ParseCache

        cache_dir = tmp_path / "rot-cache"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        victim = ParseCache(cache_dir).entry_files()[0]
        victim.write_bytes(b"rotted")
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir), "--no-heal"]) == 1
        assert victim.exists()
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 1
        assert not victim.exists()
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0

    def test_stats_hit_rate_from_metrics(self, logdir, tmp_path, capsys):
        cache_dir = tmp_path / "hr-cache"
        metrics = tmp_path / "metrics.json"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        assert main(["diagnose", str(logdir), "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(logdir),
                     "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "hit rate:     100.0%" in out

    def test_no_cache_conflicts_with_cache_dir(self, logdir):
        with pytest.raises(SystemExit, match="conflict"):
            main(["diagnose", str(logdir), "--no-cache",
                  "--cache-dir", "somewhere"])

    def test_no_cache_runs_uncached(self, logdir, capsys):
        assert main(["diagnose", str(logdir), "--no-cache"]) == 0
        assert "failures detected" in capsys.readouterr().out

    def test_cache_on_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not a log store"):
            main(["cache", "stats", str(tmp_path / "nope")])
