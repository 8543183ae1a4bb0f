"""Tests for log anonymization."""

import pytest

from repro.logs.anonymize import Anonymizer, anonymize_store
from repro.logs.store import LogStore


class TestAnonymizer:
    def test_user_alias_stable(self):
        anon = Anonymizer()
        assert anon.user_alias("1207") == anon.user_alias("1207")
        assert anon.user_alias("1207") != anon.user_alias("1208")

    def test_determinism_across_instances(self):
        assert Anonymizer().user_alias("1207") == Anonymizer().user_alias("1207")
        assert (Anonymizer(secret="a").user_alias("1207")
                != Anonymizer(secret="b").user_alias("1207"))

    def test_line_scrubs_users_and_apps(self):
        anon = Anonymizer()
        line = "2015-01-05T01:00:00.000000 sdb slurmctld: sched: Allocate JobId=7 NodeList=c0-0c0s0n0 #CPUs=32 user=u1207 app=vasp"
        out = anon.line(line)
        assert "u1207" not in out
        assert "app=vasp" not in out
        assert "app=app" in out
        # structure intact: still parseable
        from repro.logs.parsing import parse_line
        parsed = parse_line(out)
        assert parsed is not None and parsed.event == "slurm_start"

    def test_same_user_consistent_within_run(self):
        anon = Anonymizer()
        a = anon.line("x user=u1207 y")
        b = anon.line("z user=u1207 w")
        alias_a = a.split("user=u")[1].split()[0]
        alias_b = b.split("user=u")[1].split()[0]
        assert alias_a == alias_b

    def test_cabinet_permutation_optional(self):
        line = "2015-01-05T01:00:00.000000 c0-0c1s4n2 kernel: Kernel panic - not syncing: x"
        assert "c0-0" in Anonymizer().line(line)
        permuted = Anonymizer(permute_cabinets=True).line(line)
        # chassis/slot/node offsets preserved
        assert "c1s4n2" in permuted

    def test_cabinet_permutation_injective(self):
        anon = Anonymizer(permute_cabinets=True)
        aliases = {anon.cabinet_alias(str(c), str(r))
                   for c in range(10) for r in range(10)}
        assert len(aliases) == 100

    def test_mapping_summary(self):
        anon = Anonymizer(permute_cabinets=True)
        anon.line("user=u1207 app=vasp c0-0c0s0n0")
        summary = anon.mapping_summary()
        assert summary == {"users": 1, "apps": 1, "cabinets": 1}


class TestAnonymizeStore:
    def test_full_store_roundtrip(self, diagnosed_scenario, tmp_path):
        _, _, store = diagnosed_scenario
        dst = anonymize_store(store, tmp_path / "anon")
        assert dst.exists()
        assert dst.line_counts() == store.line_counts()
        # the sanitized logs still diagnose identically (no identities
        # participate in failure detection or correlation)
        from repro.core.pipeline import HolisticDiagnosis
        original = HolisticDiagnosis.from_store(store)
        sanitized = HolisticDiagnosis.from_store(dst)
        assert len(sanitized.failures) == len(original.failures)
        assert [f.node for f in sanitized.failures] == [
            f.node for f in original.failures]

    def test_no_original_users_leak(self, diagnosed_scenario, tmp_path):
        from repro.logs.record import LogSource
        _, _, store = diagnosed_scenario
        original_text = store.path_for(LogSource.SCHEDULER).read_text()
        dst = anonymize_store(store, tmp_path / "anon2")
        sanitized_text = dst.path_for(LogSource.SCHEDULER).read_text()
        import re
        original_users = set(re.findall(r"user=(u\d+)", original_text))
        if original_users:
            for user in original_users:
                assert f"user={user} " not in sanitized_text


class TestAnonymizeRotatedStore:
    def test_every_segment_is_copied(self, tmp_path):
        import gzip

        from repro.core.pipeline import HolisticDiagnosis
        from repro.logs.health import IngestionHealth
        from repro.logs.record import LogSource
        from repro.simul.clock import DAY, SimClock
        from tests.stream.conftest import small_bus

        store = LogStore(tmp_path / "logs")
        store.write(small_bus(6), SimClock(), system="TT", seed=1,
                    duration_seconds=6 * DAY, rotate_daily=True)
        first = store.source_files(LogSource.CONSOLE)[0]
        with gzip.open(first.with_name(first.name + ".gz"), "wb") as fh:
            fh.write(first.read_bytes())
        first.unlink()
        last = store.source_files(LogSource.SCHEDULER)[-1]
        with last.open("a") as fh:
            fh.write("2015-01-10T23:59:59.000000 sdb slurmctld: torn user=u1207")

        dst = anonymize_store(store, tmp_path / "anon")
        def layout(logs):
            return {source: [path.relative_to(logs.root)
                             for path in logs.source_files(source)]
                    for source in LogSource}

        assert layout(dst) == layout(store)
        assert dst.line_counts() == store.line_counts()
        torn = dst.source_files(LogSource.SCHEDULER)[-1].read_text()
        assert not torn.endswith("\n") and "u1207" not in torn.rsplit("\n", 1)[1]
        healths, failures = [], []
        for root in (store, dst):
            health = IngestionHealth()
            diag = HolisticDiagnosis.from_store(root, health=health)
            healths.append(health)
            failures.append([(f.node, f.time) for f in diag.failures])
        assert healths[0] == healths[1]
        assert healths[0].partial_tails == 1
        assert failures[0] == failures[1] and len(failures[0]) == 6
