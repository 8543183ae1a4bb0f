"""Tests for the on-disk log store."""

import shutil
from heapq import merge
from operator import attrgetter

import pytest

from repro.logs.health import IngestionHealth
from repro.logs.parsing import ParsedRecord
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore, StoreManifest, _merge_records
from repro.simul.clock import SimClock


def filled_bus():
    bus = LogBus()
    bus.emit(LogRecord(5.0, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                       {"bank": 1, "status": "ff"}))
    bus.emit(LogRecord(2.0, LogSource.ERD, "erd", "ec_heartbeat_stop",
                       {"src": "c0-0c0s0n1"}))
    bus.emit(LogRecord(3.0, LogSource.SCHEDULER, "sdb", "slurm_submit",
                       {"job": 7}))
    bus.emit(LogRecord(4.0, LogSource.CONTROLLER, "c0-0c0s0", "bchf", {}))
    bus.emit(LogRecord(1.0, LogSource.MESSAGES, "c0-0c0s0n0", "nhc_suspect",
                       {"why": "test"}))
    return bus


class TestWriteRead:
    def test_write_creates_layout(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), system="TT", seed=1,
                    duration_seconds=10.0)
        assert store.exists()
        for rel in ("p0/console.log", "p0/messages.log", "p0/consumer.log",
                    "controller/controller.log", "erd/event.log",
                    "sched/sched.log", "manifest.json"):
            assert (tmp_path / "logs" / rel).exists()

    def test_manifest_roundtrip(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        written = store.write(filled_bus(), SimClock(), "TT", 42, 10.0)
        loaded = store.manifest()
        assert loaded == written
        assert loaded.seed == 42
        assert isinstance(loaded.clock(), SimClock)

    def test_missing_manifest(self, tmp_path):
        store = LogStore(tmp_path / "empty")
        assert not store.exists()
        with pytest.raises(FileNotFoundError):
            store.manifest()

    def test_records_sorted_in_files(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        bus = LogBus()
        for t in (5.0, 1.0, 3.0):
            bus.emit(LogRecord(t, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                               {"bank": 1, "status": "ff"}))
        store.write(bus, SimClock(), "TT", 1, 10.0)
        recs = list(store.read_source(LogSource.CONSOLE))
        assert [r.time for r in recs] == [1.0, 3.0, 5.0]

    def test_read_internal_merges_sources(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        internal = store.read_internal()
        assert [r.event for r in internal] == ["nhc_suspect", "mce"]

    def test_read_external(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        external = store.read_external()
        assert {r.event for r in external} == {"ec_heartbeat_stop", "bchf"}
        assert [r.time for r in external] == sorted(r.time for r in external)

    def test_read_scheduler(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        assert [r.event for r in store.read_scheduler()] == ["slurm_submit"]

    def test_read_all_time_sorted(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        times = [r.time for r in store.read_all()]
        assert times == sorted(times)
        assert len(times) == 5

    def test_line_counts(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        counts = store.line_counts()
        assert counts["console"] == 1
        assert counts["consumer"] == 0

    def test_line_counts_break_at_newline_only(self, tmp_path):
        """A lone "\\r" is no line break, for the census as for the
        readers: both count the lines a batch read sees."""
        bus = LogBus()
        for t in range(10):
            bus.emit(LogRecord(float(t), LogSource.CONSOLE, "c0-0c0s0n0",
                               "mce", {"bank": 1, "status": "ff"}))
        LogStore(tmp_path / "logs").write(bus, SimClock(), "TT", 1, 10.0)
        copy = LogStore(shutil.copytree(tmp_path / "logs", tmp_path / "copy"))
        path = copy.path_for(LogSource.CONSOLE)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r", 3))
        health = IngestionHealth()
        list(copy.read_source(LogSource.CONSOLE, health=health))
        read = health.source(LogSource.CONSOLE).read
        assert read == 7
        assert copy.line_counts()["console"] == read

    def test_rewrite_replaces(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        assert store.line_counts()["console"] == 1

    def test_append_records(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        extra = LogRecord(9.0, LogSource.CONSOLE, "c0-0c0s0n1", "kernel_panic",
                          {"why": "test"})
        assert store.append_records([extra], SimClock()) == 1
        assert store.line_counts()["console"] == 2

    def test_read_missing_source_empty(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        (tmp_path / "logs" / "p0" / "consumer.log").unlink()
        assert list(store.read_source(LogSource.CONSUMER)) == []


def tagged(time: float, tag: str) -> ParsedRecord:
    return ParsedRecord(time, LogSource.CONSOLE, "c0-0c0s0n0", "kernel",
                        None, {}, body=tag)


def glob_source_files(store, source):
    """The two-glob definition :meth:`LogStore.source_files` replaced."""
    base = store.path_for(source)
    rotated = list(base.parent.glob(f"{base.stem}-*.log"))
    rotated.extend(base.parent.glob(f"{base.stem}-*.log.gz"))
    files = sorted(rotated, key=lambda p: p.name.removesuffix(".gz"))
    for candidate in (base, base.with_name(base.name + ".gz")):
        if candidate.is_file():
            files.append(candidate)
    return files


class TestSourceFiles:
    def test_matches_the_glob_definition(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), system="TT", seed=1,
                    duration_seconds=10.0)
        p0 = tmp_path / "logs" / "p0"
        for name in ("console-20150103.log.gz", "console-20150101.log",
                     "console-20150102.log", "console-20150102.log.gz",
                     "console-.log", "messages-20150101.log.gz",
                     "console.log.gz", ".console-20150101.log", ".hidden",
                     "console-20150104.log.bak", "console-20150104.LOG",
                     "consoler-20150101.log", "consumer-1.log.gz.tmp"):
            (p0 / name).write_bytes(b"x\n")
        # a directory named like a segment, a symlinked segment, a
        # dangling one, and a base that is a link to a regular file
        (p0 / "console-20150105.log").mkdir()
        outside = tmp_path / "elsewhere.log"
        outside.write_bytes(b"y\n")
        (p0 / "console-20150100.log").symlink_to(outside)
        (p0 / "messages-20150109.log").symlink_to(tmp_path / "gone.log")
        (p0 / "consumer.log").unlink()
        (p0 / "consumer.log").symlink_to(outside)
        # a base file that is a directory, and a missing source directory
        sched = tmp_path / "logs" / "sched"
        (sched / "sched.log").unlink()
        (sched / "sched.log").mkdir()
        (sched / "sched-20150101.log").write_bytes(b"z\n")
        for path in (tmp_path / "logs" / "erd").iterdir():
            path.unlink()
        (tmp_path / "logs" / "erd").rmdir()
        for source in LogSource:
            assert store.source_files(source) == glob_source_files(
                store, source), source
        assert [p.name for p in store.source_files(LogSource.CONSOLE)] == [
            "console-.log", "console-20150100.log", "console-20150101.log",
            "console-20150102.log", "console-20150102.log.gz",
            "console-20150103.log.gz", "console-20150105.log",
            "console.log", "console.log.gz"]
        assert store.source_files(LogSource.ERD) == []
        assert [p.name for p in store.source_files(LogSource.SCHEDULER)] == [
            "sched-20150101.log"]


class TestMergeRecords:
    """Per-file sorted lists merge stably: ties keep file order."""

    def test_ties_across_files_keep_the_earlier_file_first(self):
        lists = [
            [tagged(1.0, "a1"), tagged(2.0, "a2"), tagged(2.0, "a3")],
            [],
            [tagged(0.5, "b1"), tagged(2.0, "b2"), tagged(3.0, "b3")],
            [tagged(2.0, "c1"), tagged(2.0, "c2")],
        ]
        merged = _merge_records(lists)
        assert [r.body for r in merged] == [
            "b1", "a1", "a2", "a3", "b2", "c1", "c2", "b3"]
        reference = merge(*lists, key=attrgetter("time"))
        assert all(got is want for got, want in zip(merged, reference,
                                                     strict=True))

    def test_single_and_empty_inputs(self):
        only = [tagged(1.0, "x")]
        assert _merge_records([[], only, []]) is only
        assert _merge_records([[], []]) == []

    def test_store_tie_across_sources_follows_source_order(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        bus = LogBus()
        bus.emit(LogRecord(4.0, LogSource.MESSAGES, "c0-0c0s0n0",
                           "nhc_suspect", {"why": "test"}))
        bus.emit(LogRecord(4.0, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                           {"bank": 1, "status": "ff"}))
        store.write(bus, SimClock(), "TT", 1, 10.0)
        assert [r.event for r in store.read_internal()] == [
            "mce", "nhc_suspect"]


class TestPartialTail:
    """A file whose last line has no newline is a mid-write snapshot:
    the torn tail is held back, flagged, and never counted as damage."""

    def _store_with_torn_tail(self, tmp_path):
        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        path = store.path_for(LogSource.CONSOLE)
        whole = path.read_bytes()
        torn = whole.rstrip(b"\n")
        path.write_bytes(whole + torn[: len(torn) // 2])
        return store, whole + torn + b"\n"

    def test_torn_final_line_is_held_back(self, tmp_path):
        from repro.logs.health import IngestionHealth

        store, _ = self._store_with_torn_tail(tmp_path)
        health = IngestionHealth()
        records = list(store.read_internal(SimClock(), "skip", health))
        bucket = health.source(LogSource.CONSOLE)
        # only the whole line was read; the torn tail is neither read
        # nor parsed nor quarantined, so conservation still holds
        assert bucket.read == 1
        assert bucket.partial_tail == 1
        assert bucket.conserved
        assert len(records) == 2  # console mce + messages nhc_suspect
        # a growing log is normal operation, not degradation
        assert not health.degraded
        assert health.partial_tails == 1
        assert any("partial tail held back" in line
                   for line in health.summary_lines())

    def test_completed_line_parses_on_next_read(self, tmp_path):
        from repro.logs.health import IngestionHealth

        store, completed = self._store_with_torn_tail(tmp_path)
        store.path_for(LogSource.CONSOLE).write_bytes(completed)
        health = IngestionHealth()
        records = list(store.read_internal(SimClock(), "skip", health))
        bucket = health.source(LogSource.CONSOLE)
        assert bucket.partial_tail == 0
        assert bucket.read == bucket.parsed == 2
        assert len(records) == 3

    def test_whitespace_only_tail_is_not_flagged(self, tmp_path):
        from repro.logs.health import IngestionHealth

        store = LogStore(tmp_path / "logs")
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        with store.path_for(LogSource.CONSOLE).open("ab") as handle:
            handle.write(b"   ")
        health = IngestionHealth()
        store.read_internal(SimClock(), "skip", health)
        assert health.source(LogSource.CONSOLE).partial_tail == 0


class TestTracedParseFileBytes:
    """The ``logs.parse_file`` span's ``bytes`` tag never fails a read."""

    @staticmethod
    def read(root, cached):
        """Write a fresh store at ``root`` and read it whole."""
        from repro.logs.health import IngestionHealth

        store = LogStore(root)
        store.write(filled_bus(), SimClock(), "TT", 1, 10.0)
        if cached:
            store = store.with_cache(root.parent / f"{root.name}-cache")
        health = IngestionHealth()
        records = store.read_all(health=health)
        return records, {s: b.as_dict() for s, b in health.sources.items()}

    @staticmethod
    def parse_file_spans(obs):
        spans = [s for s in obs.spans() if s.name == "logs.parse_file"]
        assert len(spans) == 6
        return spans

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "cached"])
    def test_present_file_is_tagged_with_its_size(self, tmp_path, cached):
        from repro.obs import session

        with session() as obs:
            self.read(tmp_path / "logs", cached)
        sizes = [span.tags["bytes"] for span in self.parse_file_spans(obs)]
        assert sum(sizes) > 0

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "cached"])
    def test_file_rotated_away_after_its_read(self, tmp_path, monkeypatch,
                                              cached):
        import repro.logs.store as store_mod
        from repro.obs import session

        real = store_mod._load_log_text

        def read_then_rotate_away(path):
            loaded = real(path)
            path.unlink()
            return loaded

        monkeypatch.setattr(store_mod, "_load_log_text",
                            read_then_rotate_away)
        want = self.read(tmp_path / "plain", cached)
        assert want[0]
        with session() as obs:
            got = self.read(tmp_path / "traced", cached)
        assert got == want
        for span in self.parse_file_spans(obs):
            assert "bytes" not in span.tags
