"""Tests for the persistent parse cache (repro.logs.cache).

The correctness spine is byte-parity: a cached read must return exactly
what the uncached read returns -- records, health accounting and
quarantined lines -- under every error policy, before and after cache
poisoning.  The invalidation edges (catalog bump, epoch change, rot,
renames, gzip twins, concurrent writers) each get a dedicated test.
"""

from __future__ import annotations

import gzip
import multiprocessing
import shutil
from collections import Counter

import pytest

import repro.logs.cache as cache_mod
import repro.logs.store as store_mod
from repro.logs.cache import CACHE_MAGIC, ParseCache, catalog_fingerprint
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth
from repro.logs.parsing import LineParser, ParsedRecord
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import DEFAULT_CACHE_DIRNAME, LogStore, parse_log_file
from repro.simul.clock import SimClock


def small_store(root, *, malformed=0):
    """A tiny store with every source populated (optionally damaged)."""
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
    store = LogStore(root)
    store.write(bus, SimClock(), system="TT", seed=1, duration_seconds=10.0)
    if malformed:
        with (root / "p0/console.log").open("a") as handle:
            for i in range(malformed):
                handle.write(f"@@@ totally broken line {i}\n")
    return store


def snapshot(store, policy=ErrorPolicy.SKIP):
    """(records-as-tuples, health-dicts) for whole-store parity checks."""
    health = IngestionHealth()
    records = [
        (r.time, r.source, r.component, r.daemon, r.event,
         tuple(sorted(r.attrs.items())), r.severity, r.body)
        for r in store.read_all(policy=policy, health=health)
    ]
    counts = {s.value: b.as_dict() for s, b in health.sources.items()}
    return records, counts


class TestParity:
    @pytest.mark.parametrize("policy",
                             [ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE])
    def test_cached_equals_uncached(self, tmp_path, policy):
        plain = small_store(tmp_path / "logs", malformed=3)
        cached = plain.with_cache(tmp_path / "pc")
        want = snapshot(plain, policy)
        assert snapshot(cached, policy) == want        # cold: populate
        assert snapshot(cached, policy) == want        # warm: pure hits
        assert snapshot(plain, policy) == want         # uncached still equal

    def test_strict_raises_identical_message(self, tmp_path):
        plain = small_store(tmp_path / "logs", malformed=1)
        cached = plain.with_cache(tmp_path / "pc")
        with pytest.raises(IngestionError) as uncached_exc:
            snapshot(plain, ErrorPolicy.STRICT)
        # cold miss parses canonically, adapts strictly
        with pytest.raises(IngestionError) as cold_exc:
            snapshot(cached, ErrorPolicy.STRICT)
        # warm hit re-raises from the stored malformed lines
        with pytest.raises(IngestionError) as warm_exc:
            snapshot(cached, ErrorPolicy.STRICT)
        assert str(cold_exc.value) == str(uncached_exc.value)
        assert str(warm_exc.value) == str(uncached_exc.value)
        assert warm_exc.value.line == uncached_exc.value.line

    def test_one_entry_serves_every_policy(self, tmp_path):
        """SKIP and QUARANTINE adapt the same canonical entry."""
        plain = small_store(tmp_path / "logs", malformed=2)
        cache = ParseCache(tmp_path / "pc")
        cached = plain.with_cache(cache)
        q_want = snapshot(plain, ErrorPolicy.QUARANTINE)
        s_want = snapshot(plain, ErrorPolicy.SKIP)
        assert snapshot(cached, ErrorPolicy.QUARANTINE) == q_want
        entries_after_first = len(cache.entry_files())
        assert snapshot(cached, ErrorPolicy.SKIP) == s_want
        assert len(cache.entry_files()) == entries_after_first

    def test_quarantine_file_still_written_on_hits(self, tmp_path):
        plain = small_store(tmp_path / "logs", malformed=2)
        cached = plain.with_cache(tmp_path / "pc")
        snapshot(cached, ErrorPolicy.QUARANTINE)       # cold
        qfile = plain.quarantine_path(LogSource.CONSOLE)
        want = qfile.read_text()
        assert want.count("\n") == 2
        snapshot(cached, ErrorPolicy.QUARANTINE)       # warm
        assert qfile.read_text() == want


class TestInvalidation:
    def test_catalog_bump_rekeys_the_cache(self, tmp_path, monkeypatch):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        snapshot(cached)
        before = set(p.name for p in cache.entry_files())
        # simulate an edited catalog.py: the memoised fingerprint changes
        monkeypatch.setattr(cache_mod, "_catalog_fp",
                            {"cray-xc": "0" * 64})
        assert snapshot(cached) == snapshot(store)
        after = set(p.name for p in cache.entry_files())
        # every file re-keyed: old entries orphaned, new ones written
        assert before.isdisjoint(after - before)
        assert len(after) == 2 * len(before)

    def test_epoch_change_rekeys_the_cache(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser_a = LineParser(SimClock.from_iso("2015-01-01T00:00:00+00:00"))
        parser_b = LineParser(SimClock.from_iso("2016-06-01T00:00:00+00:00"))
        path = store.root / "p0/console.log"
        cache.parse(path, parser_a)
        assert len(cache.entry_files()) == 1
        cache.parse(path, parser_b)
        assert len(cache.entry_files()) == 2

    def test_truncated_entry_self_heals(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        want = snapshot(store)
        snapshot(cached)
        victim = cache.entry_files()[0]
        victim.write_bytes(victim.read_bytes()[:50])   # torn write
        assert snapshot(cached) == want
        assert cache.invalidated == 1
        # the healed entry is valid again
        valid, invalid = cache.verify()
        assert invalid == []

    def test_bitflip_entry_self_heals(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        want = snapshot(store)
        snapshot(cached)
        victim = cache.entry_files()[0]
        raw = bytearray(victim.read_bytes())
        raw[10] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert snapshot(cached) == want
        assert cache.invalidated == 1

    def test_alien_payload_self_heals(self, tmp_path):
        """A checksum-valid blob with the wrong payload shape is evicted."""
        import pickle

        from repro.core.artifacts import write_checksummed_blob

        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        want = snapshot(store)
        snapshot(cached)
        victim = cache.entry_files()[0]
        write_checksummed_blob(
            victim, pickle.dumps({"not": "an entry"}), CACHE_MAGIC)
        assert snapshot(cached) == want
        assert cache.invalidated == 1


def overwrite_entry(cache, payload: bytes):
    """Replace the first entry with a checksum-valid ``payload``."""
    from repro.core.artifacts import write_checksummed_blob

    victim = cache.entry_files()[0]
    write_checksummed_blob(victim, payload, CACHE_MAGIC)
    return victim


def entry_payload(cache, **changes) -> bytes:
    """The first entry's pickled dict with ``changes`` applied."""
    import pickle

    from repro.core.artifacts import read_checksummed_blob

    entry = pickle.loads(
        read_checksummed_blob(cache.entry_files()[0], CACHE_MAGIC))
    entry.update(changes)
    return pickle.dumps(entry)


class TestEntryValidation:
    """Lookups, ``stats`` and ``verify`` judge an entry the same way."""

    #: a protocol-0 pickle naming a class that does not exist
    MISSING_CLASS = b"crepro.logs.cache\nNoSuchEntryClass\n."

    def assert_invalid_everywhere(self, store, cache, payload):
        cached = store.with_cache(cache)
        want = snapshot(store)
        victim = overwrite_entry(cache, payload)
        stats = cache.stats(count_records=True)
        assert (stats.entries, stats.invalid) == (6, 1)
        valid, invalid = cache.verify(heal=False)
        assert invalid == [victim]
        assert snapshot(cached) == want        # the lookup self-heals
        assert cache.invalidated == 1
        assert cache.verify() == (6, [])

    def test_missing_class_is_invalid_not_a_crash(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        self.assert_invalid_everywhere(store, cache, self.MISSING_CLASS)

    def test_empty_columns_are_invalid_not_a_crash(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        payload = entry_payload(cache, columns=())
        self.assert_invalid_everywhere(store, cache, payload)

    def test_ragged_columns_are_invalid(self, tmp_path):
        """Columns of unequal length would rebuild truncated records."""
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        payload = entry_payload(cache, columns=([1.0],) + ([],) * 7)
        self.assert_invalid_everywhere(store, cache, payload)

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        from repro.obs import session

        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        with session() as obs:
            assert cache.lookup(store.root / "p0/console.log", parser) is None
        assert (cache.hits, cache.invalidated) == (0, 0)
        assert obs.metrics.counter("cache.invalidate").value == 0
        [span] = [s for s in obs.spans() if s.name == "cache.load"]
        assert span.tags["miss"] is True and "error" not in span.tags

    def test_cache_root_under_a_file_is_a_plain_miss(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        store = small_store(tmp_path / "logs")
        cache = ParseCache(blocker / "nope")
        parser = LineParser(store.manifest().clock())
        assert cache.lookup(store.root / "p0/console.log", parser) is None
        assert cache.invalidated == 0


class TestContentIdentity:
    def test_renamed_file_hits(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        base = store.root / "p0/console.log"
        cache.parse(base, parser)
        # a rotated twin with identical content: content hash hits
        twin = base.with_name("console-20150101.log")
        shutil.copyfile(base, twin)
        assert cache.lookup(twin, parser) is not None
        assert cache.hits == 1
        assert len(cache.entry_files()) == 1

    def test_gzip_and_plain_share_one_entry(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        base = store.root / "p0/console.log"
        gz = base.with_name(base.name + ".gz")
        with gzip.open(gz, "wt", encoding="utf-8") as handle:
            handle.write(base.read_text())
        records, health, _ = cache.parse(base, parser)
        hit = cache.lookup(gz, parser)
        assert hit is not None
        assert len(cache.entry_files()) == 1
        hit_records, hit_health, _ = hit
        assert [r.event for r in hit_records] == [r.event for r in records]
        assert hit_health.as_dict() == health.as_dict()


def _populate_worker(args):
    """Module-level worker: parse one store through a shared cache dir."""
    root, cache_dir = args
    store = LogStore(root, cache=cache_dir)
    return len(store.read_all())


class TestConcurrency:
    def test_concurrent_writers_race_benignly(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache_dir = tmp_path / "pc"
        args = [(store.root, cache_dir)] * 4
        with multiprocessing.Pool(processes=2) as pool:
            counts = pool.map(_populate_worker, args)
        assert len(set(counts)) == 1            # every process saw the same
        cache = ParseCache(cache_dir)
        valid, invalid = cache.verify()
        assert invalid == []                    # no torn entries
        assert valid == len(cache.entry_files())
        # and the cache parses back exactly what the store holds
        assert snapshot(store.with_cache(cache)) == snapshot(store)


class TestDegradation:
    def test_unwritable_cache_degrades_to_parse(self, tmp_path):
        """A cache that cannot persist still returns correct results."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        store = small_store(tmp_path / "logs")
        cache = ParseCache(blocker / "nope")    # mkdir will fail
        cached = store.with_cache(cache)
        assert snapshot(cached) == snapshot(store)
        assert cache.entry_files() == []

    def test_missing_cache_dir_is_empty_not_error(self, tmp_path):
        cache = ParseCache(tmp_path / "never-created")
        assert cache.entry_files() == []
        assert cache.stats().as_dict() == {
            "entries": 0, "total_bytes": 0, "records": 0, "invalid": 0}
        assert cache.clear() == 0
        assert cache.verify() == (0, [])


class TestMaintenance:
    def test_stats_counts_entries_bytes_records(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        stats = cache.stats(count_records=True)
        assert stats.entries == 6               # one per source file
        assert stats.total_bytes == sum(
            p.stat().st_size for p in cache.entry_files())
        assert stats.records == len(store.read_all())
        assert stats.invalid == 0

    def test_clear_removes_everything(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        assert cache.clear() == 6
        assert cache.entry_files() == []

    def test_verify_heals_by_default(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        victim = cache.entry_files()[0]
        victim.write_bytes(b"garbage")
        valid, invalid = cache.verify(heal=False)
        assert len(invalid) == 1 and victim.exists()
        valid, invalid = cache.verify()         # heal=True deletes
        assert len(invalid) == 1 and not victim.exists()
        assert cache.verify() == (5, [])


class TestStoreIntegration:
    def test_with_cache_spellings_agree(self, tmp_path):
        store = small_store(tmp_path / "logs")
        by_true = store.with_cache(True)
        assert by_true.cache.root == store.root / DEFAULT_CACHE_DIRNAME
        by_path = store.with_cache(tmp_path / "elsewhere")
        assert by_path.cache.root == tmp_path / "elsewhere"
        assert store.with_cache(None) is store
        assert store.with_cache(False).cache is None
        instance = ParseCache(tmp_path / "inst")
        assert store.with_cache(instance).cache is instance

    def test_parse_log_file_cache_kwarg(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        path = store.root / "p0/console.log"
        direct = parse_log_file(path, parser, cache=None)
        via_cache = parse_log_file(path, parser, cache=cache)
        assert [r.body for r in via_cache[0]] == [r.body for r in direct[0]]
        assert via_cache[1].as_dict() == direct[1].as_dict()

    def test_catalog_fingerprint_is_stable(self):
        assert catalog_fingerprint() == catalog_fingerprint()
        assert len(catalog_fingerprint()) == 64


class TestDeltaOnlyIngest:
    """Store reads through a warm cache parse only what changed."""

    @staticmethod
    def spy_parses(monkeypatch):
        """Record the path of every file actually parsed from here on."""
        parsed = []
        real = store_mod._traced_parse

        def spy(text, parser, path, *args, **kwargs):
            parsed.append(path)
            return real(text, parser, path, *args, **kwargs)

        monkeypatch.setattr(store_mod, "_traced_parse", spy)
        return parsed

    def test_cached_store_matches_uncached(self, diagnosed_scenario,
                                           tmp_path):
        _, _, store = diagnosed_scenario
        cached = store.with_cache(tmp_path / "pc")
        want = snapshot(store)
        assert snapshot(cached) == want                      # cold
        assert snapshot(cached) == want                      # warm

    def test_warm_cache_parses_zero_files(self, diagnosed_scenario,
                                          tmp_path, monkeypatch):
        _, _, store = diagnosed_scenario
        cached = store.with_cache(tmp_path / "pc")
        cached.read_all()                                    # populate
        parsed = self.spy_parses(monkeypatch)
        assert cached.read_all()
        assert parsed == []

    def test_delta_file_is_the_only_parse(self, diagnosed_scenario,
                                          tmp_path, monkeypatch):
        _, _, base = diagnosed_scenario
        root = tmp_path / "copy"
        shutil.copytree(base.root, root)
        store = LogStore(root, cache=tmp_path / "pc")
        before = len(store.read_all())                       # populate
        # a new daily segment appears: only it should be parsed
        fresh = root / "p0" / "console-29990101.log"
        head = (root / "p0" / "console.log").read_text().splitlines(True)
        fresh.write_text("".join(head[:3]))
        parsed = self.spy_parses(monkeypatch)
        assert len(store.read_all()) == before + 3
        assert parsed == [fresh]
        # and the next read parses nothing at all
        parsed.clear()
        store.read_all()
        assert parsed == []

    def test_read_populates_one_entry_per_content(self, diagnosed_scenario,
                                                  tmp_path):
        _, _, store = diagnosed_scenario
        cache = ParseCache(tmp_path / "pc")
        store.with_cache(cache).read_all()
        # content-addressed: identical files (e.g. two empty sources)
        # share one entry, so count distinct contents, not files
        contents = {
            path.read_text()
            for s in LogSource for path in store.source_files(s)}
        assert len(cache.entry_files()) == len(contents)
        valid, invalid = cache.verify()
        assert invalid == [] and valid == len(contents)


def read_state(store, policy=ErrorPolicy.QUARANTINE):
    """Records, health and the quarantine files of one read."""
    records, health = snapshot(store, policy)
    quarantine = {
        source: path.read_text()
        for source in LogSource
        if (path := store.quarantine_path(source)).is_file()}
    return records, health, quarantine


def console_line(stamp: str, body: str = "Machine Check Exception: 1 "
                                         "Bank 1: ff") -> str:
    return f"{stamp} c0-0c0s0n0 kernel: {body}\n"


class TestAppendDelta:
    """An appended file parses only its new lines, with full-parse bytes."""

    @staticmethod
    def spy_texts(monkeypatch):
        """Record the text of every parse from here on."""
        texts = []
        real = store_mod._parse_log_text

        def spy(text, *args, **kwargs):
            texts.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(store_mod, "_parse_log_text", spy)
        return texts

    @staticmethod
    def grown(tmp_path, *lines, malformed=0):
        """A small store read once through a cache, then appended to."""
        store = small_store(tmp_path / "logs", malformed=malformed)
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        read_state(cached)
        with (store.root / "p0/console.log").open("a") as handle:
            handle.write("".join(lines))
        return store, cached, cache

    def test_lifecycle_cached_equals_uncached(self, diagnosed_scenario,
                                              tmp_path):
        from repro.stream.replay import ReplayWriter

        _, _, complete = diagnosed_scenario
        writer = ReplayWriter(complete.root, tmp_path / "live")
        cache = ParseCache(tmp_path / "pc")
        cached = LogStore(writer.live_root, cache=cache)
        plain = LogStore(writer.live_root)
        faults = [
            None,
            None,
            lambda: writer.rotate(LogSource.CONSOLE),
            lambda: writer.copytruncate(LogSource.MESSAGES),
            lambda: writer.gzip_rotated(LogSource.CONSOLE),
            lambda: writer.vanish(LogSource.ERD),
            lambda: writer.restore(LogSource.ERD),
            lambda: writer.tear_tail(LogSource.CONTROLLER),
            lambda: writer.tear_tail(LogSource.CONSUMER, keep=3),
        ]
        t = 0.0
        for fault in faults:
            if fault is not None:
                fault()
                assert read_state(cached) == read_state(plain)
            t += 8 * 3600.0
            writer.feed_until(t)
            assert read_state(cached) == read_state(plain)
        writer.feed_all()
        assert read_state(cached) == read_state(plain)
        assert cache.deltas > 0

    def test_only_the_appended_text_is_parsed(self, tmp_path, monkeypatch):
        tail = console_line("2015-01-05T00:00:09.000000")
        store, cached, cache = self.grown(tmp_path, tail)
        texts = self.spy_texts(monkeypatch)
        assert read_state(cached) == read_state(store)
        assert texts[0] == tail                 # the cached read
        assert (cache.misses, cache.deltas) == (7, 1)

    def test_far_behind_line_is_clamped_as_in_a_full_parse(self, tmp_path):
        # two hours behind the prefix's last stamp (00:00:05): a full
        # parse clamps it to 00:00:05, which needs the resumed state
        store, cached, cache = self.grown(
            tmp_path, console_line("2015-01-04T22:00:00.000000"))
        got, want = read_state(cached), read_state(store)
        assert got == want and cache.deltas == 1
        console = want[1]["console"]
        assert console["recovered"] == 1
        assert [r[0] for r in want[0] if r[3] == "kernel"] == [5.0, 5.0]

    def test_jitter_across_the_boundary_sorts_as_in_a_full_parse(
            self, tmp_path):
        store, cached, cache = self.grown(
            tmp_path,
            console_line("2015-01-05T00:00:03.000000"),
            console_line("2015-01-05T00:00:07.000000"),
            console_line("2015-01-05T00:00:05.000000", "kernel chatter"))
        got, want = read_state(cached), read_state(store)
        assert got == want and cache.deltas == 1
        # one file's list, before any cross-file merge could re-sort it
        console = [(r.time, r.body)
                   for r in cached.read_source(LogSource.CONSOLE)]
        assert console == [(r.time, r.body)
                           for r in store.read_source(LogSource.CONSOLE)]
        assert [t for t, _ in console] == [3.0, 5.0, 5.0, 7.0]
        assert console[2][1] == "kernel chatter"   # tie: line order

    def test_mojibake_only_in_the_delta(self, tmp_path):
        store, cached, cache = self.grown(
            tmp_path, console_line("2015-01-05T00:00:06.000000",
                                   "Machine Check �: 1 Bank 1: ff"))
        got, want = read_state(cached), read_state(store)
        assert got == want and cache.deltas == 1
        assert want[1]["console"]["recovered"] == 1

    @pytest.mark.parametrize("prefix_malformed", [0, 2])
    def test_strict_message_matches_wherever_the_bad_line_is(
            self, tmp_path, prefix_malformed):
        store, cached, cache = self.grown(
            tmp_path, "@@@ broken in the delta\n",
            malformed=prefix_malformed)
        with pytest.raises(IngestionError) as direct:
            store.read_all(policy=ErrorPolicy.STRICT)
        with pytest.raises(IngestionError) as via_cache:
            cached.read_all(policy=ErrorPolicy.STRICT)
        assert str(via_cache.value) == str(direct.value)
        assert via_cache.value.line == direct.value.line
        assert cache.deltas == 1
        want = "@@@ totally broken line 0" if prefix_malformed else \
            "@@@ broken in the delta"
        assert direct.value.line == want

    def test_rotted_path_record_heals_to_a_full_parse(self, tmp_path,
                                                      monkeypatch):
        tail = console_line("2015-01-05T00:00:09.000000")
        store, cached, cache = self.grown(tmp_path, tail)
        records = sorted((cache.root / cache_mod.PATHS_DIRNAME).iterdir())
        assert len(records) == 6
        for record in records:
            record.write_text('{"key": "zz", "length": -1')
        texts = self.spy_texts(monkeypatch)
        assert read_state(cached) == read_state(store)
        assert cache.deltas == 0
        whole = (store.root / "p0/console.log").read_text()
        assert texts[0] == whole                # full parse, not the tail
        # the record is rewritten: the next append is a delta again
        with (store.root / "p0/console.log").open("a") as handle:
            handle.write(tail)
        texts.clear()
        assert read_state(cached) == read_state(store)
        assert (cache.deltas, texts[0]) == (1, tail)

    def test_rotted_base_entry_heals_to_a_full_parse(self, tmp_path,
                                                     monkeypatch):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        console = store.root / "p0/console.log"
        parser = LineParser(store.manifest().clock())
        parse_log_file(console, parser, cache=cache)
        [base] = cache.entry_files()
        base.write_bytes(base.read_bytes()[:40])
        tail = console_line("2015-01-05T00:00:09.000000")
        with console.open("a") as handle:
            handle.write(tail)
        texts = self.spy_texts(monkeypatch)
        assert read_state(cached) == read_state(store)
        assert cache.deltas == 0 and cache.invalidated == 1
        assert texts[0] == console.read_text()

    def test_grown_file_keeps_one_entry(self, tmp_path):
        store, cached, cache = self.grown(
            tmp_path, console_line("2015-01-05T00:00:09.000000"))
        assert len(cache.entry_files()) == 6
        read_state(cached)
        assert len(cache.entry_files()) == 6    # old version unlinked
        assert cache.verify() == (6, [])

    def test_torn_tail_resumes_once_completed(self, tmp_path, monkeypatch):
        line = console_line("2015-01-05T00:00:09.000000")
        store, cached, cache = self.grown(tmp_path, line[:12])
        assert read_state(cached) == read_state(store)
        assert snapshot(cached)[1]["console"]["partial_tail"] == 1
        with (store.root / "p0/console.log").open("a") as handle:
            handle.write(line[12:])
        texts = self.spy_texts(monkeypatch)
        assert read_state(cached) == read_state(store)
        assert texts[0] == line and cache.deltas == 2

    def test_clear_removes_path_records(self, tmp_path):
        _, _, cache = self.grown(tmp_path)
        paths = cache.root / cache_mod.PATHS_DIRNAME
        assert len(list(paths.iterdir())) == 6
        assert cache.stats().entries == 6       # records are not entries
        assert cache.verify() == (6, [])
        assert cache.clear() == 6
        assert list(paths.iterdir()) == []


def entry_strings(entry) -> list[str]:
    """Every component, daemon and attrs key/value string of one entry."""
    columns = entry["columns"]
    strings = list(columns[2]) + list(columns[3])
    for attrs in columns[5]:
        strings.extend(attrs)
        strings.extend(attrs.values())
    return strings


def most_copies(strings) -> int:
    """The largest number of objects holding one equal string."""
    objects = {id(s): s for s in strings}
    return max(Counter(objects.values()).values(), default=0)


def copied(value):
    """A fresh copy of a string, or of an attrs dict and its strings."""
    if isinstance(value, str):
        return value.encode().decode()
    if isinstance(value, dict) and value:
        return {copied(k): copied(v) for k, v in value.items()}
    return value


def unshared(parsed):
    """A parse's columns as packed before equal strings were shared.

    The columns arrive shared from the parse, so every string and
    non-empty attrs dict is copied per row.
    """
    columns, health, malformed = parsed
    return (tuple([copied(value) for value in column] for column in columns),
            health, malformed)


def outcome(store, policy):
    """A read's state, or the message of the refusal it raised."""
    try:
        return read_state(store, policy)
    except IngestionError as exc:
        return str(exc), exc.line


class TestSharedStrings:
    """An entry holds each distinct string once; old entries still load."""

    def test_cold_entries_hold_one_object_per_string(self,
                                                    diagnosed_scenario,
                                                    tmp_path):
        _, _, store = diagnosed_scenario
        cache = ParseCache(tmp_path / "pc")
        store.with_cache(cache).read_all()
        entries = [cache_mod._read_entry(path)
                   for path in cache.entry_files()]
        assert entries
        for entry in entries:
            assert most_copies(entry_strings(entry)) <= 1
        # the store repeats its strings, so there was something to share
        assert sum(len(entry_strings(e)) for e in entries) > \
            2 * sum(len(set(entry_strings(e))) for e in entries)

    def test_unshared_entry_still_hits(self, diagnosed_scenario, tmp_path,
                                       monkeypatch):
        _, _, base = diagnosed_scenario
        root = tmp_path / "copy"
        shutil.copytree(base.root, root)
        store = LogStore(root)
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        real = store_mod._parse_log_text
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "_parse_log_text",
                          lambda *args, **kwargs: unshared(
                              real(*args, **kwargs)))
            cached.read_all()
        entries = [cache_mod._read_entry(path)
                   for path in cache.entry_files()]
        assert max(most_copies(entry_strings(e)) for e in entries) > 1
        misses = cache.misses
        for policy in ErrorPolicy:
            assert outcome(cached, policy) == outcome(store, policy)
        # every read was a hit on an unshared entry
        assert (cache.misses, cache.invalidated) == (misses, 0)

    def test_entry_packed_from_records_hits(self, tmp_path):
        # the entry layout of a cache filled before the parse went
        # columnar: eight lists packed field by field from the records
        store = small_store(tmp_path / "logs", malformed=2)
        path = store.root / "p0/console.log"
        parser = LineParser(store.manifest().clock())
        records, health, malformed = parse_log_file(
            path, parser, ErrorPolicy.QUARANTINE)
        cache = ParseCache(tmp_path / "pc")
        content, _ = cache_mod._content_hash(path.read_text())
        cache._store_entry(
            cache.entry_path(content, cache._env_fingerprint(parser)),
            {"columns": tuple([getattr(r, name) for r in records]
                              for name in ParsedRecord.__dataclass_fields__),
             "health": cache_mod._canonical_health_dict(health),
             "malformed": malformed})
        hit = cache.parse(path, parser, ErrorPolicy.QUARANTINE)
        assert (cache.hits, cache.misses) == (1, 0)
        assert hit[0] == records
        assert hit[1].as_dict() == health.as_dict()
        assert hit[2] == malformed

    def test_delta_written_entry_loads_under_every_policy(
            self, diagnosed_scenario, tmp_path):
        from repro.stream.replay import ReplayWriter

        _, _, complete = diagnosed_scenario
        writer = ReplayWriter(complete.root, tmp_path / "live")
        cache = ParseCache(tmp_path / "pc")
        live = writer.live_root
        writer.feed_until(24 * 3600.0)
        read_state(LogStore(live, cache=cache))          # the bases
        writer.feed_until(48 * 3600.0)
        with (live / "p0/console.log").open("a") as handle:
            handle.write("@@@ broken in the delta\n")
        read_state(LogStore(live, cache=cache))          # the deltas
        assert cache.deltas > 0
        # once per base plus at most once for the one delta since
        assert max(most_copies(entry_strings(cache_mod._read_entry(path)))
                   for path in cache.entry_files()) == 2
        warm = ParseCache(tmp_path / "pc")
        for policy in ErrorPolicy:
            assert outcome(LogStore(live, cache=warm), policy) == \
                outcome(LogStore(live), policy)
        assert (warm.misses, warm.invalidated) == (0, 0)
        assert warm.hits > 0
