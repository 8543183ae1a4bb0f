"""Report cache: fingerprint freshness, canonical keys, LRU mechanics."""

from __future__ import annotations

import gzip
import hashlib
import os
from pathlib import Path

import pytest

from repro import api
from repro.logs.cache import CACHE_FORMAT, ParseCache, catalog_fingerprint
from repro.logs.record import LogSource
from repro.logs.store import DEFAULT_CACHE_DIRNAME, LogStore
from repro.serve.cache import (
    CachedResponse,
    ReportCache,
    logdir_fingerprint,
    request_key,
)


def touch_store(root, content=b"x"):
    """Append to the store's first log file, guaranteeing new mtime."""
    path = sorted(p for p in root.rglob("*.log") if p.is_file())[0]
    with path.open("ab") as fh:
        fh.write(content)
    # appended bytes change size; force a distinct mtime too so the
    # fingerprint moves even inside one timer tick
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestLogdirFingerprint:
    def test_stable_for_unchanged_dir(self, service_root):
        logs = service_root / "logs"
        assert logdir_fingerprint(logs) == logdir_fingerprint(logs)

    def test_appended_line_changes_fingerprint(self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        touch_store(logs, b"2099-01-01 injected line\n")
        assert logdir_fingerprint(logs) != before

    def test_parse_cache_artifacts_do_not_invalidate(self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        derived = logs / ".parse-cache"
        derived.mkdir()
        (derived / "entry.bin").write_bytes(b"cache artifact")
        quarantine = logs / "quarantine"
        quarantine.mkdir()
        (quarantine / "console.bad").write_bytes(b"bad line")
        assert logdir_fingerprint(logs) == before

    def test_own_cache_dir_inside_the_logdir_is_pruned(self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        api.diagnose(str(logs), cache=str(logs / "pc"))
        assert any((logs / "pc").iterdir())
        assert logdir_fingerprint(logs) == before

    def test_cache_wrapping_a_source_dir_keeps_the_full_walk(
            self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        api.diagnose(str(logs), cache=str(logs / "p0"))
        assert logdir_fingerprint(logs) == before
        touch_store(logs / "p0", b"2099-01-01 injected line\n")
        assert logdir_fingerprint(logs) != before

    def test_cache_inside_a_source_dir_does_not_rekey(self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        api.diagnose(str(logs), cache=str(logs / "p0" / "pc"))
        assert any((logs / "p0" / "pc").iterdir())
        assert logdir_fingerprint(logs) == before

    def test_stray_non_log_file_does_not_rekey(self, service_root):
        logs = service_root / "logs"
        (logs / "notes").mkdir()
        readme = logs / "notes" / "readme.txt"
        readme.write_text("operator notes")
        before = logdir_fingerprint(logs)
        readme.write_text("operator notes, edited at length")
        assert logdir_fingerprint(logs) == before

    def test_new_gzipped_segment_rekeys(self, service_root):
        logs = service_root / "logs"
        before = logdir_fingerprint(logs)
        with gzip.open(logs / "p0" / "console-20150104.log.gz", "wt") as fh:
            fh.write("2015-01-04T00:00:01.000000 c0-0c0s0n0 kernel: x\n")
        assert logdir_fingerprint(logs) != before

    def test_symlinked_source_dirs_are_covered(self, service_root,
                                               tmp_path_factory):
        logs = service_root / "logs"
        mount = tmp_path_factory.mktemp("mount")
        for name in ("p0", "controller", "erd", "sched"):
            (logs / name).rename(mount / name)
            (logs / name).symlink_to(mount / name, target_is_directory=True)
        before = logdir_fingerprint(logs)
        touch_store(mount / "p0", b"2099-01-01 injected line\n")
        assert logdir_fingerprint(logs) != before

    def test_platform_changes_fingerprint(self, service_root):
        logs = service_root / "logs"
        assert logdir_fingerprint(logs, "cray-xc") \
            != logdir_fingerprint(logs, "bgq-ras")

    def test_derived_dirs_are_never_statted(self, service_root,
                                            monkeypatch):
        logs = service_root / "logs"
        api.diagnose(str(logs), cache=True, error_policy="quarantine")
        assert (logs / DEFAULT_CACHE_DIRNAME).is_dir()
        (logs / "quarantine").mkdir(exist_ok=True)
        (logs / "quarantine" / "console.quarantine.log").write_text("x\n")
        statted = []
        real = os.stat

        def spy(path, *args, **kwargs):
            statted.append(Path(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", spy)
        logdir_fingerprint(logs)
        derived = [path for path in statted
                   if {DEFAULT_CACHE_DIRNAME, "quarantine"}
                   & set(path.relative_to(logs).parts)]
        assert derived == []
        assert any(path.name == "console.log" for path in statted)

    def test_walk_hashes_the_same_file_set(self, service_root):
        logs = service_root / "logs"
        api.diagnose(str(logs), cache=True)
        (logs / "p0" / "console-20150104.log.gz").write_bytes(b"segment")
        (logs / "notes").mkdir()
        (logs / "notes" / "readme.txt").write_text("operator notes")
        # the definition: format, catalog, manifest, then every file
        # the store lists for a diagnosis as rel/size/mtime_ns
        hasher = hashlib.sha256()
        hasher.update(f"{CACHE_FORMAT}\x00".encode())
        hasher.update(catalog_fingerprint(None).encode())
        hasher.update(b"\x00")
        hasher.update((logs / "manifest.json").read_bytes())
        hasher.update(b"\x00")
        store = LogStore(logs)
        for source in LogSource:
            for path in store.source_files(source):
                rel = path.relative_to(logs).as_posix()
                stat = path.stat()
                hasher.update(f"{rel}\x00{stat.st_size}\x00"
                              f"{stat.st_mtime_ns}\x01".encode())
        assert logdir_fingerprint(logs) == hasher.hexdigest()


class TestLiveStoreParseCache:
    def test_parse_cache_stays_bounded_under_appends(self, service_root,
                                                     tmp_path):
        from repro.simul.clock import DAY
        from repro.stream.replay import ReplayWriter

        writer = ReplayWriter(service_root / "logs", tmp_path / "live")
        live = LogStore(writer.live_root)
        cache = ParseCache(writer.live_root / DEFAULT_CACHE_DIRNAME)
        # every source that will grow holds lines before the first read
        writer.feed_until(DAY - 1.0)
        grown = 0
        for step in range(9):
            if step:
                grown += writer.feed_until(DAY - 1.0 + step * DAY / 4)
            api.diagnose(str(writer.live_root), cache=True)
            contents = {path.read_text() for source in LogSource
                        for path in live.source_files(source)}
            assert len(cache.entry_files()) == len(contents)
        assert grown >= 8


class TestRequestKey:
    def test_same_parameters_same_key(self, tmp_path):
        kwargs = dict(endpoint="diagnose", window_days=None,
                      stride_days=None, only=("swos", "dominance"),
                      error_policy="skip", platform=None)
        assert request_key(tmp_path, "f1", **kwargs) \
            == request_key(tmp_path, "f1", **kwargs)

    def test_only_order_is_canonical(self, tmp_path):
        a = request_key(tmp_path, "f1", endpoint="diagnose",
                        only=("swos", "dominance"))
        b = request_key(tmp_path, "f1", endpoint="diagnose",
                        only=("dominance", "swos"))
        assert a == b

    def test_every_dimension_changes_the_key(self, tmp_path):
        base = request_key(tmp_path, "f1", endpoint="diagnose")
        variants = [
            request_key(tmp_path, "f2", endpoint="diagnose"),
            request_key(tmp_path, "f1", endpoint="windowed"),
            request_key(tmp_path, "f1", endpoint="diagnose", window_days=7),
            request_key(tmp_path, "f1", endpoint="diagnose",
                        error_policy="strict"),
            request_key(tmp_path, "f1", endpoint="diagnose",
                        platform="bgq-ras"),
            request_key(tmp_path, "f1", endpoint="diagnose",
                        only=("swos",)),
        ]
        assert len({base, *variants}) == len(variants) + 1


class TestReportCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = ReportCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", CachedResponse(b"body", "/d", "f1"))
        entry = cache.get("k")
        assert entry is not None and entry.body == b"body"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_new_fingerprint_purges_stale_same_logdir(self):
        cache = ReportCache(max_entries=8)
        cache.put("k1", CachedResponse(b"old1", "/d", "f1"))
        cache.put("k2", CachedResponse(b"old2", "/d", "f1"))
        cache.put("other", CachedResponse(b"other", "/e", "f9"))
        cache.put("k3", CachedResponse(b"new", "/d", "f2"))
        assert cache.get("k1") is None
        assert cache.get("k2") is None
        assert cache.get("k3").body == b"new"
        assert cache.get("other").body == b"other"  # unrelated dir survives
        assert cache.invalidated == 2

    def test_lru_eviction_order(self):
        cache = ReportCache(max_entries=2)
        cache.put("a", CachedResponse(b"a", "/a", "f"))
        cache.put("b", CachedResponse(b"b", "/b", "f"))
        assert cache.get("a") is not None  # freshen a
        cache.put("c", CachedResponse(b"c", "/c", "f"))
        assert cache.get("b") is None  # b was least recently used
        assert cache.get("a") is not None
        assert cache.evicted == 1

    def test_clear(self):
        cache = ReportCache(max_entries=8)
        cache.put("k1", CachedResponse(b"1", "/d", "f1"))
        cache.put("k2", CachedResponse(b"2", "/e", "f1"))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReportCache(max_entries=0)

    def test_stats_shape(self):
        stats = ReportCache().stats()
        assert set(stats) == {"entries", "max_entries", "hits", "misses",
                              "hit_rate", "invalidated", "evicted"}
