"""The parse cache's ``cache.load`` span times the load it names.

A hit reads the entry blob, verifies its checksum and unpickles it; the
span must enclose all three, so ``repro obs`` charges a hit its real
cost instead of ~0 ms.  A rotted entry still closes its span, tagged
with the error, before it is evicted.
"""

import time

import repro.logs.cache as cache_mod
from repro.logs.cache import ParseCache
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore
from repro.obs import OBS, ObsConfig, configure
from repro.simul.clock import SimClock

READ_DELAY_S = 0.005


def console_store(root) -> LogStore:
    bus = LogBus()
    for i in range(4):
        bus.emit(LogRecord(float(i), LogSource.CONSOLE, "c0-0c0s0n0",
                           "mce", {"bank": i, "status": "ff"}))
    store = LogStore(root)
    store.write(bus, SimClock(), system="TT", seed=1, duration_seconds=10.0)
    return store


def slow_reads(monkeypatch) -> list:
    """Delay every entry read and note the span it ran inside."""
    inside: list = []
    read = cache_mod.read_checksummed_blob

    def slow(*args, **kwargs):
        inside.append(OBS.current_span_id())
        time.sleep(READ_DELAY_S)
        return read(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "read_checksummed_blob", slow)
    return inside


def load_spans() -> list:
    return [s for s in OBS.spans() if s.name == "cache.load"]


class TestCacheLoadSpan:
    def test_hit_span_covers_read_and_decode(self, tmp_path, monkeypatch):
        store = console_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        list(cached.read_source(LogSource.CONSOLE))  # miss: fills the entry
        inside = slow_reads(monkeypatch)
        configure(ObsConfig(enabled=True))
        list(cached.read_source(LogSource.CONSOLE))
        assert cache.hits == 1
        [span] = load_spans()
        assert inside == [span.span_id]
        assert span.duration >= READ_DELAY_S
        [entry] = cache.entry_files()
        assert span.tags["records"] == 4
        assert span.tags["bytes"] == entry.stat().st_size
        assert span.tags["file"] == "console.log"
        assert "error" not in span.tags

    def test_rotted_entry_span_is_tagged_and_evicted(self, tmp_path):
        store = console_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        list(cached.read_source(LogSource.CONSOLE))
        [entry] = cache.entry_files()
        entry.write_bytes(entry.read_bytes()[:50])  # torn write
        configure(ObsConfig(enabled=True))
        list(cached.read_source(LogSource.CONSOLE))
        assert cache.invalidated == 1 and cache.hits == 0
        [span] = load_spans()
        assert span.tags["error"] == "BlobIntegrityError"
        assert "records" not in span.tags
        assert OBS.metrics.counter("cache.invalidate").value == 1
