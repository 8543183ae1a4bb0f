"""Fresh-interpreter set-up: ``python3 perfbench/probe.py <workload> ...``.

``setup_s`` is the wall time of this process: a new interpreter that
imports what the workload needs and brings it to ready, the way an
operator's first command would.  The state it leaves on disk is what
the measured run then uses.

* ``diagnose-warm <cache> <store>...``: fill a fresh parse cache by
  building the pipeline over every store;
* ``diagnose-cold <store>...``: open every store (manifest, dialect);
* ``watch-replay <complete-store> <live> <out>``: lay out an empty live
  directory and start a watch daemon on it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import require_source


def main(workload: str, args: list[str]) -> None:
    require_source()
    if workload == "diagnose-warm":
        from repro import api
        from repro.logs.cache import ParseCache

        cache = ParseCache(Path(args[0]))
        for store in args[1:]:
            api.load_system(store, cache=cache)
    elif workload == "diagnose-cold":
        from repro import api  # noqa: F401  (the import is the set-up)
        from repro.logs.store import LogStore

        for store in args:
            opened = LogStore(store)
            opened.manifest()
            opened.catalog
    elif workload == "watch-replay":
        from repro.logs.record import LogSource
        from repro.logs.store import LogStore
        from repro.stream.daemon import WatchConfig, WatchDaemon

        complete, live, out = (Path(arg) for arg in args)
        live.mkdir(parents=True)
        (live / "manifest.json").write_bytes(
            (complete / "manifest.json").read_bytes())
        skeleton = LogStore(live)
        for source in LogSource:
            path = skeleton.path_for(source)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        WatchDaemon(WatchConfig(logdir=live, out=out, window_days=1,
                                poll_interval=0.0)).start()
    else:
        sys.exit(f"probe: unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
