"""Input generation: ``python3 perfbench/inputs.py <scenario-seed> <dir>``.

Simulates the ``s1``-``s5`` and ``bgq`` stores at one scenario seed and
computes their reference outputs with the *uncached* pipeline:
``canonical_json(api.diagnose(store))`` and the windowed payload the
service answers for ``POST /v1/diagnose/windowed``.  At the golden seed
the ``s1``-``s5`` references are also checked against
``tests/data/parity_goldens.json``; a store that disagrees is listed in
``meta.json`` and every op on it later counts as failed.

Nothing here is timed.  Runs in its own interpreter so the simulator's
memory never counts towards a workload's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import GOLDEN_SEED, ROOT, SCENARIOS, WINDOW_DAYS, require_source


def windowed_body(windows) -> bytes:
    """The service's windowed body for a list of DiagnosisWindow."""
    from repro.core.serialize import canonical_json

    payload = [{"start_day": w.start_day, "end_day": w.end_day,
                "report": w.report} for w in windows]
    return canonical_json(payload).encode("utf-8")


def main(seed: int, out: Path) -> None:
    require_source()
    from repro import api
    from repro.core.serialize import canonical_json
    from repro.experiments.scenarios import materialize

    goldens = json.loads(
        (ROOT / "tests" / "data" / "parity_goldens.json").read_text())
    building = out.with_name(out.name + f".building-{os.getpid()}")
    if building.exists():
        shutil.rmtree(building)
    (building / "refs").mkdir(parents=True)
    store_bytes: dict[str, int] = {}
    mismatch: list[str] = []
    for name in SCENARIOS:
        store = materialize(name, seed=seed, root=building / "stores")
        store_bytes[name] = sum(
            path.stat().st_size for path in store.root.rglob("*")
            if path.is_file() and path.name != "manifest.json")
        body = canonical_json(api.diagnose(store.root)).encode("utf-8")
        golden = goldens["scenarios"].get(name)
        if (seed == goldens["seed"] == GOLDEN_SEED and golden is not None
                and hashlib.sha256(body).hexdigest() != golden["sha256"]):
            mismatch.append(name)
        (building / "refs" / f"{name}.diagnose.json").write_bytes(body)
        windows = api.diagnose_windowed(store.root, window_days=WINDOW_DAYS)
        (building / "refs" / f"{name}.windowed.json").write_bytes(
            windowed_body(windows))
    (building / "meta.json").write_text(json.dumps(
        {"seed": seed, "store_bytes": store_bytes,
         "golden_mismatch": mismatch}, indent=2, sort_keys=True) + "\n")
    if out.exists():
        shutil.rmtree(out)
    os.replace(building, out)


if __name__ == "__main__":
    main(int(sys.argv[1]), Path(sys.argv[2]))
