"""The traced benchmark run can still wrap every entry point it names.

``perfbench/tracer.py`` patches functions and methods of ``repro`` by
name.  A rename in ``src/`` would otherwise surface only when the
benchmark runs with ``--trace 1``; here it fails tier-1.  The tracer is
imported by path and left as it is.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.logs.store as store_mod
from repro.logs.cache import ParseCache

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_undoes():
    tracer = load_tracer()
    before = (store_mod.parse_log_file, store_mod._parse_log_text,
              ParseCache.__dict__["_adapt"])
    patches = tracer.install(tracer.Recorder())
    try:
        assert store_mod._parse_log_text is not before[1]
    finally:
        patches.restore()
    assert (store_mod.parse_log_file, store_mod._parse_log_text,
            ParseCache.__dict__["_adapt"]) == before
