"""The machine-speed gauge: a fixed pure-Python kernel.

    python3 perfbench/gauge.py

A closed loop calls :func:`sample` in its own process, on the CPU the
program has just run on.  Run as a script, the gauge is an interpreter
of its own (``serve-mixed`` pins one to each CPU): for every line read
from standard input it collects its own garbage, runs the kernel once
and answers with the kernel's seconds on one line; it exits at the end
of its input.  It imports nothing of the program.
"""
from __future__ import annotations

import gc
import hashlib
import json
import pickle
import sys
import time


def kernel() -> float:
    """Seconds a fixed pure-Python kernel takes.

    It allocates, groups, sorts, pickles, hashes and dumps JSON the way
    the pipeline does.
    """
    begun = time.perf_counter()
    rows = [(i * 7919 % 10007, f"n{i % 997}", i / 3.0)
            for i in range(20000)]
    groups: dict[str, list] = {}
    for key, node, value in rows:
        groups.setdefault(node, []).append((key, value))
    rows.sort()
    blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    hashlib.sha256(blob).digest()
    json.dumps({node: len(items) for node, items in groups.items()})
    return time.perf_counter() - begun


def sample() -> float:
    """The kernel's seconds, run in this process with the collector off.

    No collection runs inside the kernel, so it never walks the heap of
    the program that shares the process, and the kernel frees all it
    allocates before the collector is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return kernel()
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    for _ in sys.stdin:
        gc.collect()
        print(f"{kernel():.9f}", flush=True)


if __name__ == "__main__":
    main()
