"""Shared plumbing: checkout paths, seeded inputs, statistics, results.

Inputs are the ``s1``-``s5`` and ``bgq`` scenario stores plus their
reference outputs.  Simulating them is input generation, not timed
work: :func:`ensure_inputs` runs ``inputs.py`` in a child process once
per scenario seed and caches the result under
``.perfbench/inputs/seed<N>`` in the checkout.  The workload seed picks
the scenario seed from a pool of :data:`SCENARIO_POOL` seeds starting at
the parity-golden seed 7, so a set of runs simulates each scenario seed
at most once.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import gauge

#: the checkout the benchmark runs in (the parent of this directory)
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: everything the benchmark writes lives under here (git-ignored)
WORK_ROOT = ROOT / ".perfbench"

SCENARIOS = ("s1", "s2", "s3", "s4", "s5", "bgq")
#: the seed of tests/data/parity_goldens.json
GOLDEN_SEED = 7
SCENARIO_POOL = 3
#: window length of every windowed request and reference
WINDOW_DAYS = 7


def scenario_seed(seed: int) -> int:
    """The scenario seed a workload seed materialises its stores from."""
    return GOLDEN_SEED + seed % SCENARIO_POOL


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Inputs:
    """One scenario seed's stores and reference outputs."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        meta = json.loads((root / "meta.json").read_text())
        self.stores = {name: root / "stores" / f"{name}-seed{seed}"
                       for name in SCENARIOS}
        #: on-disk log bytes per store
        self.store_bytes: dict[str, int] = meta["store_bytes"]
        #: stores whose reference disagreed with the parity goldens:
        #: every op on them counts as failed
        self.bad = set(meta["golden_mismatch"])

    def reference(self, name: str, kind: str) -> bytes:
        """Reference body of one store (``diagnose`` or ``windowed``)."""
        return (self.root / "refs" / f"{name}.{kind}.json").read_bytes()


def ensure_inputs(seed: int) -> Inputs:
    """Materialise (or reuse) the inputs of one workload seed."""
    sseed = scenario_seed(seed)
    root = WORK_ROOT / "inputs" / f"seed{sseed}"
    if not (root / "meta.json").is_file():
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "inputs.py"), str(sseed),
             str(root)],
            check=True, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    return Inputs(root, sseed)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def p50(values: list[float]) -> float:
    return quantile(sorted(values), 0.5)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ten samples or fewer
    there is no such percentile; the maximum is reported instead
    (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else math.nan), 100.0, n
    k = n - 11  # exactly ten samples lie above ordered[k]
    return ordered[k], 100.0 * (k + 1) / n, n


#: seconds the kernel of ``gauge.py`` takes on the reference host (a
#: quiet 2 vCPU x86 VM, Python 3.11); gated timings read as on it
CALIBRATION_REF_S = 0.021


def pin(cpu: int):
    """A ``preexec_fn`` that pins the child process to one CPU."""
    return lambda: os.sched_setaffinity(0, {cpu})


class Speed:
    """How fast the machine ran during one run, from kernel samples.

    Shared hosts slow down by tens of percent for minutes at a time, and
    every timing slows with them.  Gated timings are divided by
    :attr:`factor`, the run's median kernel time over
    :data:`CALIBRATION_REF_S`, so runs taken in a slow spell read like
    runs taken in a quiet one; the raw figures are printed as well.
    Without a ``cpu`` the kernel runs in this process, on the CPU the
    program has just run on, with the collector off
    (:func:`gauge.sample`).  Given a ``cpu``, it runs in ``gauge.py``, an
    interpreter of its own pinned to that CPU.  Use as a context manager:
    leaving it stops that interpreter.
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.samples: list[float] = []
        self.proc = None
        if cpu is not None:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "gauge.py")], cwd=ROOT,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                preexec_fn=None if cpu is None else pin(cpu))

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait()

    def sample(self) -> None:
        if self.proc is None:
            self.samples.append(gauge.sample())
            return
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return p50(self.samples) / CALIBRATION_REF_S


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid or 'self'}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


def timed_setup(fn, repeats: int = 3) -> tuple[float, object]:
    """Run a set-up ``repeats`` times; (median seconds, last result)."""
    seconds = []
    result = None
    for i in range(repeats):
        started = time.perf_counter()
        result = fn(i)
        seconds.append(time.perf_counter() - started)
    return p50(seconds), result


def run_probe(workload: str, *args: str) -> None:
    """One fresh-interpreter set-up (``probe.py``), raising on failure."""
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, *args],
        check=True, env=child_env(), cwd=ROOT)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
class Result:
    """What one workload run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: contract end-to-end metrics: name -> (value, unit)
        self.end_to_end: dict[str, tuple[float, str]] = {}
        #: the same measurements under their per-workload names
        self.named: dict[str, tuple[float, str]] = {}
        #: per-layer metrics (traced run only): name -> (value, unit)
        self.per_layer: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def op(self, ok: bool, what: str = "", count: int = 1) -> None:
        """Account ``count`` attempted ops that all passed or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)

    def emit(self, trace: bool) -> None:
        """Human-readable lines, then the one-line JSON result."""
        ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"failed_ratio {ratio:.6f} ({self.failed} of "
              f"{self.attempted} ops failed)")
        for what in self.failures:
            print(f"  failed: {what}")
        for name, (value, unit) in self.named.items():
            print(f"{name} {value:.6g} {unit}")
        for note in self.notes:
            print(note)
        metrics = self.per_layer if trace else self.end_to_end
        if trace:
            for name, (value, unit) in metrics.items():
                print(f"  {name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value if math.isfinite(value) else 0.0,
                       "unit": unit}
                for name, (value, unit) in metrics.items()},
        }, sort_keys=True))
