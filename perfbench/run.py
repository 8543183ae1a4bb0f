"""The repo's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: ``diagnose-warm``,
``diagnose-cold``, ``serve-mixed``, ``watch-replay`` (see NOTES.md for
why each exists and what it measures).  The inputs are generated from
``--seed`` and cached under ``.perfbench/``; each run measures for about
``--seconds`` seconds and checks every output it times.

``--trace 0`` measures the end-to-end metrics with nothing but the
program running.  ``--trace 1`` spends half the seconds quiet and half
with the span wrappers of ``tracer.py`` installed, and reports the
per-layer self times, ``unattributed.s`` and the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import os
import shutil

from common import WORK_ROOT, ensure_inputs, require_source

WORKLOADS = ("diagnose-warm", "diagnose-cold", "serve-mixed", "watch-replay")


class Context:
    """What a workload is run with."""

    def __init__(self, seed: int, seconds: float, trace: bool, inputs,
                 work) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs = inputs
        #: private scratch directory, removed when the run ends
        self.work = work


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    inputs = ensure_inputs(args.seed)
    work = WORK_ROOT / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), inputs, work)
    try:
        if args.workload == "serve-mixed":
            import wl_serve

            result = wl_serve.run(ctx)
        elif args.workload == "watch-replay":
            import wl_watch

            result = wl_watch.run(ctx)
        else:
            import wl_diagnose

            result = wl_diagnose.run(
                ctx, cold=args.workload == "diagnose-cold")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.emit(ctx.trace)


if __name__ == "__main__":
    main()
