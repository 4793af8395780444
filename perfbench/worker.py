"""One benchmark process: a cold start, or the warm process of a workload.

    python3 perfbench/worker.py cold --workload W --seed N [--scale X]
    python3 perfbench/worker.py warm --workload W --seed N [--trace 0|1] [--scale X]

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  A cold start builds
the inputs, runs the first task and prints one JSON object.  The warm
process builds the inputs, runs the workload's known-defect probes once,
prints ``{"ready": ..., "known_defects": [outcomes]}``, then reads commands
from standard input, one a line: ``pass CPU`` and ``traced CPU`` run every
task once on that CPU and print the pass time and outcomes; ``done`` prints
the peak resident memory (and the per-layer metrics of the traced passes)
and exits.  Times
that ``run.py`` compares with its own clock are ``time.monotonic`` stamps,
which every process on the host shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import asdict

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def run_pass(tasks, workloads, tracer=None):
    """Run every task once; return the pass wall time and the checked outcomes.

    Checks run after the clock stops, so ``wall_s`` times the program alone.
    """
    results = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        try:
            results.append((task, task.run(), None))
        except workloads.TaskError as exc:
            results.append((task, None, str(exc)))
        except Exception as exc:  # the program raised: count it and keep measuring
            results.append((task, None, f"{type(exc).__name__}: {exc}"))
    elapsed = time.perf_counter() - start
    outcomes = [
        workloads.Outcome(task.name, "error", err) if err is not None else workloads.check_output(task, out)
        for task, out, err in results
    ]
    return elapsed, outcomes


def serve(tasks, probes, workloads, args) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    _, probed = run_pass(probes, workloads)
    emit({"ready": True, "known_defects": [asdict(o) for o in probed]})
    for line in sys.stdin:
        command, *cpu = line.split()
        if command == "done":
            break
        if command not in ("pass", "traced") or (command == "traced" and tracer is None) or len(cpu) != 1:
            raise SystemExit(f"unknown command {line!r}")
        os.sched_setaffinity(0, {int(cpu[0])})
        if command == "traced":
            tracer.install()
            try:
                elapsed, outcomes = run_pass(tasks, workloads, tracer)
            finally:
                tracer.uninstall()
        else:
            elapsed, outcomes = run_pass(tasks, workloads)
        emit({"elapsed": elapsed, "outcomes": [asdict(o) for o in outcomes]})
    final = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if tracer is not None and tracer.counts:
        from spans import layer_metrics

        final["layers"] = layer_metrics(tracer)
        final["trace_file"] = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(final["trace_file"])
    return final


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cold", "warm"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    start = time.perf_counter()
    import ccdec.cli  # noqa: F401  (timed: this is the import a ccdec call pays)

    import_s = time.perf_counter() - start
    import numpy
    import scipy

    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        tasks = workloads.build(args.workload, args.seed, workdir, args.scale)
        if args.mode == "cold":
            setup_done = time.monotonic()
            _, outcomes = run_pass(tasks[:1], workloads)
            result = {
                "import_s": import_s,
                "setup_done": setup_done,
                "first_done": time.monotonic(),
                "outcomes": [asdict(o) for o in outcomes],
            }
        else:
            probes = workloads.known_defect_probes(args.workload, args.seed, workdir)
            result = serve(tasks, probes, workloads, args)
            result["versions"] = {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
