"""Run every workload untraced and traced, and print the metrics as tables.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--json PATH]

``--seconds`` defaults to the ``run_seconds`` of BENCHMARK.json.

The first table holds the end-to-end metrics of each workload and its
fail_ratio (1 - pass_ratio); then come the outcomes of the known-defect
probes, which run once and are not counted; the second table holds the
per-layer metrics of the traced runs, including the tracing overhead.  ``--json`` also saves every result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's result, with the host and library versions it printed before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    env = json.loads(env_line)
    known = json.loads(Path(env["record"]).read_text(encoding="utf-8"))["known_defects"]
    return {**json.loads(result_line), "host": env["host"], "versions": env["versions"], "known_defects": known}


def table(rows: dict, names, units) -> str:
    workloads = list(rows)
    lines = ["metric".ljust(40) + "unit".ljust(12) + "".join(w.rjust(20) for w in workloads)]
    for name in names:
        cells = "".join(f"{rows[w][name]:>20.6g}" for w in workloads)
        lines.append(name.ljust(40) + units[name].ljust(12) + cells)
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--json", help="also write every result to this file")
    args = parser.parse_args()

    results = {
        trace: {w: run_workload(w, args.seed, args.seconds, trace) for w in run.WORKLOADS} for trace in (0, 1)
    }
    e2e = {}
    for w, r in results[0].items():
        e2e[w] = {name: cell["value"] for name, cell in r["metrics"].items()}
        e2e[w]["fail_ratio"] = 1.0 - e2e[w]["pass_ratio"]
    layers = {w: {name: cell["value"] for name, cell in r["metrics"].items()} for w, r in results[1].items()}
    print(table(e2e, [*run.END_TO_END, "fail_ratio"], {**run.END_TO_END, "fail_ratio": "ratio"}))
    print()
    for w, r in results[0].items():
        for o in r["known_defects"]:
            print(f"known defect on {w}, run once and not counted: {o['status']}: {o['task']}: {o['detail']}")
    print()
    print(table(layers, run.PER_LAYER, run.PER_LAYER))
    if args.json:
        record = {"seed": args.seed, "seconds": args.seconds, "untraced": results[0], "traced": results[1]}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
