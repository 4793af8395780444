"""Run one ccdec benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: analyze, capacity-unions,
simulate-codebook, simulate-ensemble (see ``workloads.py``).  Each process
runs single-threaded with BLAS thread pools pinned to one thread, and only
one process computes at a time.  After one untimed cold start that fills the
bytecode and file caches:

* a warm process imports ``ccdec.cli``, builds the inputs from the seed and
  runs an untimed warm-up pass;
* then, in rounds, a cold start is followed by a timed warm pass, both
  pinned to one CPU of the allowed set, the CPUs taken in turn.  Rounds go
  on while they fit into ``--seconds`` counted from the start of the run,
  warm-up included, and stop after a whole number of turns over the CPUs
  and at least ``MIN_ROUNDS``.  A cold start is a fresh interpreter that
  imports ``ccdec.cli``, builds and loads the inputs and runs the first
  task.  ``setup_s``, ``cold_task_s`` and
  ``cli.import_s`` are medians over the cold starts, ``wall_s`` is the
  median pass, and ``peak_rss_mb`` is the warm process's peak resident
  memory.  With ``--trace 1`` every timed pass is followed by a traced one on
  the same CPU, and the per-layer metrics are medians over the traced
  passes.

Every output is checked.  The workloads hold only tasks that succeed at the
commit that defines the benchmark; tasks that a known program defect makes
fail (``workloads.known_defect_probes``) run once, untimed, and are reported
apart, on standard error and in the record, not in ``attempted`` and
``failed``.  A wrong output from one of them still makes ``correct`` false.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
host and library versions, goes to ``perfbench/out/``.  Without the ccdec
sources under ``src/`` it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("analyze", "capacity-unions", "simulate-codebook", "simulate-ensemble")
MIN_ROUNDS = 4
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "cold_task_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "scenario.load_ms": "ms",
    "scenario.render_ms": "ms",
    "projection.calls": "count",
    "projection.self_s": "s",
    "projection.call_p50_ms": "ms",
    "projection.call_p90_ms": "ms",
    "projection.fit_iterations": "count",
    "projection.bisection_steps": "count",
    "projection.ms_per_fit_iteration": "ms",
    "projection.infeasible_ratio": "ratio",
    "projection.max_marginal_residual": "probability",
    "rates.decoder_rates.ml_s": "s",
    "rates.decoder_rates.map_s": "s",
    "rates.decoder_rates.glrt_s": "s",
    "rates.decoder_rates.gmap_s": "s",
    "rates.decoder_rates.self_s": "s",
    "rates.capacity.calls": "count",
    "rates.capacity.self_s": "s",
    "rates.capacity.call_p50_ms": "ms",
    "rates.capacity.call_p90_ms": "ms",
    "rates.capacity.iterations": "count",
    "rates.capacity.max_cert_gap": "nats",
    "rates.one_sided.calls": "count",
    "rates.one_sided.self_s": "s",
    "rates.cover.blocks": "count",
    "probability.mutual_information_calls": "count",
    "probability.kl_divergence_calls": "count",
    "simulate.trials": "count",
    "simulate.self_s": "s",
    "simulate.codebook_ms_per_trial": "ms",
    "simulate.codeword_symbols_per_s": "1/s",
    "simulate.ensemble_binary_ms_per_trial": "ms",
    "simulate.ensemble_general_ms_per_trial": "ms",
    "vn.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def fail_ratio(outcomes) -> float:
    """Share of tasks that raised, exited non-zero, did not converge or failed a check."""
    return sum(o["status"] != "ok" for o in outcomes) / len(outcomes)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_cold(args, cpu=None) -> dict:
    """One cold start, on ``cpu`` when given; its stamps become seconds since launch."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "cold", "--workload", args.workload,
        "--seed", str(args.seed), "--scale", str(args.scale),
    ]
    launched = time.monotonic()
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"cold start exited {proc.returncode}:\n{proc.stderr.strip()}")
    cold = json.loads(proc.stdout.strip().splitlines()[-1])
    cold["setup_s"] = cold.pop("setup_done") - launched
    cold["cold_task_s"] = cold.pop("first_done") - launched
    return cold


def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


def measure(args) -> dict:
    """Interleave the cold starts with the warm passes, one process at a time.

    Spreading both over the whole ``--seconds`` window, and taking the CPUs in
    turn, makes every time a median over the same stretch of host speed and
    over every CPU alike: on a shared 2-vCPU host one vCPU at a time ran
    about 30% slower than the other, and the two swapped within a minute.
    """
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    deadline = time.monotonic() + args.seconds
    run_cold(args)  # untimed: fills the bytecode and file caches
    cmd = [
        sys.executable, str(HERE / "worker.py"), "warm", "--workload", args.workload,
        "--seed", str(args.seed), "--scale", str(args.scale), "--trace", str(args.trace),
    ]
    err_path = OUT / f"warm-{args.workload}-seed{args.seed}.err"
    with open(err_path, "w", encoding="utf-8") as err, subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True
    ) as warm:

        def command(line=None) -> dict:
            if line is not None:
                warm.stdin.write(line + "\n")
                warm.stdin.flush()
            reply = warm.stdout.readline()
            if not reply:
                raise BenchError(f"warm process stopped; its errors are in {err_path}")
            return json.loads(reply)

        try:
            cpus = sorted(os.sched_getaffinity(0))
            known_defects = command()["known_defects"]  # ready: imported, inputs built, probes run
            outcomes = command(f"pass {cpus[0]}")["outcomes"]  # warm-up: checked, not timed
            colds, passes, traced = [], [], []
            while True:
                round_start = time.monotonic()
                cpu = cpus[len(passes) % len(cpus)]
                colds.append(run_cold(args, cpu))
                for kind, times in (("pass", passes), ("traced", traced))[: 1 + args.trace]:
                    reply = command(f"{kind} {cpu}")
                    times.append(reply["elapsed"])
                    outcomes += reply["outcomes"]
                # Stop once another round would end past the deadline, but
                # only after every CPU has had as many rounds as every other,
                # so that no CPU's speed weighs more in a median.
                next_end = 2 * time.monotonic() - round_start
                if len(passes) >= MIN_ROUNDS and len(passes) % len(cpus) == 0 and next_end > deadline:
                    break
            final = command("done")
        finally:
            if warm.poll() is None:
                warm.kill()
    signal.alarm(0)

    all_outcomes = outcomes + [o for c in colds for o in c["outcomes"]]
    failed = [o for o in all_outcomes if o["status"] != "ok"]
    if args.trace:
        metrics = dict(final["layers"])
        metrics["cli.import_s"] = statistics.median(c["import_s"] for c in colds)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in colds),
            "cold_task_s": statistics.median(c["cold_task_s"] for c in colds),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": final["peak_rss_mb"],
            "pass_ratio": 1.0 - fail_ratio(outcomes),
        }
        units = END_TO_END
    return {
        "correct": not any(o["status"] == "wrong" for o in all_outcomes + known_defects),
        "attempted": len(all_outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host_info(),
            "versions": final["versions"],
            "pass_s": passes,
            "traced_pass_s": traced,
            "cold_starts": [{k: c[k] for k in ("setup_s", "cold_task_s", "import_s")} for c in colds],
            "fail_ratio": fail_ratio(outcomes),
            "failures": sorted({(o["task"], o["status"], o["detail"]) for o in failed}),
            "known_defects": known_defects,
            "trace_file": final.get("trace_file"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccdec" / "cli.py").is_file():
        print(f"perfbench: no ccdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(args)
    except (BenchError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, **result}, indent=1) + "\n", encoding="utf-8")
    for o in record["failures"]:
        print(f"{o[1]}: {o[0]}: {o[2]}", file=sys.stderr)
    for o in record["known_defects"]:
        print(f"known defect, run once and not counted: {o['status']}: {o['task']}: {o['detail']}", file=sys.stderr)
    print(json.dumps({"host": record["host"], "versions": record["versions"], "record": str(path)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
