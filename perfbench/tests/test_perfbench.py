"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload at a tiny size in both modes and checks that each metric
named in BENCHMARK.json comes out with its unit and that the known-defect
probes are reported apart; feeds the checks corrupted outputs and checks that
the failure ratio rises; and checks that run.py refuses to report without the
ccdec sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: cell["unit"] for name, cell in result["metrics"].items()} == want
    assert all(isinstance(cell["value"], (int, float)) for cell in result["metrics"].values())
    record = json.loads(Path(json.loads(proc.stdout.strip().splitlines()[-2])["record"]).read_text())
    want_probes = [t.name for t in workloads.known_defect_probes(workload, 3, str(tmp_path))]
    assert [o["task"] for o in record["known_defects"]] == want_probes


def test_metric_names_match_run_py():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS == workloads.WORKLOADS


def _rate_above_information(r):
    r["rates_gmap"]["channel[1]"]["value"] = r["worst"]["mutual_information[1]"]["value"] + 1e-3


def _cover_missing_a_channel(out):
    cset, cap, verdicts, cover = out
    return cset, cap, verdicts, cover[:-1] + (cover[-1][:-1],)


def _more_errors_than_trials(r):
    r["channel[0]"]["errors"]["value"] = r["config"]["trials"]["value"] + 1


@pytest.mark.parametrize(
    "workload,corrupt",
    [
        ("analyze", _rate_above_information),
        ("capacity-unions", _cover_missing_a_channel),
        ("simulate-codebook", _more_errors_than_trials),
    ],
)
def test_corrupted_output_raises_the_failure_ratio(tmp_path, workload, corrupt):
    task = workloads.build(workload, 3, str(tmp_path), scale=0.05)[0]

    def corrupted_run():
        out = task.run()
        return corrupt(out) or out

    _, clean = worker.run_pass([task], workloads)
    _, bad = worker.run_pass([dataclasses.replace(task, run=corrupted_run)], workloads)
    as_dicts = [dataclasses.asdict(o) for o in clean], [dataclasses.asdict(o) for o in bad]
    assert run.fail_ratio(as_dicts[0]) == 0.0
    assert run.fail_ratio(as_dicts[1]) == 1.0
    assert bad[0].status == "wrong"


def test_refuses_to_report_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
