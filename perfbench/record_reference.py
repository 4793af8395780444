"""Record the reference values that the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the ``analyze`` results of the built-ins
and of the unrelabelled ``rand12`` set, the three ``vn`` reports, and error
counts of long simulation runs at a fixed seed.  Re-record only when a
change is meant to alter these values, and say so in the change.
"""

from __future__ import annotations

import json
import tempfile

import workloads as w

SIM_SEED = 990
SIM_TRIALS = {"codebook": 1500, "ensemble binary": 5000, "ensemble general": 300}


def _plain(results) -> dict:
    return {sec: {key: cell["value"] for key, cell in keys.items()} for sec, keys in results.items()}


def analyze_reference(path) -> dict:
    r = w.cli_results(["analyze", "--scenario", path])
    count = len([k for k in r["worst"] if k.startswith("mutual_information[")])
    blocks = len([k for k in r["one_sided"] if k.startswith("component[")])
    return {
        "capacity": w._v(r, "capacity", "capacity"),
        "rates": {
            kind: [w._v(r, f"rates_{kind}", f"channel[{k}]") for k in range(count)]
            for kind in ("ml", "map", "glrt", "gmap")
        },
        "whole_set": w._v(r, "one_sided", "whole_set"),
        "components": [w._v(r, "one_sided", f"component[{b}]") for b in range(blocks)],
    }


def simulation_reference(argv) -> list:
    r = w.cli_results(argv)
    trials = w._v(r, "config", "trials")
    count = len([sec for sec in r if sec.startswith("channel[")])
    return [{"errors": w._v(r, f"channel[{k}]", "errors"), "trials": trials} for k in range(count)]


def main() -> None:
    ref = {"analyze": {}, "simulate": {}}
    for name in ("bsc-quarter", "union-one-sided", "counterexample"):
        ref["analyze"][name] = analyze_reference(f"builtin:{name}")
    with tempfile.TemporaryDirectory() as tmp:
        chans, comps = w.rand12_base()
        ref["analyze"]["rand12"] = analyze_reference(w._write_scenario(tmp, "rand12", chans, comps, w.UNIFORM3))
        general = w._write_scenario(tmp, "general3", w.general_base(), input_dist=w.UNIFORM3)
        for sub in ("counterexample", "sweep", "blind"):
            ref[f"vn {sub}"] = _plain(w.cli_results(["vn", sub]))
        for dec in w.CODEBOOK["decoders"]:
            ref["simulate"][f"codebook {dec}"] = simulation_reference(
                w._simulate_argv("builtin:bsc-quarter", w.CODEBOOK, dec, "codebook", SIM_TRIALS["codebook"], SIM_SEED)
            )
        for key, path, cfg in (
            ("ensemble binary", "builtin:bsc-quarter", w.ENSEMBLE_BINARY),
            ("ensemble general", general, w.ENSEMBLE_GENERAL),
        ):
            ref["simulate"][key] = simulation_reference(
                w._simulate_argv(path, cfg, cfg["decoder"], "ensemble", SIM_TRIALS[key], SIM_SEED)
            )
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
