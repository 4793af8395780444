"""No command loads scipy, each checked in a fresh interpreter.

Both linear programs, the capacity master game and the projection's
reachability LP, are solved by one numpy simplex, and scipy is only a test
dependency.  The test process itself has imported scipy through other test
modules, so every check runs in a subprocess.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ccdec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ccdec.__file__)))

# Runs the CLI with argv (or only imports ccdec when argv is empty) and prints
# [exit code, loaded scipy modules] as JSON on the last line.
CHILD = """
import contextlib, io, json, sys
import ccdec
code = None
if sys.argv[1:]:
    from ccdec.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_child(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


SIM = ("simulate", "--scenario", "builtin:bsc-quarter", "--trials", "5", "--seed", "3")
# Stands for the path of the seeded set written by the dirichlet_scenario fixture.
DIRICHLET = "{dirichlet}"


@pytest.fixture
def dirichlet_scenario(tmp_path):
    # The set of test_cli.py::TestUnreachableThreshold: 42 of its projections
    # have an unreachable threshold, which the reachability LP settles.
    rng = np.random.default_rng(1002)
    scenario = tmp_path / "dirichlet8.json"
    scenario.write_text(json.dumps({"channels": [rng.dirichlet(np.ones(4), size=3).tolist() for _ in range(8)]}))
    return str(scenario)


@pytest.mark.parametrize(
    "argv, code",
    [
        ((), None),
        (("vn", "counterexample"), 0),
        (("vn", "sweep"), 0),
        (SIM + ("--method", "codebook"), 0),
        (SIM + ("--method", "ensemble"), 0),
        (("analyze", "--scenario", "builtin:bsc-quarter"), 0),
        (("analyze", "--scenario", "builtin:counterexample"), 0),
        (("analyze", "--scenario", DIRICHLET), 0),
        (("capacity", "--scenario", "builtin:union-one-sided"), 0),
        (("one-sided", "--scenario", "builtin:union-one-sided"), 0),
    ],
    ids=[
        "import",
        "vn-counterexample",
        "vn-sweep",
        "simulate-codebook",
        "simulate-ensemble",
        "analyze-bsc-quarter",
        "analyze-counterexample",
        "analyze-dirichlet-unreachable",
        "capacity-union-one-sided",
        "one-sided-union-one-sided",
    ],
)
def test_no_scipy_loaded(argv, code, dirichlet_scenario):
    argv = [dirichlet_scenario if arg == DIRICHLET else arg for arg in argv]
    assert run_child(*argv) == [code, []]
