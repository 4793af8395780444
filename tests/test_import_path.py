"""Which commands load scipy, each checked in a fresh interpreter.

scipy is imported only where a linear program is solved: by
``compound_capacity`` and by the projection's infeasible-threshold LP.  The
test process itself has imported scipy through other test modules, so every
check runs in a subprocess.
"""

import json
import os
import subprocess
import sys

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


@pytest.mark.parametrize(
    "argv, code",
    [
        ((), None),
        (("vn", "counterexample"), 0),
        (SIM + ("--method", "codebook"), 0),
        (SIM + ("--method", "ensemble"), 0),
    ],
    ids=["import", "vn-counterexample", "simulate-codebook", "simulate-ensemble"],
)
def test_no_scipy_loaded(argv, code):
    assert run_child(*argv) == [code, []]


def test_analyze_loads_the_lp_solver_on_demand():
    code, modules = run_child("analyze", "--scenario", "builtin:bsc-quarter")
    assert code == 0
    assert "scipy.optimize" in modules
