import csv
import importlib.util
from pathlib import Path

import ccdec
import ccdec.cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def no_capacity(*args, **kwargs):
    raise AssertionError("compound_capacity ran for a scenario with a declared input")


def test_error_vs_blocklength_writes_csv(tmp_path, capsys, monkeypatch):
    # the default scenario declares its input, so no point may solve for capacity
    for module in (ccdec, ccdec.cli):
        monkeypatch.setattr(module, "compound_capacity", no_capacity)
    out = tmp_path / "errors.csv"
    script = load_script("error_vs_blocklength")
    assert script.main(["--lengths", "8", "--trials", "5", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["decoder", "n", "channel", "error", "wilson_low", "wilson_high"]
    # gmap, glrt and mmi on the two channels of the default scenario
    assert sorted((r[0], r[2]) for r in rows[1:]) == [
        (d, c) for d in ("glrt", "gmap", "mmi") for c in ("0", "1")
    ]


def test_error_vs_blocklength_failed_point_exits_nonzero(tmp_path, capsys):
    # n = 64 at rate 1 needs 2^64 codewords, past the codebook cap
    out = tmp_path / "errors.csv"
    script = load_script("error_vs_blocklength")
    argv = ["--lengths", "8,64", "--rate", "1", "--decoders", "mmi", "--trials", "2", "--method", "codebook"]
    assert script.main([*argv, "--out", str(out)]) == 2
    assert "mmi n=64: ccdec simulate exited 2" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [(r[0], r[1]) for r in rows[1:]] == [("mmi", "8"), ("mmi", "8")]
