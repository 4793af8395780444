import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_error_vs_blocklength_writes_csv(tmp_path, capsys):
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
