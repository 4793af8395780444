"""Scenario files and analysis reports.

Scenarios are human-editable JSON (``schema_version: 1``):

.. code-block:: json

    {
      "schema_version": 1,
      "name": "two mirrored channels",
      "channels": [[[0.75, 0.25], [0.25, 0.75]],
                   [[0.25, 0.75], [0.75, 0.25]]],
      "components": [[0], [1]],
      "input": [0.5, 0.5],
      "vn": {
        "noise": [0.5, 0.5],
        "directions": [[[-2.0, 2.0], [-7.0, 7.0]]],
        "components": [[0]],
        "epsilons": [0.1, 0.05, 0.025]
      },
      "simulation": {"n": 32, "rate_bits": 0.25, "trials": 500,
                     "seed": 1, "decoder": "gmap", "method": "codebook"}
    }

The top-level keys are those of the example; only ``channels`` or ``vn`` is
required.  Channel rows whose sums are within 1e-9 of one are renormalized;
anything worse is rejected with the offending field path.  The optional
``vn`` block carries a pure-noise distribution and perturbation directions
(row averages repaired the same way).  Channel shapes and the ``components``
partitions are checked by ``CompoundSet`` and ``DirectionSet`` themselves;
their errors are reported at the block's path.  Unknown keys are rejected at
every level.  Reports serialize deterministically: sorted keys, floats at 12
significant digits, every numeric entry tagged with its unit.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .probability import Channel, Distribution
from .rates import DECODERS, CompoundSet
from .simulate import METHODS, check_parameter
from .vn import Direction, DirectionSet, checked_epsilons, embed

ROW_SUM_REPAIR_TOL = 1e-9


class ScenarioError(ValueError):
    """Scenario validation failure, carrying the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass
class SimulationConfig:
    block_length: int = 32
    rate_bits: float = 0.25
    trials: int = 500
    seed: int = 1
    decoder: str = "gmap"
    method: str = "codebook"


@dataclass
class VnBlock:
    directions: DirectionSet
    epsilons: tuple[float, ...]


@dataclass
class Scenario:
    name: str
    channels: CompoundSet | None
    input_dist: Distribution | None
    vn: VnBlock | None
    simulation: SimulationConfig | None
    schema_version: int = 1


def _object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(path, "expected a JSON object")
    return raw


def _nonempty_list(raw, path: str, what: str) -> list:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ScenarioError(path, f"need a list of at least one {what}")
    return raw


def _reject_unknown(raw: dict, fields, prefix: str) -> None:
    for key in raw:
        if key not in fields:
            raise ScenarioError(f"{prefix}{key}", "unknown field")


def _checked(path: str, make, *args):
    """``make(*args)``, with a ``ValueError`` from the library's own checks reported at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _converted(key: str, value, default):
    """``value`` as the type of ``default``; a bool, or a fraction for an integer, is rejected, not truncated."""
    kind = type(default)
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _need(raw: dict, key: str, path: str):
    if key not in raw:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return raw[key]


def _as_matrix(raw, path: str) -> np.ndarray:
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"not a numeric matrix: {exc}") from None
    if m.ndim != 2:
        raise ScenarioError(path, f"expected a matrix, got array of rank {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ScenarioError(path, "non-finite entry")
    return m


def _parse_channel(raw, path: str) -> Channel:
    m = _as_matrix(raw, path)
    if m.min() < 0.0:
        a, b = np.unravel_index(int(np.argmin(m)), m.shape)
        raise ScenarioError(f"{path}[{a}][{b}]", f"negative probability {m[a, b]}")
    sums = m.sum(axis=1)
    for a, s in enumerate(sums):
        if abs(s - 1.0) > ROW_SUM_REPAIR_TOL:
            raise ScenarioError(f"{path}[{a}]", f"row sums to {s}, not 1")
    return Channel(m / sums[:, None])


def _parse_distribution(raw, path: str) -> Distribution:
    try:
        p = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(path, f"not a numeric vector: {exc}") from None
    if p.ndim != 1:
        raise ScenarioError(path, "expected a probability vector")
    if p.min(initial=0.0) < 0.0:
        raise ScenarioError(path, f"negative probability {p.min()}")
    total = p.sum()
    if abs(total - 1.0) > ROW_SUM_REPAIR_TOL:
        raise ScenarioError(path, f"entries sum to {total}, not 1")
    return Distribution(p / total)


def _parse_vn(raw, path: str) -> VnBlock:
    raw = _object(raw, path)
    _reject_unknown(raw, ("noise", "directions", "components", "epsilons"), f"{path}.")
    noise = _parse_distribution(_need(raw, "noise", path), f"{path}.noise")
    raw_dirs = _nonempty_list(_need(raw, "directions", path), f"{path}.directions", "direction")
    dirs = []
    for k, rd in enumerate(raw_dirs):
        m = _as_matrix(rd, f"{path}.directions[{k}]")
        if m.shape[1] != noise.size:
            raise ScenarioError(
                f"{path}.directions[{k}]", "column count must match the noise alphabet"
            )
        row_avg = m @ noise.probs
        if np.abs(row_avg).max() > ROW_SUM_REPAIR_TOL:
            raise ScenarioError(
                f"{path}.directions[{k}]",
                f"noise-weighted row average {np.abs(row_avg).max():.3e} exceeds {ROW_SUM_REPAIR_TOL}",
            )
        dirs.append(Direction(m - row_avg[:, None], noise))
    dset = _checked(f"{path}.directions", DirectionSet, tuple(dirs))
    if "components" in raw:
        comps = _nonempty_list(raw["components"], f"{path}.components", "block")
        dset = _checked(f"{path}.components", DirectionSet, dset.directions, comps)
    try:
        eps = tuple(float(e) for e in raw.get("epsilons", (0.1, 0.05, 0.025)))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}.epsilons", f"expected a list of numbers: {exc}") from None
    eps = _checked(f"{path}.epsilons", checked_epsilons, eps, "epsilons")
    return VnBlock(directions=dset, epsilons=eps)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    raw = _object(raw, "$")
    version = raw.get("schema_version", 1)
    if version != 1:
        raise ScenarioError("schema_version", f"unsupported version {version}")
    _reject_unknown(raw, ("schema_version", "name", "channels", "components", "input", "vn", "simulation"), "")

    channels = None
    if "channels" in raw:
        raw_ch = _nonempty_list(raw["channels"], "channels", "channel")
        parsed = tuple(_parse_channel(c, f"channels[{k}]") for k, c in enumerate(raw_ch))
        # Members alone first, so that a shape error and a partition error each get their key.
        channels = _checked("channels", CompoundSet, parsed)
        if "components" in raw:
            comps = _nonempty_list(raw["components"], "components", "block")
            channels = _checked("components", CompoundSet, parsed, comps)

    vn = _parse_vn(raw["vn"], "vn") if "vn" in raw else None
    if channels is None and vn is None:
        raise ScenarioError("channels", "scenario needs channels or a vn block")

    input_dist = None
    if "input" in raw:
        input_dist = _parse_distribution(raw["input"], "input")
        nx = channels.channels[0].nx if channels else vn.directions.directions[0].nx
        if input_dist.size != nx:
            raise ScenarioError("input", f"size {input_dist.size} != input alphabet {nx}")

    sim = None
    if "simulation" in raw:
        s = _object(raw["simulation"], "simulation")
        # Each given value is converted to the type of its field's default; the
        # scenario spells block_length as "n".
        fields = {"n" if f.name == "block_length" else f.name: f for f in dataclasses.fields(SimulationConfig)}
        _reject_unknown(s, fields, "simulation.")
        try:
            sim = SimulationConfig(**{fields[k].name: _converted(k, v, fields[k].default) for k, v in s.items()})
        except (TypeError, ValueError) as exc:
            raise ScenarioError("simulation", str(exc)) from None
        if sim.decoder not in DECODERS:
            raise ScenarioError("simulation.decoder", f"unknown decoder {sim.decoder!r}")
        if sim.method not in METHODS:
            raise ScenarioError("simulation.method", f"unknown method {sim.method!r}")
        for key in s:
            _checked(f"simulation.{key}", check_parameter, fields[key].name, getattr(sim, fields[key].name))

    return Scenario(
        name=str(raw.get("name", name)),
        channels=channels,
        input_dist=input_dist,
        vn=vn,
        simulation=sim,
        schema_version=version,
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_DIRECTIONS = (
    ((-2.0, 2.0), (-7.0, 7.0)),
    ((2.0, -2.0), (0.0, 0.0)),
    ((-1.0, 1.0), (1.0, -1.0)),
)
COUNTEREXAMPLE_EPS = 0.05


def _builtin_counterexample() -> dict:
    noise = Distribution(np.array([0.5, 0.5]))
    dirs = [Direction(np.array(v), noise) for v in COUNTEREXAMPLE_DIRECTIONS]
    channels = [embed(d, COUNTEREXAMPLE_EPS).matrix.tolist() for d in dirs]
    return {
        "schema_version": 1,
        "name": "counterexample",
        "channels": channels,
        "components": [[0, 1], [2]],
        "input": [0.5, 0.5],
        "vn": {
            "noise": [0.5, 0.5],
            "directions": [list(map(list, v)) for v in COUNTEREXAMPLE_DIRECTIONS],
            "components": [[0, 1], [2]],
            "epsilons": [0.1, 0.05, 0.025],
        },
        "simulation": {
            "n": 64,
            "rate_bits": 0.008,
            "trials": 1000,
            "seed": 7,
            "decoder": "gmap",
            "method": "ensemble",
        },
    }


def _builtin_bsc_quarter() -> dict:
    return {
        "schema_version": 1,
        "name": "bsc-quarter",
        "channels": [
            [[0.75, 0.25], [0.25, 0.75]],
            [[0.25, 0.75], [0.75, 0.25]],
        ],
        "components": [[0], [1]],
        "input": [0.5, 0.5],
        "simulation": {
            "n": 32,
            "rate_bits": 0.15,
            "trials": 500,
            "seed": 11,
            "decoder": "gmap",
            "method": "codebook",
        },
    }


def _builtin_union_one_sided() -> dict:
    crossovers_a = [0.10, 0.15, 0.20]
    crossovers_b = [0.85, 0.90]
    channels = [
        [[1.0 - q, q], [q, 1.0 - q]] for q in crossovers_a + crossovers_b
    ]
    return {
        "schema_version": 1,
        "name": "union-one-sided",
        "channels": channels,
        "components": [[0, 1, 2], [3, 4]],
        "input": [0.5, 0.5],
        "simulation": {
            "n": 32,
            "rate_bits": 0.2,
            "trials": 500,
            "seed": 3,
            "decoder": "gmap",
            "method": "codebook",
        },
    }


BUILTIN_SCENARIOS = {
    "counterexample": _builtin_counterexample,
    "bsc-quarter": _builtin_bsc_quarter,
    "union-one-sided": _builtin_union_one_sided,
}


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a JSON file or a ``builtin:<name>`` reference."""
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        if name not in BUILTIN_SCENARIOS:
            raise ScenarioError("$", f"unknown builtin scenario {name!r}; have {sorted(BUILTIN_SCENARIOS)}")
        return scenario_from_dict(BUILTIN_SCENARIOS[name](), name=name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("$", f"no such file: {path}") from None
    except OSError as exc:
        raise ScenarioError("$", f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(raw, name=path)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ReportEntry:
    section: str
    key: str
    value: float | int | str | bool
    unit: str = ""


@dataclass
class Report:
    """Flat key/value results grouped into sections, every number unit-tagged."""

    meta: dict = field(default_factory=dict)
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, section: str, key: str, value, unit: str = "") -> None:
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        self.entries.append(ReportEntry(section, key, value, unit))

    def get(self, section: str, key: str):
        for e in self.entries:
            if e.section == section and e.key == key:
                return e.value
        raise KeyError(f"{section}/{key}")

    def to_dict(self) -> dict:
        sections: dict = {}
        for e in sorted(self.entries, key=lambda e: (e.section, e.key)):
            sections.setdefault(e.section, {})[e.key] = {
                "value": _stable(e.value),
                "unit": e.unit,
            }
        return {"meta": {k: _stable(v) for k, v in sorted(self.meta.items())}, "results": sections}


def _stable(v):
    """Round floats to 12 significant digits so serialization is bit-stable."""
    if isinstance(v, bool) or not isinstance(v, float):
        return v
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return float(f"{v:.12g}")


def render_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value", "unit"])
        for e in sorted(report.entries, key=lambda e: (e.section, e.key)):
            writer.writerow([e.section, e.key, _stable(e.value), e.unit])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: Report, path: str, fmt: str = "json") -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_report(report, fmt))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str) -> Report:
    """Parse a JSON report back into a Report (round-trip helper)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    rep = Report(meta=dict(raw.get("meta", {})))
    for section, keys in raw.get("results", {}).items():
        for key, cell in keys.items():
            value = cell["value"]
            if value in ("inf", "-inf", "nan"):
                value = float(value)
            rep.add(section, key, value, cell.get("unit", ""))
    return rep
