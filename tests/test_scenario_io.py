import dataclasses
import json
import math

import numpy as np
import pytest

from ccdec import (
    Report,
    ScenarioError,
    load_scenario,
    read_report,
    render_report,
    scenario_from_dict,
    write_report,
)
from ccdec.scenario import BUILTIN_SCENARIOS, COUNTEREXAMPLE_DIRECTIONS, SimulationConfig

MINIMAL = {
    "schema_version": 1,
    "channels": [[[0.9, 0.1], [0.2, 0.8]]],
}
VN_ONE = {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [0.0, 0.0]]]}


class TestLoadScenario:
    def test_minimal_singleton_parses(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(MINIMAL))
        sc = load_scenario(str(path))
        assert sc.channels.size == 1
        assert np.allclose(sc.channels.channels[0].matrix, [[0.9, 0.1], [0.2, 0.8]])

    def test_bad_row_sum_rejected_with_field_path(self, tmp_path):
        raw = {"channels": [[[0.8, 0.1], [0.2, 0.8]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert "channels[0][0]" in str(exc.value)

    def test_row_sum_repair_within_tolerance(self):
        raw = {"channels": [[[0.9 + 5e-10, 0.1], [0.2, 0.8]]]}
        sc = scenario_from_dict(raw)
        assert abs(sc.channels.channels[0].matrix[0].sum() - 1.0) <= 1e-15

    def test_negative_entry_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict({"channels": [[[1.1, -0.1], [0.5, 0.5]]]})
        assert "channels[0][0][1]" in str(exc.value)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/no/such/file.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert "line" in str(exc.value)

    def test_bad_partition_rejected(self):
        raw = dict(MINIMAL, channels=[MINIMAL["channels"][0]] * 2, components=[[0]])
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert "components" in str(exc.value)

    def test_input_size_checked(self):
        raw = dict(MINIMAL, input=[0.2, 0.3, 0.5])
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_vn_direction_row_average_repaired(self):
        raw = {
            "channels": MINIMAL["channels"],
            "vn": {
                "noise": [0.5, 0.5],
                "directions": [[[1.0 + 1e-10, -1.0], [0.0, 0.0]]],
            },
        }
        sc = scenario_from_dict(raw)
        d = sc.vn.directions.directions[0]
        assert np.abs(d.values @ sc.vn.noise.probs).max() <= 1e-15

    def test_vn_direction_row_average_too_far_rejected(self):
        raw = {
            "channels": MINIMAL["channels"],
            "vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -0.9], [0.0, 0.0]]]},
        }
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert "directions[0]" in str(exc.value)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "0"])
    def test_non_finite_or_non_positive_epsilon_rejected(self, tmp_path, bad):
        # Python's json reads NaN and Infinity; NaN slips past a plain ``e <= 0``.
        path = tmp_path / "vn.json"
        path.write_text(
            '{"vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [0.0, 0.0]]], '
            f'"epsilons": [{bad}, 0.05]}}}}'
        )
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert exc.value.field_path == "vn.epsilons"
        assert "epsilons must be finite and positive" in str(exc.value)

    @pytest.mark.parametrize(
        "extra, field_path",
        [
            ({"simulation": 5}, "simulation"),
            ({"channels": 5}, "channels"),
            ({"vn": 5}, "vn"),
            ({"input": ["a", "b"]}, "input"),
            (
                {"vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [0.0, 0.0]]], "epsilons": ["x"]}},
                "vn.epsilons",
            ),
            ({"components": []}, "components"),
            ({"components": 5}, "components"),
            ({"components": None}, "components"),
            ({"components": [5]}, "components"),
            ({"components": [["a"]]}, "components"),
            ({"vn": dict(VN_ONE, components=[])}, "vn.components"),
            ({"vn": dict(VN_ONE, components=[[1]])}, "vn.components"),
            (
                {"vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0]], [[1.0, -1.0], [0.0, 0.0]]]}},
                "vn.directions",
            ),
        ],
    )
    def test_wrong_field_type_rejected_with_field_path(self, extra, field_path):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(dict(MINIMAL, **extra))
        assert exc.value.field_path == field_path

    @pytest.mark.parametrize(
        "components",
        [[[0.9], [1]], [[0], [1.0]], [[True], [0]], [[0], [True]], [["0"], [1]]],
        ids=["fraction", "integral-float", "true", "true-as-one", "string"],
    )
    def test_non_integer_component_index_rejected(self, components):
        raw = dict(MINIMAL, channels=[MINIMAL["channels"][0]] * 2, components=components)
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == "components: CompoundSet: components must partition the indices 0..1"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {"channels": [[[0.9, 0.1], [0.2, 0.8]], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]]},
                "channels: CompoundSet: channel 1 has shape (3, 2), expected (2, 2)",
            ),
            ({"components": [[0], [0]]}, "components: CompoundSet: components must partition the indices 0..0"),
            (
                {"channels": MINIMAL["channels"] * 2, "components": [[0, 1], []]},
                "components: CompoundSet: components must partition the indices 0..1",
            ),
            (
                {"vn": dict(VN_ONE, directions=VN_ONE["directions"] * 2, components=[[0, 1], []])},
                "vn.components: DirectionSet: components must partition the indices 0..1",
            ),
        ],
    )
    def test_library_check_reported_at_its_key(self, extra, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(dict(MINIMAL, **extra))
        assert str(exc.value) == message

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            load_scenario("builtin:nope")

    def test_unknown_decoder_rejected(self):
        raw = dict(MINIMAL, simulation={"decoder": "turbo"})
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)


class TestSimulationBlock:
    def test_empty_block_gives_the_defaults(self):
        sim = scenario_from_dict(dict(MINIMAL, simulation={})).simulation
        assert sim == SimulationConfig()

    def test_partial_block_keeps_the_other_defaults(self):
        sim = scenario_from_dict(dict(MINIMAL, simulation={"n": 8, "decoder": "mmi"})).simulation
        assert sim == dataclasses.replace(SimulationConfig(), block_length=8, decoder="mmi")

    def test_values_are_converted(self):
        sim = scenario_from_dict(dict(MINIMAL, simulation={"rate_bits": 1, "trials": "40", "seed": 2.0})).simulation
        assert (sim.rate_bits, sim.trials, sim.seed) == (1.0, 40, 2)
        assert (type(sim.rate_bits), type(sim.trials), type(sim.seed)) == (float, int, int)

    @pytest.mark.parametrize(
        "block, raw_block, key",
        [
            ("simulation", {"trails": 5, "n": 8}, "trails"),
            ("simulation", {"block_length": 8}, "block_length"),
            ("vn", {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [0.0, 0.0]]], "epsilon": [0.1]}, "epsilon"),
            ("simulation", {"fresh_codebook": False}, "fresh_codebook"),
            ("simulation", {"max_codewords": 8}, "max_codewords"),
            # block None: the keys sit at the top level
            (None, {"inputs": [0.3, 0.7], "compnents": [[0]]}, "inputs"),
            (None, {"compnents": [[0]]}, "compnents"),
            (None, {"input_alphabet": 2}, "input_alphabet"),
            (None, {"output_alphabet": 2}, "output_alphabet"),
        ],
    )
    def test_unknown_field_rejected(self, block, raw_block, key):
        path = f"{block}.{key}" if block else key
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(dict(MINIMAL, **({block: raw_block} if block else raw_block)))
        assert exc.value.field_path == path
        assert str(exc.value) == f"{path}: unknown field"

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"trials": 2.7}, "simulation: trials must be int, got 2.7"),
            ({"n": True}, "simulation: n must be int, got True"),
            ({"seed": False}, "simulation: seed must be int, got False"),
            ({"rate_bits": True}, "simulation: rate_bits must be float, got True"),
            ({"trials": math.inf}, "simulation: trials must be int, got inf"),
        ],
    )
    def test_lossy_conversion_rejected(self, block, message):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(dict(MINIMAL, simulation=block))
        assert str(exc.value) == message

    def test_conversion_error_names_the_block(self):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(dict(MINIMAL, simulation={"trials": "many"}))
        assert str(exc.value) == "simulation: invalid literal for int() with base 10: 'many'"


class TestBuiltins:
    def test_counterexample_matrices_pinned(self):
        sc = load_scenario("builtin:counterexample")
        dirs = sc.vn.directions.directions
        assert np.allclose(dirs[0].values, [[-2, 2], [-7, 7]])
        assert np.allclose(dirs[1].values, [[2, -2], [0, 0]])
        assert np.allclose(dirs[2].values, [[-1, 1], [1, -1]])
        assert np.allclose(sc.vn.noise.probs, [0.5, 0.5])
        assert sc.vn.directions.components == ((0, 1), (2,))
        # channels are the embedded directions at the bundled epsilon
        assert np.allclose(sc.channels.channels[0].matrix, [[0.45, 0.55], [0.325, 0.675]])

    def test_all_builtins_parse(self):
        for name in BUILTIN_SCENARIOS:
            sc = load_scenario(f"builtin:{name}")
            assert sc.name == name

    def test_bsc_quarter_channels(self):
        sc = load_scenario("builtin:bsc-quarter")
        assert np.allclose(sc.channels.channels[0].matrix, [[0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(sc.channels.channels[1].matrix, [[0.25, 0.75], [0.75, 0.25]])


class TestReports:
    def make_report(self):
        rep = Report(meta={"command": "test", "units": "nats"})
        rep.add("alpha", "value", 0.123456789012345, "nats")
        rep.add("alpha", "count", 7)
        rep.add("beta", "flag", True)
        rep.add("beta", "label", "x,y")
        rep.add("beta", "infinite", math.inf, "nats")
        return rep

    def test_json_round_trip(self, tmp_path):
        rep = self.make_report()
        path = tmp_path / "r.json"
        write_report(rep, str(path), "json")
        back = read_report(str(path))
        assert abs(back.get("alpha", "value") - 0.123456789012345) <= 1e-10
        assert back.get("alpha", "count") == 7
        assert back.get("beta", "flag") is True
        assert back.get("beta", "infinite") == math.inf

    def test_deterministic_bytes(self, tmp_path):
        rep = self.make_report()
        a = render_report(rep, "json")
        b = render_report(self.make_report(), "json")
        assert a == b
        assert render_report(rep, "csv") == render_report(self.make_report(), "csv")

    def test_csv_shape(self):
        text = render_report(self.make_report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "section,key,value,unit"
        assert len(lines) == 6
        # rows sorted by section then key
        assert lines[1].startswith("alpha,count")

    def test_empty_report_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        write_report(Report(), str(path), "json")
        back = read_report(str(path))
        assert back.entries == []

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(Report(), "xml")

    def test_twelve_significant_digits(self):
        rep = Report()
        rep.add("s", "v", 1.0 / 3.0, "nats")
        text = render_report(rep, "json")
        assert "0.333333333333" in text
