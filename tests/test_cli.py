import collections
import contextlib
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import ccdec.cli
import ccdec.rates
from ccdec.cli import main
from ccdec.probability import mutual_information
from ccdec.projection import INFEASIBLE_SLACK, kl_projections
from ccdec.rates import SetAnalysis, decoder_rates, family
from ccdec.scenario import BUILTIN_SCENARIOS, _stable, load_scenario

LOG2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def results(out):
    return json.loads(out)["results"]


class TestVnCounterexample:
    def test_pinned_table(self, capsys):
        code, out = run(capsys, "vn", "counterexample")
        assert code == 0
        rates = {k: v["value"] for k, v in results(out)["rates"].items()}
        assert rates["capacity"] == pytest.approx(1.0, abs=1e-9)
        assert rates["glrt_rate"] == pytest.approx(0.0, abs=1e-9)
        assert rates["gmap_rate"] == pytest.approx(6.25, abs=1e-9)
        geom = {k: v["value"] for k, v in results(out)["geometry"].items()}
        assert geom["centered_norm_sq[0]"] == pytest.approx(6.25, abs=1e-9)
        assert geom["inner[0,2]"] == pytest.approx(-2.5, abs=1e-9)


class TestAnalyze:
    def test_singleton_bsc(self, capsys, tmp_path):
        scenario = tmp_path / "one.json"
        scenario.write_text(json.dumps({"channels": [[[0.9, 0.1], [0.1, 0.9]]]}))
        code, out = run(capsys, "analyze", "--scenario", str(scenario), "--bits")
        assert code == 0
        cap = results(out)["capacity"]["capacity"]
        assert cap["unit"] == "bits"
        assert cap["value"] == pytest.approx(0.531004, abs=1e-6)

    def test_bsc_quarter_pair(self, capsys):
        code, out = run(capsys, "analyze", "--scenario", "builtin:bsc-quarter", "--bits")
        assert code == 0
        res = results(out)
        assert res["capacity"]["capacity"]["value"] == pytest.approx(0.188722, abs=1e-6)
        assert res["one_sided"]["whole_set"]["value"] is False
        assert res["one_sided"]["cover_size"]["value"] == 2

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channels": [[[0.8, 0.1], [0.5, 0.5]]]}))
        code, _ = run(capsys, "analyze", "--scenario", str(bad))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "analyze", "--scenario", "/does/not/exist.json")
        assert code == 2

    def test_directory_scenario_exits_2(self, capsys, tmp_path):
        code = main(["analyze", "--scenario", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: $: cannot read {tmp_path}: Is a directory\n"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        code = main(["capacity", "--scenario", "builtin:bsc-quarter", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write report to {out}: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_bits_flag_rescales_only_nats(self, capsys):
        code_n, out_n = run(capsys, "analyze", "--scenario", "builtin:bsc-quarter")
        code_b, out_b = run(capsys, "analyze", "--scenario", "builtin:bsc-quarter", "--bits")
        v_nats = results(out_n)["capacity"]["capacity"]["value"]
        v_bits = results(out_b)["capacity"]["capacity"]["value"]
        assert v_bits == pytest.approx(v_nats / LOG2, rel=1e-9)
        # non-rate entries unchanged
        assert (
            results(out_n)["one_sided"]["cover_size"]["value"]
            == results(out_b)["one_sided"]["cover_size"]["value"]
        )


class TestFlagSlots:
    """Each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("capacity", "--scenario", "builtin:bsc-quarter", "--seed", "5"),
            ("one-sided", "--scenario", "builtin:bsc-quarter", "--bits"),
            ("simulate", "--scenario", "builtin:bsc-quarter", "--bits"),
            ("vn", "blind", "--bits"),
            ("vn", "sweep", "--tol", "1e-3"),
        ],
        ids=["capacity --seed", "one-sided --bits", "simulate --bits", "vn blind --bits", "vn sweep --tol"],
    )
    def test_unread_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCapacityAndOneSided:
    def test_unreachable_tolerance_exits_3(self, capsys, tmp_path):
        # asymmetric instance: the certificate gap is tiny but not zero, so an
        # absurd tolerance cannot be certified
        scenario = tmp_path / "asym.json"
        scenario.write_text(
            json.dumps({"channels": [[[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.3, 0.45]]]})
        )
        code, out = run(capsys, "capacity", "--scenario", str(scenario), "--tol", "1e-15")
        assert code == 3
        assert results(out)["capacity"]["converged"]["value"] is False

    def test_capacity_union_demo(self, capsys):
        code, out = run(capsys, "capacity", "--scenario", "builtin:union-one-sided", "--bits")
        assert code == 0
        assert results(out)["capacity"]["capacity"]["value"] == pytest.approx(
            1.0 - (-(0.2 * math.log2(0.2)) - 0.8 * math.log2(0.8)), abs=1e-6
        )

    def test_one_sided_union_demo(self, capsys):
        code, out = run(capsys, "one-sided", "--scenario", "builtin:union-one-sided")
        assert code == 0
        res = results(out)["one_sided"]
        assert res["whole_set"]["value"] is False
        assert res["cover_size"]["value"] == 2
        assert res["cover[0]"]["value"] == "0,1,2"
        assert res["cover[1]"]["value"] == "3,4"

    def test_one_sided_reads_one_analysis(self, capsys, monkeypatch):
        # the verdict and the cover read one record, whose one divergence
        # table holds each I(P, W_k) once; no divergence is taken pair by pair
        scenario = load_scenario("builtin:union-one-sided")
        cset = scenario.channels
        verdict = ccdec.rates.is_one_sided(cset, scenario.input_dist)
        cover = ccdec.rates.one_sided_cover(cset, scenario.input_dist)
        calls = collections.Counter()

        def counted(name):
            fn = getattr(ccdec.rates, name)

            def spy(*args):
                calls[name] += 1
                return fn(*args)

            return spy

        for name in ("mutual_information", "kl_divergence", "kl_table"):
            monkeypatch.setattr(ccdec.rates, name, counted(name))
        code, out = run(capsys, "one-sided", "--scenario", "builtin:union-one-sided")
        assert code == 0
        assert calls == {"kl_table": 1}
        res = results(out)["one_sided"]
        assert res["reason"]["value"] == verdict.reason
        assert res["witness"]["value"] == verdict.witness
        assert [res[f"cover[{b}]"]["value"] for b in range(res["cover_size"]["value"])] == [
            ",".join(map(str, blk)) for blk in cover
        ]


class TestUnconvergedCapacityInput:
    """one-sided and simulate exit 3 when their input comes from an unconverged capacity run."""

    COMMANDS = {
        "one-sided": ("one-sided",),
        "simulate": ("simulate", "--trials", "20", "--n", "16", "--rate", "0.1"),
    }

    @pytest.fixture(autouse=True)
    def unconverged(self, monkeypatch):
        real = ccdec.cli.compound_capacity
        monkeypatch.setattr(
            ccdec.cli,
            "compound_capacity",
            lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), converged=False),
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_capacity_input_exits_3(self, capsys, tmp_path, command):
        scenario = tmp_path / "pair.json"
        scenario.write_text(json.dumps({"channels": [[[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.1, 0.9]]]}))
        code, out = run(capsys, *self.COMMANDS[command], "--scenario", str(scenario))
        assert code == 3
        assert results(out)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_declared_input_exits_0(self, capsys, command):
        code, _ = run(capsys, *self.COMMANDS[command], "--scenario", "builtin:bsc-quarter")
        assert code == 0


class TestDeclaredInputSkipsCapacity:
    @pytest.mark.parametrize("command", sorted(TestUnconvergedCapacityInput.COMMANDS))
    def test_capacity_not_run(self, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("compound_capacity called despite a declared input")

        monkeypatch.setattr(ccdec.cli, "compound_capacity", refuse)
        code, _ = run(capsys, *TestUnconvergedCapacityInput.COMMANDS[command], "--scenario", "builtin:bsc-quarter")
        assert code == 0


# Seeded sets of Dirichlet(1) 3x4 channels at the uniform input: (generator
# seed, channel count, declared components).  "rand12" declares its even and
# odd channels as components; on "dirichlet1001" the cover puts every channel
# in a block of its own.
SEEDED_SETS = {
    "rand12": (9, 12, [list(range(0, 12, 2)), list(range(1, 12, 2))]),
    "dirichlet1001": (1001, 8, None),
}


@pytest.fixture(scope="module", params=sorted(SEEDED_SETS))
def traced_analyze(request, tmp_path_factory):
    """``analyze`` on a seeded set with ``rates.kl_projections`` wrapped: the results, the scenario and every projection."""
    seed, count, components = SEEDED_SETS[request.param]
    rng = np.random.default_rng(seed)
    doc = {"channels": [rng.dirichlet(np.ones(4), size=3).tolist() for _ in range(count)], "input": [1 / 3] * 3}
    if components is not None:
        doc["components"] = components
    path = tmp_path_factory.mktemp(request.param) / "set.json"
    path.write_text(json.dumps(doc))
    made = []

    def spy(problems):
        solved = kl_projections(problems)
        made.extend(solved)
        return solved

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(ccdec.rates, "kl_projections", spy)
        code = main(["analyze", "--scenario", str(path)])
    assert code == 0
    return results(out.getvalue()), load_scenario(str(path)), made


class TestAnalyzeDiagnostics:
    def test_totals_count_every_projection(self, traced_analyze):
        res, _, made = traced_analyze
        diag = {key: entry["value"] for key, entry in res["diagnostics"].items()}
        assert diag == {
            "projections": len(made),
            "inactive": sum(r.feasible and r.fit_iterations == 0 for r in made),
            "infeasible": sum(not r.feasible for r in made),
            "infeasible_by_lp": sum(not r.feasible and r.fit_iterations == 0 for r in made),
            "fit_iterations": sum(r.fit_iterations for r in made),
            "max_fit_iterations": max(r.fit_iterations for r in made),
            "bisection_steps": sum(r.bisection_steps for r in made),
            "max_marginal_residual": _stable(float(max(r.marginal_residual for r in made))),
        }
        assert 0.0 < diag["max_marginal_residual"] <= 1e-10
        assert diag["infeasible"] > 0 and diag["bisection_steps"] > 0

    def test_report_bytes_repeat(self, capsys):
        _, first = run(capsys, "analyze", "--scenario", "builtin:union-one-sided")
        _, second = run(capsys, "analyze", "--scenario", "builtin:union-one-sided")
        assert "diagnostics" in results(first)
        assert first == second


class TestLibraryAgreesWithAnalyze:
    """``decoder_rates`` on a fresh record answers what ``analyze`` reports."""

    @pytest.mark.parametrize("kind", ["ml", "map", "glrt", "gmap"])
    def test_decoder_rates_match_the_report(self, traced_analyze, kind):
        res, scenario, _ = traced_analyze
        analysis = SetAnalysis(scenario.channels, scenario.input_dist)
        rep = decoder_rates(analysis, family(analysis, kind))
        reported = res[f"rates_{kind}"]
        assert [reported[f"channel[{k}]"]["value"] for k in range(len(rep.rates))] == [
            _stable(float(r)) for r in rep.rates
        ]
        assert reported["metric_channels"]["value"] == ",".join(map(str, rep.decoder.channels))


class TestAnalyzeComputesEachQuantityOnce:
    """One analysis record serves the verdicts, the cover and the four families."""

    @pytest.mark.parametrize("name, projections", [("union-one-sided", 24), ("counterexample", 15), ("bsc-quarter", 8)])
    def test_no_projection_or_information_repeats(self, capsys, monkeypatch, name, projections):
        keys, informations = [], []

        def spy_projections(problems):
            # The product fixes the channel's marginals; with the metric and
            # the threshold it fixes the projection.
            for base, row, col, d, threshold in problems:
                keys.append((base.matrix.tobytes(), np.asarray(d).tobytes(), threshold))
            return kl_projections(problems)

        def spy_information(*args):
            informations.append(args)
            return mutual_information(*args)

        monkeypatch.setattr(ccdec.rates, "kl_projections", spy_projections)
        monkeypatch.setattr(ccdec.rates, "mutual_information", spy_information)
        code, _ = run(capsys, "analyze", "--scenario", f"builtin:{name}")
        assert code == 0
        assert len(keys) == projections
        assert len(set(keys)) == len(keys)
        assert len(informations) <= len(BUILTIN_SCENARIOS[name]()["channels"])


class TestAnalyzeRatesEveryFamilyInOneBatch:
    """``analyze`` solves the projections of all four families in one ``kl_projections`` call."""

    @pytest.mark.parametrize("name, projections", [("union-one-sided", 24), ("counterexample", 15), ("bsc-quarter", 8)])
    def test_one_call(self, capsys, monkeypatch, name, projections):
        batches = []

        def spy(problems):
            batches.append(len(problems))
            return kl_projections(problems)

        monkeypatch.setattr(ccdec.rates, "kl_projections", spy)
        code, _ = run(capsys, "analyze", "--scenario", f"builtin:{name}")
        assert code == 0
        assert batches == [projections]

    @pytest.mark.parametrize("seed", range(1000, 1006))
    def test_family_rates_match_a_fresh_record(self, capsys, monkeypatch, tmp_path, seed):
        rng = np.random.default_rng(seed)
        scenario = tmp_path / "set.json"
        scenario.write_text(json.dumps({"channels": [rng.dirichlet(np.ones(4), size=3).tolist() for _ in range(8)]}))
        reports = []

        def spy(analysis, decoder):
            rep = decoder_rates(analysis, decoder)
            reports.append((analysis, rep))
            return rep

        monkeypatch.setattr(ccdec.cli, "decoder_rates", spy)
        code, _ = run(capsys, "analyze", "--scenario", str(scenario))
        assert code == 0
        assert [rep.kind for _, rep in reports] == ["ml", "map", "glrt", "gmap"]
        # One family after another on a fresh record: each call solves its own batch.
        fresh = SetAnalysis(reports[0][0].cset, reports[0][0].input_dist)
        for _, rep in reports:
            want = decoder_rates(fresh, family(fresh, rep.kind))
            assert rep.rates.tobytes() == want.rates.tobytes()
            assert np.float64(rep.minimum).tobytes() == np.float64(want.minimum).tobytes()
            assert rep.decoder.channels == want.decoder.channels


class TestUnreachableThreshold:
    """On this seeded set, 42 of the projections at the capacity input have a
    threshold above the transportation-LP maximum (one by 0.18 nats); the LP
    settles each before any fit."""

    def test_settles_as_infeasible_before_any_fit(self, capsys, monkeypatch, tmp_path):
        rng = np.random.default_rng(1002)
        scenario = tmp_path / "dirichlet8.json"
        scenario.write_text(json.dumps({"channels": [rng.dirichlet(np.ones(4), size=3).tolist() for _ in range(8)]}))
        results_seen = []

        def spy(problems):
            solved = kl_projections(problems)
            results_seen.extend(solved)
            return solved

        monkeypatch.setattr(ccdec.rates, "kl_projections", spy)
        code, out = run(capsys, "analyze", "--scenario", str(scenario))
        assert code == 0
        unreachable = [r for r in results_seen if not r.feasible]
        assert len(unreachable) == 42
        for r in unreachable:
            assert r.value == math.inf
            assert r.constraint_gap < -INFEASIBLE_SLACK
            assert r.fit_iterations == 0
        res = results(out)
        for kind in ("ml", "map", "glrt", "gmap"):
            assert math.isfinite(res[f"rates_{kind}"]["minimum"]["value"])


class TestVnSweep:
    def test_gaps_shrink(self, capsys):
        code, out = run(capsys, "vn", "sweep", "--eps", "0.1,0.05,0.025")
        assert code == 0
        res = results(out)
        for kind in ("divergence", "expected_log", "mismatched_rate"):
            assert res[kind]["monotone"]["value"] is True

    def test_inadmissible_eps_exits_2(self, capsys):
        code, _ = run(capsys, "vn", "sweep", "--eps", "0.5")
        assert code == 2

    @pytest.mark.parametrize("eps", ["0", "-0.05", "nan"])
    def test_nonpositive_or_nan_eps_exits_2_naming_eps(self, capsys, eps):
        assert main(["vn", "sweep", "--eps", eps]) == 2
        assert f"error: eps must be finite and positive, got {float(eps)}" in capsys.readouterr().err

    # 2 / eps**2 divides by an underflowed zero (1e-170), overflows to inf
    # (1e-160), or eps**2 itself overflows (1e200); a repeated eps would
    # repeat its rows and collapse its report keys.
    BAD_EPS = [
        ("1e-170", "must keep eps^2 and 2/eps^2 finite and positive, got 1e-170"),
        ("0.1,1e-160", "must keep eps^2 and 2/eps^2 finite and positive, got 1e-160"),
        ("1e200", "must keep eps^2 and 2/eps^2 finite and positive, got 1e+200"),
        ("0.1,0.05,0.1", "must be distinct, got 0.1 twice"),
    ]

    @pytest.mark.parametrize("eps, message", BAD_EPS)
    def test_unscalable_or_repeated_eps_exits_2(self, capsys, eps, message):
        assert main(["vn", "sweep", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: eps {message}\n")

    @pytest.mark.parametrize("eps, message", BAD_EPS)
    def test_unscalable_or_repeated_scenario_epsilons_exit_2(self, capsys, tmp_path, eps, message):
        doc = {"vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [-1.0, 1.0]]], "epsilons": []}}
        doc["vn"]["epsilons"] = [float(e) for e in eps.split(",")]
        scenario = tmp_path / "vn.json"
        scenario.write_text(json.dumps(doc))
        assert main(["vn", "sweep", "--scenario", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: vn.epsilons: epsilons {message}\n")

    @pytest.mark.parametrize("eps", ["0.1,abc", "0.1,", ""])
    def test_non_numeric_eps_exits_2_naming_eps(self, capsys, eps):
        assert main(["vn", "sweep", "--eps", eps]) == 2
        err = capsys.readouterr().err
        assert f"error: eps must be a comma-separated list of numbers, got {eps!r}" in err


class TestVnBlind:
    def test_matched_metrics_reach_capacity(self, capsys):
        code, out = run(capsys, "vn", "blind")
        assert code == 0
        assert results(out)["blind"]["ratio"]["value"] >= 1.0 - 1e-9


class TestSimulate:
    def test_deterministic_report_bytes(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for path in (out_a, out_b):
            code = main(
                [
                    "simulate",
                    "--scenario",
                    "builtin:bsc-quarter",
                    "--trials",
                    "60",
                    "--out",
                    str(path),
                ]
            )
            capsys.readouterr()
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noiseless_sanity(self, capsys, tmp_path):
        scenario = tmp_path / "clean.json"
        scenario.write_text(
            json.dumps(
                {
                    "channels": [[[0.999, 0.001], [0.001, 0.999]]],
                    "simulation": {"n": 24, "rate_bits": 0.1, "trials": 80, "seed": 5, "decoder": "ml"},
                }
            )
        )
        code, out = run(capsys, "simulate", "--scenario", str(scenario))
        assert code == 0
        assert results(out)["channel[0]"]["errors"]["value"] <= 1

    def test_codebook_block_length_past_exact_float32_counts_exits_2(self, capsys):
        # M = 2 codewords pass the cap; the bound is checked before the first block's (2, n) buffers exist
        tracemalloc.start()
        try:
            code = main(
                [
                    "simulate", "--scenario", "builtin:bsc-quarter", "--method", "codebook",
                    "--n", str(2**24 + 1), "--rate", "1e-9", "--trials", "1",
                ]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "error: block_length 16777217 exceeds 2^24 = 16777216" in capsys.readouterr().err
        assert peak < 2**24  # one float32 row of the scan would be 2^26 bytes

    def test_codeword_cap_exits_2(self, capsys):
        code, _ = run(
            capsys,
            "simulate", "--scenario", "builtin:bsc-quarter",
            "--n", "64", "--rate", "0.5", "--method", "codebook", "--trials", "5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "decoder,counts",
        [("gmap", [(14, 3), (24, 5)]), ("mmi", [(14, 1), (24, 0)])],
    )
    def test_codebook_error_counts_pinned(self, capsys, decoder, counts):
        # (errors, tie_errors) per channel, recorded with Generator.choice codebooks
        code, out = run(
            capsys,
            "simulate", "--scenario", "builtin:bsc-quarter", "--method", "codebook", "--decoder", decoder,
            "--n", "48", "--rate", "0.25", "--trials", "30", "--seed", "3",
        )
        assert code == 0
        res = results(out)
        got = [(res[c]["errors"]["value"], res[c]["tie_errors"]["value"]) for c in ("channel[0]", "channel[1]")]
        assert got == counts

    @pytest.mark.parametrize("method,ties", [("codebook", 30), ("ensemble", None)])
    def test_tie_errors_reported_only_where_counted(self, capsys, tmp_path, method, ties):
        # every competitor ties the true codeword on a one-letter input
        scenario = tmp_path / "one_letter.json"
        scenario.write_text(json.dumps({"channels": [[[0.2, 0.3, 0.5]]], "input": [1.0]}))
        code, out = run(
            capsys,
            "simulate", "--scenario", str(scenario), "--method", method, "--decoder", "mmi",
            "--n", "8", "--rate", "0.3", "--trials", "30", "--seed", "3",
        )
        assert code == 0
        channel = results(out)["channel[0]"]
        assert channel["errors"]["value"] == 30
        assert channel.get("tie_errors", {}).get("value") == ties

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--method", "ensemble", "--n", "0"], "block_length must be at least 1"),
            (["--method", "codebook", "--n", "0"], "block_length must be at least 1"),
            (["--trials", "-2"], "trials must be nonnegative"),
            (["--rate", "nan"], "rate_bits must be finite, got nan"),
            (["--seed", "-1"], "seed must be nonnegative, got -1"),
        ],
    )
    def test_invalid_simulation_exits_2(self, capsys, flags, message):
        code = main(["simulate", "--scenario", "builtin:bsc-quarter", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_negative_scenario_seed_exits_2(self, capsys, tmp_path):
        scenario = tmp_path / "seed.json"
        scenario.write_text(json.dumps({"channels": [[[0.9, 0.1], [0.1, 0.9]]], "simulation": {"seed": -4}}))
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: simulation.seed: seed must be nonnegative, got -4\n"

    @pytest.mark.parametrize(
        "command, block, message",
        [
            (["simulate"], {"n": 0}, "simulation.n: block_length must be at least 1"),
            (["simulate"], {"trials": -2}, "simulation.trials: trials must be nonnegative"),
            (["simulate"], {"rate_bits": math.nan}, "simulation.rate_bits: rate_bits must be finite, got nan"),
            (["simulate"], {"rate_bits": 0}, "simulation.rate_bits: rate_bits must be positive"),
            (["simulate"], {"rate_bits": -0.5}, "simulation.rate_bits: rate_bits must be positive"),
            # checked when the scenario loads, whatever the command
            (["analyze"], {"n": 0, "trials": 5}, "simulation.n: block_length must be at least 1"),
        ],
    )
    def test_invalid_scenario_simulation_exits_2_at_its_field(self, capsys, tmp_path, command, block, message):
        scenario = tmp_path / "simulation.json"
        scenario.write_text(json.dumps({"channels": [[[0.9, 0.1], [0.1, 0.9]]], "simulation": block}))
        code = main([*command, "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, block, key",
        [
            (["simulate"], {"simulation": {"trails": 5, "n": 8}}, "simulation.trails"),
            (["simulate"], {"simulation": {"block_length": 8}}, "simulation.block_length"),
            (
                ["vn", "counterexample"],
                {"vn": {"noise": [0.5, 0.5], "directions": [[[1.0, -1.0], [0.0, 0.0]]], "epsilon": [0.1]}},
                "vn.epsilon",
            ),
            (["simulate"], {"simulation": {"max_codewords": 8}}, "simulation.max_codewords"),
            (["capacity"], {"inputs": [0.5, 0.5]}, "inputs"),
            (["analyze"], {"input_alphabet": 2}, "input_alphabet"),
        ],
    )
    def test_unknown_scenario_field_exits_2(self, capsys, tmp_path, command, block, key):
        scenario = tmp_path / "typo.json"
        scenario.write_text(json.dumps({"channels": [[[0.9, 0.1], [0.1, 0.9]]], **block}))
        code = main([*command, "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {key}: unknown field\n"

    def test_codeword_count_past_float_range(self, capsys):
        argv = ["simulate", "--scenario", "builtin:bsc-quarter", "--n", "2100", "--rate", "0.5", "--trials", "2"]
        code, out = run(capsys, *argv, "--method", "ensemble")
        assert code == 0
        assert results(out)["config"]["num_codewords"]["value"] == 2**1050
        code = main([*argv, "--method", "codebook"])
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_codeword_count_past_decimal_limit(self, capsys):
        # M = 2^16000 has 4817 digits, past Python's int-to-str limit
        argv = ["simulate", "--scenario", "builtin:bsc-quarter", "--n", "2000", "--rate", "8", "--trials", "1"]
        code, out = run(capsys, *argv, "--method", "ensemble")
        assert code == 0
        assert results(out)["config"]["num_codewords"]["value"] == "1*2^16000"
        code = main([*argv, "--method", "codebook"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: M=1*2^16000 codewords exceeds the cap 16384; "
            "lower the rate or blocklength, or use method='ensemble'\n"
        )

    def test_ensemble_type_budget_names_the_block_length(self, capsys):
        # binary inputs and outputs: about 2001^2 joint types per output type at n = 4000
        argv = ["simulate", "--scenario", "builtin:bsc-quarter", "--method", "ensemble", "--n", "4000", "--rate", "0.001"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: analytic competitor integration needs 4.00e+06 joint types at block length 4000, "
            "over the budget of 2.00e+06; use method='codebook'\n"
        )

    def test_seed_changes_results(self, capsys):
        code_a, out_a = run(
            capsys, "simulate", "--scenario", "builtin:bsc-quarter", "--trials", "200", "--seed", "1"
        )
        code_b, out_b = run(
            capsys, "simulate", "--scenario", "builtin:bsc-quarter", "--trials", "200", "--seed", "2"
        )
        assert code_a == code_b == 0
        a = results(out_a)["channel[0]"]["errors"]["value"]
        b = results(out_b)["channel[0]"]["errors"]["value"]
        assert a != b  # both runs see different codebooks
