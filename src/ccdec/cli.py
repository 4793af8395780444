"""Batch command-line front end.

Subcommands
-----------
``analyze``     capacity, worst channels, one-sided verdicts and cover, and
                per-channel ML/MAP/GLRT/GMAP rates for a scenario.
``capacity``    compound capacity and the achieving input distribution.
``one-sided``   one-sided verdict and a greedy one-sided cover.
``vn``          very-noisy studies: ``counterexample`` (pinned table),
                ``sweep`` (limit-gap tables over epsilon), ``blind``
                (fixed-metric polytope rate).
``simulate``    Monte Carlo decoder error estimation.

Every subcommand takes ``--scenario``, ``--out`` and ``--format``.  The
subcommands that may run the capacity solver (``analyze``, ``capacity``,
``one-sided``, ``simulate``) take its tolerance ``--tol``; the two whose
reports carry nats (``analyze``, ``capacity``) take ``--bits``, which
rescales displayed values only; ``simulate`` takes ``--seed`` with its other
overrides.  Internally everything is in nats.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .probability import NATS_PER_BIT, Distribution
from .projection import SolverError
from .rates import (
    DECODERS,
    FAMILIES,
    SetAnalysis,
    compound_capacity,
    decoder_rates,
    family,
    is_one_sided,  # no command calls these two; perfbench/spans.py binds their names here
    one_sided_cover,
    worst_per_block,
)
from .scenario import Report, ScenarioError, SimulationConfig, load_scenario, render_report, write_report
from .simulate import METHODS, estimate_error, format_count
from .vn import (
    DirectionSet,
    blind_polytope_rate,
    center,
    vn_compound_capacity,
    vn_glrt_rate,
    vn_gmap_rate,
    vn_is_one_sided,
    vn_limit_gap,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _add_common(p: argparse.ArgumentParser, scenario_default=None):
    if scenario_default is None:
        p.add_argument("--scenario", required=True, help="scenario JSON path or builtin:<name>")
    else:
        p.add_argument("--scenario", default=scenario_default)
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccdec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full rate analysis of a compound set")
    analyze.set_defaults(handler=cmd_analyze)
    capacity = sub.add_parser("capacity", help="compound capacity only")
    capacity.set_defaults(handler=cmd_capacity)
    one_sided = sub.add_parser("one-sided", help="one-sided verdict and cover")
    one_sided.set_defaults(handler=cmd_one_sided)

    vn = sub.add_parser("vn", help="very-noisy geometry studies")
    vnsub = vn.add_subparsers(dest="vn_command", required=True)
    counterexample = vnsub.add_parser("counterexample")
    counterexample.set_defaults(handler=cmd_vn_counterexample)
    sweep = vnsub.add_parser("sweep")
    sweep.set_defaults(handler=cmd_vn_sweep)
    blind = vnsub.add_parser("blind")
    blind.set_defaults(handler=cmd_vn_blind)
    for p in (counterexample, sweep, blind):
        _add_common(p, scenario_default="builtin:counterexample")
    sweep.add_argument("--eps", default=None, help="comma-separated epsilon list, e.g. 0.1,0.05,0.025")

    sim = sub.add_parser("simulate", help="Monte Carlo decoder error estimation")
    sim.set_defaults(handler=cmd_simulate)
    for p in (analyze, capacity, one_sided, sim):
        _add_common(p)
        p.add_argument("--tol", type=float, default=1e-7, help="capacity solver tolerance (nats)")
    for p in (analyze, capacity):
        p.add_argument("--bits", action="store_true", help="display rates in bits instead of nats")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--n", type=int, default=None, help="block length")
    sim.add_argument("--rate", type=float, default=None, help="rate in bits per symbol")
    sim.add_argument("--decoder", choices=DECODERS, default=None)
    sim.add_argument("--method", choices=METHODS, default=None)
    return parser


def _display(report: Report, bits: bool) -> Report:
    if not bits:
        return report
    out = Report(meta=dict(report.meta))
    out.meta["units"] = "bits"
    for e in report.entries:
        if e.unit == "nats" and isinstance(e.value, float):
            out.add(e.section, e.key, e.value / NATS_PER_BIT, "bits")
        else:
            out.add(e.section, e.key, e.value, e.unit)
    return out


def _emit(report: Report, args) -> None:
    if args.out:
        write_report(report, args.out, args.format)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(render_report(report, args.format))


def _load(args, block: str):
    """Load ``args.scenario`` and check that it has the ``channels`` or ``vn`` block."""
    scenario = load_scenario(args.scenario)
    if block == "channels" and scenario.channels is None:
        raise ScenarioError("channels", f"{args.command} requires channels")
    if block == "vn" and scenario.vn is None:
        raise ScenarioError("vn", "scenario has no vn block")
    return scenario


def _input(scenario, tol: float) -> tuple[Distribution, int]:
    """The declared input, else the capacity-achieving one, with the exit code it implies."""
    if scenario.input_dist is not None:
        return scenario.input_dist, EXIT_OK
    cap = compound_capacity(scenario.channels, tol=tol)
    return cap.input_dist, EXIT_OK if cap.converged else EXIT_SOLVER


def _vn_input(args):
    """The scenario with its ``vn`` block, and the declared input (uniform if none)."""
    scenario = _load(args, "vn")
    p_x = scenario.input_dist
    if p_x is None:
        p_x = Distribution.uniform(scenario.vn.directions.directions[0].nx)
    return scenario, p_x


def _add_capacity(report: Report, cap) -> None:
    report.add("capacity", "capacity", cap.value, "nats")
    report.add("capacity", "iterations", cap.iterations)
    report.add("capacity", "certificate_gap", cap.certificate_gap, "nats")
    report.add("capacity", "converged", cap.converged)
    for a, p in enumerate(cap.input_dist.probs):
        report.add("capacity", f"input[{a}]", float(p), "probability")


def _add_cover(report: Report, cover) -> None:
    report.add("one_sided", "cover_size", len(cover))
    for b, blk in enumerate(cover):
        report.add("one_sided", f"cover[{b}]", ",".join(map(str, blk)))


def cmd_analyze(args) -> int:
    scenario = _load(args, "channels")
    cset = scenario.channels
    cap = compound_capacity(cset, tol=args.tol)
    report = Report(meta={"command": "analyze", "scenario": scenario.name, "units": "nats"})
    _add_capacity(report, cap)

    p_x = scenario.input_dist if scenario.input_dist is not None else cap.input_dist
    analysis = SetAnalysis(cset, p_x)
    worst = analysis.worst
    report.add("worst", "index", worst.index)
    report.add("worst", "tie", worst.tie)
    for k, info in enumerate(worst.mutual_informations):
        report.add("worst", f"mutual_information[{k}]", float(info), "nats")

    verdict = analysis.verdict()
    report.add("one_sided", "whole_set", verdict.one_sided)
    if verdict.witness is not None:
        report.add("one_sided", "witness", verdict.witness)
    _add_cover(report, analysis.cover)

    for b, blk in enumerate(analysis.blocks):
        report.add("one_sided", f"component[{b}]", analysis.verdict(blk).one_sided)

    # Every family's projections in one lockstep batch, in family order, so a
    # stall raises the error that the first family to meet it would raise.
    decoders = [family(analysis, kind) for kind in FAMILIES]
    analysis.rates([(k, dec.metrics) for dec in decoders for k in range(cset.size)])
    for kind, dec in zip(FAMILIES, decoders):
        rep = decoder_rates(analysis, dec)
        for k, r in enumerate(rep.rates):
            report.add(f"rates_{kind}", f"channel[{k}]", float(r), "nats")
        report.add(f"rates_{kind}", "minimum", rep.minimum, "nats")
        report.add(f"rates_{kind}", "metric_channels", ",".join(map(str, rep.decoder.channels)))
    for key, value in analysis.counters().items():
        report.add("diagnostics", key, value, "probability" if key == "max_marginal_residual" else "")

    _emit(_display(report, args.bits), args)
    return EXIT_OK if cap.converged else EXIT_SOLVER


def cmd_capacity(args) -> int:
    scenario = _load(args, "channels")
    cap = compound_capacity(scenario.channels, tol=args.tol)
    report = Report(meta={"command": "capacity", "scenario": scenario.name, "units": "nats"})
    _add_capacity(report, cap)
    _emit(_display(report, args.bits), args)
    return EXIT_OK if cap.converged else EXIT_SOLVER


def cmd_one_sided(args) -> int:
    scenario = _load(args, "channels")
    cset = scenario.channels
    p_x, code = _input(scenario, args.tol)
    analysis = SetAnalysis(cset, p_x)
    verdict = analysis.verdict()
    report = Report(meta={"command": "one-sided", "scenario": scenario.name, "units": "nats"})
    report.add("one_sided", "whole_set", verdict.one_sided)
    report.add("one_sided", "reason", verdict.reason)
    if verdict.witness is not None:
        report.add("one_sided", "witness", verdict.witness)
    _add_cover(report, analysis.cover)
    _emit(report, args)
    return code


def _component_worst_directions(dset: DirectionSet, norms):
    return [dset.directions[i] for i in worst_per_block(norms, dset.components)]


def cmd_vn_counterexample(args) -> int:
    scenario, p_x = _vn_input(args)
    dset = scenario.vn.directions
    report = Report(meta={"command": "vn counterexample", "scenario": scenario.name, "units": "vn"})
    cents = [center(d, p_x) for d in dset.directions]
    for k, c in enumerate(cents):
        report.add("geometry", f"centered_norm_sq[{k}]", c.centered_norm_sq, "vn-rate")
    for k in range(len(cents)):
        for j in range(k + 1, len(cents)):
            report.add("geometry", f"inner[{k},{j}]", cents[k].inner(cents[j]), "vn-rate")

    cap = vn_compound_capacity(dset, p_x)
    report.add("rates", "capacity", cap.value, "vn-rate")
    verdicts = [vn_is_one_sided(dset.restrict(blk), p_x) for blk in dset.components]
    for b, v in enumerate(verdicts):
        report.add("one_sided", f"component[{b}]", v.one_sided)
    worsts = _component_worst_directions(dset, cap.norms)
    glrt = [vn_glrt_rate(d, worsts, p_x) for d in dset.directions]
    gmap = [vn_gmap_rate(d, worsts, p_x) for d in dset.directions]
    for k in range(dset.size):
        report.add("rates", f"glrt[{k}]", glrt[k], "vn-rate")
        report.add("rates", f"gmap[{k}]", gmap[k], "vn-rate")
    witness = int(np.argmin(glrt))
    report.add("rates", "glrt_rate", glrt[witness], "vn-rate")
    report.add("rates", "gmap_rate", gmap[witness], "vn-rate")
    report.add("rates", "gmap_rate_min", min(gmap), "vn-rate")
    report.add("rates", "witness", witness)
    _emit(report, args)
    return EXIT_OK


def cmd_vn_sweep(args) -> int:
    scenario, p_x = _vn_input(args)
    vnb = scenario.vn
    eps = vnb.epsilons
    if args.eps is not None:
        try:
            eps = tuple(float(e) for e in args.eps.split(","))
        except ValueError:
            raise ValueError(f"eps must be a comma-separated list of numbers, got {args.eps!r}") from None
    dirs = vnb.directions.directions
    instances = {
        "divergence": {"dist": vnb.noise, "direction": dirs[0].values[0]},
        "expected_log": {
            "input": p_x,
            "directions": (dirs[0], dirs[min(1, len(dirs) - 1)], dirs[0], dirs[0]),
        },
        "mismatched_rate": {
            "input": p_x,
            "true": dirs[0],
            "metric": dirs[min(1, len(dirs) - 1)],
        },
    }
    report = Report(meta={"command": "vn sweep", "scenario": scenario.name, "units": "vn"})
    for kind, instance in instances.items():
        rows = vn_limit_gap(kind, instance, eps)
        for r in rows:
            report.add(kind, f"scaled[eps={r.eps:g}]", r.scaled, "vn-rate")
            report.add(kind, f"gap[eps={r.eps:g}]", r.gap, "vn-rate")
        report.add(kind, "limit", rows[0].limit, "vn-rate")
        gaps = [r.gap for r in rows]
        report.add(kind, "monotone", all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])))
    _emit(report, args)
    return EXIT_OK


def cmd_vn_blind(args) -> int:
    scenario, p_x = _vn_input(args)
    dset = scenario.vn.directions
    worsts = _component_worst_directions(dset, vn_compound_capacity(dset, p_x).norms)
    res = blind_polytope_rate(worsts, dset, p_x)
    report = Report(meta={"command": "vn blind", "scenario": scenario.name, "units": "vn"})
    report.add("blind", "polytope_rate", res.value, "vn-rate")
    report.add("blind", "capacity", res.capacity, "vn-rate")
    report.add("blind", "ratio", res.ratio, "ratio")
    report.add("blind", "limiting_index", res.limiting_index)
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args, "channels")
    cset = scenario.channels
    overrides = dict(
        trials=args.trials, block_length=args.n, rate_bits=args.rate,
        decoder=args.decoder, method=args.method, seed=args.seed,
    )
    sim = dataclasses.replace(
        scenario.simulation or SimulationConfig(), **{k: v for k, v in overrides.items() if v is not None}
    )

    p_x, code = _input(scenario, args.tol)
    decoder = family(SetAnalysis(cset, p_x), sim.decoder)
    stats = estimate_error(
        cset, decoder, p_x, sim.block_length, sim.rate_bits, sim.trials, sim.seed, method=sim.method
    )
    report = Report(
        meta={
            "command": "simulate",
            "scenario": scenario.name,
            "decoder": sim.decoder,
            "method": sim.method,
            "units": "nats",
        }
    )
    report.add("config", "block_length", sim.block_length)
    report.add("config", "rate", sim.rate_bits, "bits")
    report.add("config", "trials", sim.trials)
    report.add("config", "seed", sim.seed)
    report.add("config", "num_codewords", format_count(stats[0].num_codewords))
    for st in stats:
        sec = f"channel[{st.channel_index}]"
        report.add(sec, "errors", st.errors)
        if st.tie_errors is not None:
            report.add(sec, "tie_errors", st.tie_errors)
        report.add(sec, "error_rate", st.error_rate, "probability")
        report.add(sec, "wilson_low", st.wilson_low, "probability")
        report.add(sec, "wilson_high", st.wilson_high, "probability")
        if st.mean_error_prob is not None:
            report.add(sec, "mean_error_prob", st.mean_error_prob, "probability")
    _emit(report, args)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
