"""Inputs, tasks and output checks of the four benchmark workloads.

Every input comes from the run seed.  Two instance families, the ``rand12``
set of ``analyze`` and the 3x3 set of ``simulate-ensemble``, are drawn once
from a fixed generator seed, and the run seed relabels their input letters,
output letters and channel order.  Relabelling gives every seed new input
files and new simulation draws but the same amount of solver work: solver
cost on freshly drawn random sets varies by a factor of three from seed to
seed, far beyond any useful regression bound.  It also lets those outputs be
compared with reference values recorded for the unrelabelled instance.

A task runs the program once and returns its output; ``check`` returns the
problems found in that output.  Each run ends in an ``Outcome``: ``ok``,
``error`` (raised, exited non-zero or did not converge) or ``wrong``
(produced an output that failed a check).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ccdec.cli
from ccdec import rates, scenario
from ccdec.probability import Channel, Distribution
from ccdec.rates import CompoundSet

WORKLOADS = ("analyze", "capacity-unions", "simulate-codebook", "simulate-ensemble")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Generator seeds of the relabelled instance families.  The rand12 draw costs
# about the median of the first ten generator seeds, and 2 of its 72
# projections take the LP-cut branch.
RAND12_SEED = 9
GENERAL_SEED = 20081029

CAPACITY_TOL = 1e-7  # the CLI and library default
MATCHED_TOL = 1e-6  # matched-rate identity, as in the acceptance suite
RATE_REF_TOL = 1e-6
CAPACITY_REF_TOL = 1e-6
VN_TOL = 1e-9
# Simulated error counts pass when the run's Wilson interval at this z
# (two-sided tail about 4e-8) meets the reference run's 95% interval.
RUN_Z = 5.5
REF_Z = 1.959963984540054

UNION_SETS = 28
BEC_SETS = 4
CODEBOOK = {"n": 48, "rate": 0.25, "trials": 100, "decoders": ("gmap", "mmi")}
ENSEMBLE_BINARY = {"n": 256, "rate": 0.1, "trials": 500, "decoder": "gmap"}
ENSEMBLE_GENERAL = {"n": 15, "rate": 0.3, "trials": 30, "decoder": "gmap"}


class TaskError(Exception):
    """The program produced no result: it raised, exited non-zero or did not converge."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Outcome:
    task: str
    status: str  # "ok" | "error" | "wrong"
    detail: str = ""


def check_output(task: Task, out) -> Outcome:
    try:
        problems = task.check(out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    if problems:
        return Outcome(task.name, "wrong", "; ".join(problems))
    return Outcome(task.name, "ok")


# ---------------------------------------------------------------------------
# Independent reference arithmetic
# ---------------------------------------------------------------------------


def mutual_information(p, w) -> float:
    """I(P, W) in nats, written out here so checks do not trust the program."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    q = p @ w
    total = 0.0
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            if p[a] > 0 and w[a, b] > 0:
                total += p[a] * w[a, b] * math.log(w[a, b] / q[b])
    return total


def wilson(errors: int, trials: int, z: float) -> tuple[float, float]:
    p = errors / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def z_channel_capacity(q: float) -> float:
    """Capacity in nats of the Z channel that turns a 1 into a 0 with probability q."""
    return math.log(1.0 + (1.0 - q) * q ** (q / (1.0 - q)))


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# At the capacity-achieving input several channels tie for the worst, and
# which of them the ML and MAP families pick is a rounding accident; at a
# declared input the worst channel of the set and of each block is unique.
UNIFORM3 = [1.0 / 3] * 3


def rand12_base():
    """12 random 3x4 channels with Dirichlet(1) rows, in two declared components."""
    rng = np.random.default_rng(RAND12_SEED)
    channels = [rng.dirichlet(np.ones(4), size=3) for _ in range(12)]
    return channels, [list(range(0, 12, 2)), list(range(1, 12, 2))]


def general_base():
    """3 random 3x3 channels with Dirichlet(1) rows, used at the uniform input."""
    rng = np.random.default_rng(GENERAL_SEED)
    return [rng.dirichlet(np.ones(3), size=3) for _ in range(3)]


def relabel(channels, components, rng):
    """Permute input letters, output letters and channel order.

    Returns the new channels, the components in the new channel numbering
    and ``order``: new channel ``i`` is base channel ``order[i]``.
    """
    nx, ny = channels[0].shape
    rows, cols = rng.permutation(nx), rng.permutation(ny)
    order = rng.permutation(len(channels))
    inverse = np.argsort(order)
    new = [channels[k][np.ix_(rows, cols)] for k in order]
    comps = [sorted(int(inverse[k]) for k in blk) for blk in components]
    return new, comps, [int(k) for k in order]


def segment_union(rng) -> CompoundSet:
    """Union of 2-3 segments toward pure noise, as in the acceptance suite."""
    nx = int(rng.integers(2, 5))
    ny = int(rng.integers(2, 5))
    channels, comps, idx = [], [], 0
    for _ in range(int(rng.integers(2, 4))):
        m = rng.uniform(0.05, 1.0, size=(nx, ny))
        a = Channel(m / m.sum(axis=1, keepdims=True))
        noise = Channel.pure_noise(Distribution(rng.dirichlet(np.ones(ny) * 5.0)), nx)
        block = []
        for t in np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(2, 5)))):
            channels.append(a.mix(noise, float(t)))
            block.append(idx)
            idx += 1
        comps.append(tuple(block))
    return CompoundSet(tuple(channels), tuple(comps))


def bec(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]])


def _write_scenario(workdir, name, channels, components=None, input_dist=None) -> str:
    raw = {"schema_version": 1, "name": name, "channels": [np.asarray(w).tolist() for w in channels]}
    if components is not None:
        raw["components"] = components
    if input_dist is not None:
        raw["input"] = list(input_dist)
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


# ---------------------------------------------------------------------------
# Running the CLI in-process
# ---------------------------------------------------------------------------


def cli_results(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Looked up at call time, so a traced run sees its wrapper.
        code = ccdec.cli.main(argv)
    if code != 0:
        raise TaskError(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())["results"]


def _v(results, section, key):
    return results[section][key]["value"]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_analyze(r, channels, input_dist=None, ref=None, order=None, closed_form=None) -> list:
    """Invariants of an ``analyze`` report, plus reference values when given.

    ``order[i]`` is the reference channel of report channel ``i``;
    ``closed_form`` is the known compound capacity, when there is one.
    """
    problems = []
    k_count = len(channels)
    nx = channels[0].shape[0]
    cap = _v(r, "capacity", "capacity")
    cap_input = [_v(r, "capacity", f"input[{a}]") for a in range(nx)]
    p = input_dist if input_dist is not None else cap_input
    infos = [mutual_information(p, w) for w in channels]
    cap_infos = min(mutual_information(cap_input, w) for w in channels)
    if not _close(cap, cap_infos, 1e-8):
        problems.append(f"capacity {cap} is not min_k I(P, W_k) = {cap_infos} at its own input")
    if _v(r, "capacity", "certificate_gap") > CAPACITY_TOL:
        problems.append("capacity certificate gap above tolerance")
    if closed_form is not None and not _close(cap, closed_form, CAPACITY_REF_TOL):
        problems.append(f"capacity {cap} differs from closed form {closed_form}")
    for k in range(k_count):
        if not _close(_v(r, "worst", f"mutual_information[{k}]"), infos[k], 1e-9):
            problems.append(f"reported I(P, W_{k}) is wrong")
    cover = [str(_v(r, "one_sided", f"cover[{b}]")) for b in range(_v(r, "one_sided", "cover_size"))]
    if sorted(int(i) for blk in cover for i in blk.split(",")) != list(range(k_count)):
        problems.append(f"cover {cover} does not partition the channel indices")
    worst = _v(r, "worst", "index")
    if infos[worst] > min(infos) + 1e-9:
        problems.append(f"reported worst channel {worst} does not minimize I(P, W)")
    for kind in ("ml", "map", "glrt", "gmap"):
        sec = f"rates_{kind}"
        vals = [_v(r, sec, f"channel[{k}]") for k in range(k_count)]
        for k, rate in enumerate(vals):
            if isinstance(rate, str) or not 0.0 <= rate <= infos[k] + MATCHED_TOL:
                problems.append(f"{kind} rate {rate} on channel {k} outside [0, I(P, W_{k})]")
        if not isinstance(_v(r, sec, "minimum"), str) and not _close(_v(r, sec, "minimum"), min(vals), 1e-12):
            problems.append(f"{kind} minimum is not the least channel rate")
        if kind in ("ml", "map") and not _close(vals[worst], infos[worst], MATCHED_TOL):
            problems.append(f"{kind} rate on the worst channel {vals[worst]} != I(P, W) {infos[worst]}")
    if ref is not None:
        order = order if order is not None else list(range(k_count))
        if not _close(cap, ref["capacity"], CAPACITY_REF_TOL):
            problems.append(f"capacity {cap} differs from reference {ref['capacity']}")
        for kind in ("ml", "map", "glrt", "gmap"):
            for k in range(k_count):
                got = _v(r, f"rates_{kind}", f"channel[{k}]")
                want = ref["rates"][kind][order[k]]
                if isinstance(got, str) or not _close(got, want, RATE_REF_TOL):
                    problems.append(f"{kind} rate on channel {k}: {got}, reference {want}")
        if _v(r, "one_sided", "whole_set") != ref["whole_set"]:
            problems.append("one-sided verdict of the whole set differs from reference")
        for b, want in enumerate(ref["components"]):
            if _v(r, "one_sided", f"component[{b}]") != want:
                problems.append(f"one-sided verdict of component {b} differs from reference")
    return problems


def check_against(r, ref, tol) -> list:
    """Every entry equal to the reference: numbers within ``tol``, others exactly."""
    problems = []
    for section, keys in ref.items():
        for key, want in keys.items():
            got = _v(r, section, key)
            if isinstance(want, (int, float)) and not isinstance(want, bool):
                ok = not isinstance(got, (str, bool)) and _close(got, want, tol)
            else:
                ok = got == want
            if not ok:
                problems.append(f"{section}/{key}: {got}, reference {want}")
    return problems


def check_vn_counterexample(r, ref) -> list:
    problems = []
    for key, want in (("capacity", 1.0), ("glrt_rate", 0.0), ("gmap_rate", 6.25)):
        if not _close(_v(r, "rates", key), want, VN_TOL):
            problems.append(f"vn counterexample {key} = {_v(r, 'rates', key)}, want {want}")
    return problems + check_against(r, ref, VN_TOL)


def check_simulation(r, ref_channels, order, trials, num_codewords) -> list:
    """Error counts compatible with the reference run, channel by channel."""
    problems = []
    if _v(r, "config", "num_codewords") != num_codewords:
        problems.append(f"num_codewords {_v(r, 'config', 'num_codewords')}, want {num_codewords}")
    for k, base in enumerate(order):
        sec = f"channel[{k}]"
        errors = _v(r, sec, "errors")
        if not 0 <= errors <= trials or not _close(_v(r, sec, "error_rate"), errors / trials, 1e-12):
            problems.append(f"{sec}: inconsistent error count {errors} of {trials}")
            continue
        ref = ref_channels[base]
        ref_low, ref_high = wilson(ref["errors"], ref["trials"], REF_Z)
        low, high = wilson(errors, trials, RUN_Z)
        if high < ref_low or low > ref_high:
            problems.append(
                f"{sec}: {errors}/{trials} errors, reference interval [{ref_low:.4f}, {ref_high:.4f}]"
            )
    return problems


def check_capacity_set(out, kind, closed_form=None) -> list:
    cset, cap, verdicts, cover = out
    problems = []
    mats = [w.matrix for w in cset.channels]
    p = cap.input_dist.probs
    if not _close(cap.value, min(mutual_information(p, w) for w in mats), 1e-9):
        problems.append("capacity is not min_k I(P, W_k) at its own input")
    if cap.certificate_gap > CAPACITY_TOL:
        problems.append("capacity certificate gap above tolerance")
    if closed_form is not None and not _close(cap.value, closed_form, CAPACITY_REF_TOL):
        problems.append(f"{kind} capacity {cap.value} differs from (1 - max eps) log 2 = {closed_form}")
    for b, v in enumerate(verdicts):
        if not v:
            problems.append(f"declared component {b} is not one-sided")
    covered = sorted(i for blk in cover for i in blk)
    if covered != list(range(cset.size)) or any(not blk for blk in cover):
        problems.append(f"cover {cover} does not partition the channel indices")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _analyze_tasks(seed, workdir, ref):
    rng = np.random.default_rng([seed, 1])
    base, base_comps = rand12_base()
    chans, comps, order = relabel(base, base_comps, rng)
    rand_path = _write_scenario(workdir, "rand12", chans, comps, UNIFORM3)

    tasks = []
    for name in ("bsc-quarter", "union-one-sided", "counterexample"):
        raw = scenario.BUILTIN_SCENARIOS[name]()
        mats = [np.array(w) for w in raw["channels"]]
        tasks.append(
            Task(
                f"analyze {name}",
                lambda name=name: cli_results(["analyze", "--scenario", f"builtin:{name}"]),
                lambda r, mats=mats, raw=raw, name=name: check_analyze(
                    r, mats, raw["input"], ref["analyze"][name]
                ),
            )
        )
    tasks.append(
        Task(
            "analyze rand12",
            lambda: cli_results(["analyze", "--scenario", rand_path]),
            lambda r: check_analyze(r, chans, UNIFORM3, ref["analyze"]["rand12"], order),
        )
    )
    tasks.append(
        Task(
            "vn counterexample",
            lambda: cli_results(["vn", "counterexample"]),
            lambda r: check_vn_counterexample(r, ref["vn counterexample"]),
        )
    )
    for sub in ("sweep", "blind"):
        tasks.append(
            Task(
                f"vn {sub}",
                lambda sub=sub: cli_results(["vn", sub]),
                lambda r, sub=sub: check_against(r, ref[f"vn {sub}"], VN_TOL),
            )
        )
    return tasks, [rand_path]


def _zero_entry_probes(seed, workdir):
    """``analyze`` on a seeded Z-channel pair and BEC pair, whose zero entries it rejects today."""
    rng = np.random.default_rng([seed, 4])
    qs = np.sort(rng.uniform(0.1, 0.45, size=2))
    z_chans = [np.array([[1.0, 0.0], [q, 1.0 - q]]) for q in qs]
    z_path = _write_scenario(workdir, "z-pair", z_chans)
    eps = np.sort(rng.uniform(0.1, 0.5, size=2))
    bec_chans = [bec(e) for e in eps]
    bec_path = _write_scenario(workdir, "bec-pair", bec_chans)
    return [
        Task(
            "analyze z-pair",
            lambda: cli_results(["analyze", "--scenario", z_path]),
            lambda r: check_analyze(r, z_chans, closed_form=z_channel_capacity(qs.max())),
        ),
        Task(
            "analyze bec-pair",
            lambda: cli_results(["analyze", "--scenario", bec_path]),
            lambda r: check_analyze(r, bec_chans, closed_form=(1.0 - eps.max()) * math.log(2.0)),
        ),
    ]


def _capacity_run(cset):
    # Module attributes are looked up at call time, so a traced run sees its wrappers.
    cap = rates.compound_capacity(cset)
    if not cap.converged:
        raise TaskError(f"capacity did not converge: gap {cap.certificate_gap:.3e}")
    verdicts = [rates.is_one_sided(cset.restrict(blk), cap.input_dist) for blk in cset.components]
    cover = rates.one_sided_cover(cset, cap.input_dist)
    return cset, cap, verdicts, cover


def _capacity_tasks(seed, scale):
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for i in range(max(1, round(UNION_SETS * scale))):
        cset = segment_union(rng)
        tasks.append(
            Task(f"union[{i}]", lambda c=cset: _capacity_run(c), lambda out: check_capacity_set(out, "union"))
        )
    for i in range(max(1, round(BEC_SETS * scale))):
        eps = np.sort(rng.uniform(0.05, 0.6, size=int(rng.integers(2, 5))))
        cset = CompoundSet(tuple(Channel(bec(e)) for e in eps))
        closed = (1.0 - eps.max()) * math.log(2.0)
        tasks.append(
            Task(f"bec[{i}]", lambda c=cset: _capacity_run(c), lambda out, c=closed: check_capacity_set(out, "BEC", c))
        )
    return tasks


def _simulate_argv(path, cfg, decoder, method, trials, seed):
    return [
        "simulate", "--scenario", path, "--method", method, "--n", str(cfg["n"]),
        "--rate", str(cfg["rate"]), "--decoder", decoder, "--trials", str(trials), "--seed", str(seed),
    ]


def _codewords(cfg) -> int:
    return max(2, math.ceil(2.0 ** (cfg["n"] * cfg["rate"])))


def _codebook_tasks(seed, scale, ref):
    trials = max(2, round(CODEBOOK["trials"] * scale))
    tasks = []
    for dec in CODEBOOK["decoders"]:
        argv = _simulate_argv("builtin:bsc-quarter", CODEBOOK, dec, "codebook", trials, seed)
        tasks.append(
            Task(
                f"simulate codebook {dec}",
                lambda argv=argv: cli_results(argv),
                lambda r, dec=dec: check_simulation(
                    r, ref["simulate"][f"codebook {dec}"], [0, 1], trials, _codewords(CODEBOOK)
                ),
            )
        )
    return tasks


def _ensemble_tasks(seed, workdir, scale, ref):
    rng = np.random.default_rng([seed, 3])
    chans, _, order = relabel(general_base(), [], rng)
    path = _write_scenario(workdir, "general3", chans, input_dist=UNIFORM3)
    b_trials = max(2, round(ENSEMBLE_BINARY["trials"] * scale))
    g_trials = max(2, round(ENSEMBLE_GENERAL["trials"] * scale))
    b_argv = _simulate_argv(
        "builtin:bsc-quarter", ENSEMBLE_BINARY, ENSEMBLE_BINARY["decoder"], "ensemble", b_trials, seed
    )
    g_argv = _simulate_argv(path, ENSEMBLE_GENERAL, ENSEMBLE_GENERAL["decoder"], "ensemble", g_trials, seed)
    tasks = [
        Task(
            "simulate ensemble binary",
            lambda: cli_results(b_argv),
            lambda r: check_simulation(
                r, ref["simulate"]["ensemble binary"], [0, 1], b_trials, _codewords(ENSEMBLE_BINARY)
            ),
        ),
        Task(
            "simulate ensemble general",
            lambda: cli_results(g_argv),
            lambda r: check_simulation(
                r, ref["simulate"]["ensemble general"], order, g_trials, _codewords(ENSEMBLE_GENERAL)
            ),
        ),
    ]
    return tasks, [path]


def build(workload: str, seed: int, workdir: str, scale: float = 1.0) -> list:
    """Generate and load the workload's inputs; return its tasks in run order.

    The first task is a short one-shot call of the workload; it is the one a
    cold start times.
    """
    ref = load_reference()
    paths = []
    if workload == "analyze":
        tasks, paths = _analyze_tasks(seed, workdir, ref)
    elif workload == "capacity-unions":
        tasks = _capacity_tasks(seed, scale)
    elif workload == "simulate-codebook":
        tasks = _codebook_tasks(seed, scale, ref)
    elif workload == "simulate-ensemble":
        tasks, paths = _ensemble_tasks(seed, workdir, scale, ref)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    for path in paths:
        ccdec.cli.load_scenario(path)
    return tasks


def known_defect_probes(workload: str, seed: int, workdir: str) -> list:
    """Tasks that fail at this commit because of a known program defect.

    A run executes them once, untimed, and reports their outcomes apart from
    the workload's: a timed workload holds only tasks that succeed, so that
    its failure count is 0 rather than a share that drifts with the number of
    passes.  Once the defect is fixed they pass and can join the workload.
    """
    return _zero_entry_probes(seed, workdir) if workload == "analyze" else []
