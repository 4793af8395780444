"""Spans and counters recorded around the calls into each ccdec layer.

``Tracer.install`` rebinds the public names at each layer boundary (for
example ``ccdec.cli.compound_capacity`` and ``ccdec.rates.kl_projection``) to
timing wrappers, and ``uninstall`` puts the originals back, so untraced
passes run the program exactly as shipped.  A span records its name, start,
end, parent span, pass and task, plus counts read from the returned object.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter
from time import perf_counter

VN_NAMES = (
    "center",
    "vn_compound_capacity",
    "vn_is_one_sided",
    "vn_glrt_rate",
    "vn_gmap_rate",
    "vn_limit_gap",
    "blind_polytope_rate",
)


def _projection_attrs(args, kwargs, res):
    return {
        "fit_iterations": res.fit_iterations,
        "bisection_steps": res.bisection_steps,
        "feasible": res.feasible,
        "marginal_residual": res.marginal_residual,
    }


def _capacity_attrs(args, kwargs, res):
    return {"iterations": res.iterations, "certificate_gap": res.certificate_gap}


def _cover_attrs(args, kwargs, res):
    return {"blocks": len(res)}


def _decoder_rates_attrs(args, kwargs, res):
    return {"kind": res.kind}


def _simulate_attrs(args, kwargs, res):
    if res[0].method == "codebook":
        path = "codebook"
    else:  # simulate integrates binary inputs in closed form, others by enumeration
        path = "ensemble_binary" if args[0].channels[0].nx == 2 else "ensemble_general"
    return {
        "path": path,
        "trials": sum(st.trials for st in res),
        "codeword_symbols": sum(st.num_codewords * st.block_length * st.trials for st in res),
    }


# (module, attribute, span name, counts read from the result).  A call that
# raises keeps its span but records no counts.
SPANS = [
    ("ccdec.cli", "main", "cli.main", None),
    ("ccdec.cli", "load_scenario", "scenario.load", None),
    ("ccdec.cli", "render_report", "scenario.render", None),
    ("ccdec.cli", "compound_capacity", "rates.capacity", _capacity_attrs),
    ("ccdec.rates", "compound_capacity", "rates.capacity", _capacity_attrs),
    ("ccdec.cli", "is_one_sided", "rates.one_sided", None),
    ("ccdec.rates", "is_one_sided", "rates.one_sided", None),
    ("ccdec.cli", "one_sided_cover", "rates.cover", _cover_attrs),
    ("ccdec.rates", "one_sided_cover", "rates.cover", _cover_attrs),
    ("ccdec.cli", "decoder_rates", "rates.decoder_rates", _decoder_rates_attrs),
    ("ccdec.rates", "kl_projection", "projection", _projection_attrs),
    ("ccdec.cli", "estimate_error", "simulate", _simulate_attrs),
] + [("ccdec.cli", name, "vn", None) for name in VN_NAMES]

# (module, attribute, counter): calls counted without a span.
COUNTERS = [
    ("ccdec.rates", "mutual_information", "probability.mutual_information_calls"),
    ("ccdec.rates", "kl_divergence", "probability.kl_divergence_calls"),
    ("ccdec.vn", "kl_divergence", "probability.kl_divergence_calls"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[Counter] = []  # one per traced pass
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.pass_id = -1
        self.task = None

    def _span(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id,
                "task": self.task,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, res))
            return res

        return traced

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Start a traced pass: rebind every boundary to its wrapper."""
        self.pass_id = len(self.counts)
        self.counts.append(Counter())
        for mod_name, attr, name, attrs in SPANS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._span(name, fn, attrs))
        for mod_name, attr, name in COUNTERS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._counter(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _pct(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(spans, selfs, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass."""
    by = {}
    for s, own in zip(spans, selfs):
        by.setdefault(s["name"], []).append((s, s["end"] - s["start"], own))

    def total(name, use_self=False):
        return sum(own if use_self else dur for _, dur, own in by.get(name, []))

    proj = by.get("projection", [])
    proj_ms = [dur * 1e3 for _, dur, _ in proj]
    fits = sum(s.get("fit_iterations", 0) for s, _, _ in proj)
    cap = by.get("rates.capacity", [])
    cap_ms = [dur * 1e3 for _, dur, _ in cap]
    sim = {path: [0.0, 0, 0] for path in ("codebook", "ensemble_binary", "ensemble_general")}
    for s, dur, _ in by.get("simulate", []):
        if "path" in s:
            acc = sim[s["path"]]  # seconds, trials, codeword symbols
            acc[0] += dur
            acc[1] += s["trials"]
            acc[2] += s["codeword_symbols"]

    def per_trial_ms(path):
        seconds, trials, _ = sim[path]
        return 1e3 * seconds / trials if trials else 0.0

    cb_seconds, _, cb_symbols = sim["codebook"]
    m = {
        "cli.main_self_s": total("cli.main", True),
        "scenario.load_ms": 1e3 * total("scenario.load"),
        "scenario.render_ms": 1e3 * total("scenario.render"),
        "projection.calls": len(proj),
        "projection.self_s": total("projection", True),
        "projection.call_p50_ms": _pct(proj_ms, 50),
        "projection.call_p90_ms": _pct(proj_ms, 90),
        "projection.fit_iterations": fits,
        "projection.bisection_steps": sum(s.get("bisection_steps", 0) for s, _, _ in proj),
        "projection.ms_per_fit_iteration": sum(proj_ms) / fits if fits else 0.0,
        "projection.infeasible_ratio": (
            sum(s.get("feasible") is False for s, _, _ in proj) / len(proj) if proj else 0.0
        ),
        "projection.max_marginal_residual": max(
            (s.get("marginal_residual", 0.0) for s, _, _ in proj), default=0.0
        ),
        "rates.decoder_rates.self_s": total("rates.decoder_rates", True),
        "rates.capacity.calls": len(cap),
        "rates.capacity.self_s": total("rates.capacity", True),
        "rates.capacity.call_p50_ms": _pct(cap_ms, 50),
        "rates.capacity.call_p90_ms": _pct(cap_ms, 90),
        "rates.capacity.iterations": sum(s.get("iterations", 0) for s, _, _ in cap),
        "rates.capacity.max_cert_gap": max((s.get("certificate_gap", 0.0) for s, _, _ in cap), default=0.0),
        "rates.one_sided.calls": len(by.get("rates.one_sided", [])),
        "rates.one_sided.self_s": total("rates.one_sided", True),
        "rates.cover.blocks": sum(s.get("blocks", 0) for s, _, _ in by.get("rates.cover", [])),
        "probability.mutual_information_calls": counts["probability.mutual_information_calls"],
        "probability.kl_divergence_calls": counts["probability.kl_divergence_calls"],
        "simulate.trials": sum(trials for _, trials, _ in sim.values()),
        "simulate.self_s": total("simulate", True),
        "simulate.codebook_ms_per_trial": per_trial_ms("codebook"),
        "simulate.codeword_symbols_per_s": cb_symbols / cb_seconds if cb_seconds else 0.0,
        "simulate.ensemble_binary_ms_per_trial": per_trial_ms("ensemble_binary"),
        "simulate.ensemble_general_ms_per_trial": per_trial_ms("ensemble_general"),
        "vn.self_s": total("vn", True),
    }
    for kind in ("ml", "map", "glrt", "gmap"):
        m[f"rates.decoder_rates.{kind}_s"] = sum(
            dur for s, dur, _ in by.get("rates.decoder_rates", []) if s.get("kind") == kind
        )
    return m


def layer_metrics(tracer: Tracer) -> dict:
    """Median over traced passes of every per-pass layer metric."""
    selfs = self_times(tracer.spans)
    per_pass = []
    for pass_no, counts in enumerate(tracer.counts):
        idx = [i for i, s in enumerate(tracer.spans) if s["pass"] == pass_no]
        per_pass.append(pass_metrics([tracer.spans[i] for i in idx], [selfs[i] for i in idx], counts))
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
