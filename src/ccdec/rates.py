"""Achievable rates and capacity analysis for compound channels.

Builds on the constrained divergence projection:

* ``generalized_rate``: random-coding rate of a generalized linear decoder,
  which scores with the pointwise maximum of finitely many single-letter
  metrics ``d_k`` while the true channel is ``W0``.  With the threshold
  ``t = max_k E_mu0[d_k]``, it is the smallest over ``k`` of the minimum of
  ``D(mu || mu0^p)`` over joints with the marginals of ``mu0`` and
  ``E_mu[d_k] >= t``.  A linear decoder is the one-metric case, and
  ``mismatched_rate(P, W0, d)`` is ``generalized_rate(P, W0, [d])``.
* ``compound_capacity``: ``max_P min_k I(P, W_k)`` over the input simplex by
  cutting planes (one small matrix game per step, solved by a warm-started
  simplex and counted in ``iterations``), with the game's optimal weights
  on the planes as an upper-bound certificate.
* ``SetAnalysis``: one record per channel set and input.  One batched
  divergence table (``probability.kl_table``) gives its informations and
  the margins of every one-sided split, so verdicts and covers are lookups,
  and ``rates`` solves the projections of many rate requests in one
  lockstep ``kl_projections`` call.  ``ccdec analyze`` requests all four
  families' rates in one such call, and its ``decoder_rates`` calls then
  read the record.
  ``worst_channel``, ``is_one_sided`` (when the single worst-channel metric
  achieves capacity), ``one_sided_cover`` and ``generalized_rate`` are
  views of a fresh record.
  ``one_sided_verdict``, ``worst_per_block`` and ``partition`` serve ``vn`` too.
  The record decides the blocks of the generalized decoders (``blocks``)
  and counts the work of every projection it made (``counters``).
* ``Decoder``: the generalized linear decoder of its metrics, the one record
  that the rate layer and the simulator take.  One metric makes it linear,
  and no metrics make it the MMI decoder.
* ``family``: the decoder of a named family on a record.  ``glrt`` / ``gmap``
  take maximum-likelihood metrics ``log W_k`` / maximum a posteriori metrics
  ``log(W_k / (mu_k)_Y)`` (``build_metrics``) from the worst channel of each
  block; the linear ``ml`` and ``map`` decoders are the GLRT and GMAP
  decoders whose one block is the whole set.  ``decoder_rates`` gives a
  decoder's rate against every member, from one ``rates`` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .probability import (
    SUPPORT_FLOOR,
    Channel,
    Distribution,
    Joint,
    joint_of,
    kl_table,
    xlogy,
)

# Not called here since ``SetAnalysis`` reads every divergence off one table
# and solves its projections in batches; kept as names of this module, which
# tracers and tests rebind to count calls.
from .probability import kl_divergence, mutual_information  # noqa: F401
from .projection import ProjectionResult, _simplex, kl_projection, kl_projections  # noqa: F401

WORST_TIE_TOL = 1e-9
ONE_SIDED_SLACK = 1e-9
# Master solves after which ``compound_capacity`` stops short of its tolerance.
CAPACITY_MAX_ITERATIONS = 100_000
# The decoder families, in report order, and the decoders a simulation takes: the families and MMI.
FAMILIES = ("ml", "map", "glrt", "gmap")
DECODERS = FAMILIES + ("mmi",)


@dataclass(frozen=True, eq=False)
class Metric:
    """A single-letter decoding metric: an |X| x |Y| matrix of finite reals."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("Metric: expected a 2-d matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("Metric: entries must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def shifted(self, f) -> "Metric":
        """The metric d(a, b) + f(b); decisions are invariant to this."""
        return Metric(self.values + np.asarray(f, dtype=float)[None, :])


def partition(components, count: int, owner: str) -> tuple[tuple[int, ...], ...]:
    """``components`` as nonempty index tuples that partition ``range(count)``; none given means one block.

    Indices must be integers (Python or numpy); a bool or a float is not an index.
    """
    message = f"{owner}: components must partition the indices 0..{count - 1}"
    try:
        comps = tuple(tuple(blk) for blk in components) or (tuple(range(count)),)
    except TypeError:
        raise ValueError(message) from None
    flat = [i for blk in comps for i in blk]
    integers = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in flat)
    if not integers or sorted(flat) != list(range(count)) or () in comps:
        raise ValueError(message)
    return tuple(tuple(int(i) for i in blk) for blk in comps)


def _metric_values(d) -> np.ndarray:
    return d.values if isinstance(d, Metric) else np.asarray(d, dtype=float)


@dataclass(frozen=True)
class CompoundSet:
    """A finite set of channels with a candidate partition into components.

    ``components`` partitions channel indices into blocks meant to be
    one-sided; the default is the trivial single block.
    """

    channels: tuple[Channel, ...]
    components: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("CompoundSet: need at least one channel")
        shape = chans[0].matrix.shape
        for k, w in enumerate(chans):
            if w.matrix.shape != shape:
                raise ValueError(f"CompoundSet: channel {k} has shape {w.matrix.shape}, expected {shape}")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "components", partition(self.components, len(chans), "CompoundSet"))

    @property
    def size(self) -> int:
        return len(self.channels)

    def restrict(self, indices) -> "CompoundSet":
        return CompoundSet(tuple(self.channels[i] for i in indices))


def mismatched_rate(input_dist: Distribution, channel: Channel, metric) -> float:
    """Random-coding rate of the linear decoder induced by ``metric``: the one-metric ``generalized_rate``."""
    return generalized_rate(input_dist, channel, [metric])


def generalized_rate(input_dist: Distribution, channel: Channel, metrics) -> float:
    """Rate on ``channel`` of the generalized linear decoder maximizing ``metrics``: ``SetAnalysis.rate``."""
    return SetAnalysis(CompoundSet((channel,)), input_dist).rate(0, metrics)


def _game_simplex(cuts: np.ndarray, basis: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Optimal cut weights and input of the master game ``max_P min_j (cuts @ P)_j``.

    The entries of ``cuts`` are divergences, hence nonnegative, so
    ``A = cuts + 1`` is positive and the game ``A`` has a positive value.
    ``projection._simplex`` solves ``max 1.y  s.t.  A^T y <= 1, y >= 0`` in
    equality form: the columns are the ``|X|`` slacks, then the cuts in
    order, and ``basis`` (one column per row, updated in place) starts at
    the slacks.  Appending a cut appends a column, so the last optimal basis
    stays feasible and warm-starts the next solve.  At the optimum
    ``y / sum y`` are the cut weights and the simplex prices ``x``,
    normalized, the input.
    """
    nx = cuts.shape[1]
    cols = np.hstack([np.eye(nx), cuts.T + 1.0])
    y, prices = _simplex(cols, np.ones(nx), np.repeat([0.0, 1.0], [nx, len(cuts)]), basis)
    x = np.maximum(prices, 0.0)
    return y[nx:] / y[nx:].sum(), x / x.sum()


@dataclass
class CapacityResult:
    """Compound capacity value with the achieving input distribution."""

    value: float
    input_dist: Distribution
    iterations: int
    certificate_gap: float
    converged: bool


def compound_capacity(cset: CompoundSet, tol: float = 1e-7) -> CapacityResult:
    """Maximize ``f(P) = min_k I(P, W_k)`` over the input simplex.

    Kelley's cutting-plane method.  ``I(P, W) = min_q sum_a P(a) D(W(.|a) || q)``,
    so the per-letter divergences ``g`` against any output distribution
    ``q`` give a plane ``P -> g . P`` lying above ``I(., W)``.  Each step
    adds one plane per channel, stacked as the rows of ``G``, and solves the
    master game ``max_P min_j (G P)_j`` by the simplex that also settles
    projection reachability, warm-started from the previous step's basis
    (``_game_simplex``); its optimal ``P`` is the next query.  For any
    weights ``alpha`` on the planes, ``C <= max_a (alpha G)(a)``; the game's
    optimal weights make this bound tight, and it certifies the gap to the
    best query.  The loop stops when the gap is at most ``tol``, when a query
    repeats, or after ``CAPACITY_MAX_ITERATIONS`` master solves (the
    reported ``iterations``).

    Planes are taken at the full-support point ``(p + eps/|X|) / (1 + eps)``
    rather than at the query ``p``: where ``p`` has zeros, ``q = p W`` may
    miss output letters and the divergences of the dead input letters come
    out too small.  The mixture costs at most ``log(1 + eps) < tol / 4`` of
    slack at ``p``, and needs ``tol > 0``.

    The returned value is ``f`` evaluated exactly at the best query, hence
    never an overestimate of the true capacity.
    """
    if not tol > 0.0:
        raise ValueError(f"capacity tolerance must be positive, got {tol}")
    mats = np.stack([w.matrix for w in cset.channels])
    wlogw = xlogy(mats, mats)
    nx = mats.shape[1]
    eps = tol / 4.0

    def planes(p):
        # D(W_k(.|a) || p W_k) per channel and letter; a letter whose row reaches
        # outside the support of p W_k gets a finite, too-small value.
        q = p @ mats
        return (wlogw - mats * np.log(np.where(q > 0.0, q, 1.0))[:, None, :]).sum(axis=2)

    p = np.full(nx, 1.0 / nx)
    best_f, best_p, upper = -math.inf, p, math.inf
    cuts = np.empty((0, nx))
    basis = list(range(nx))
    visited = set()
    iterations = 0
    while True:
        f = float((planes(p) @ p).min())
        if f > best_f:
            best_f, best_p = f, p
        if upper - best_f <= tol or iterations >= CAPACITY_MAX_ITERATIONS:
            break
        visited.add(p.tobytes())
        cuts = np.vstack([cuts, planes((p + eps / nx) / (1.0 + eps))])
        alpha, p = _game_simplex(cuts, basis)
        iterations += 1
        upper = min(upper, float((alpha @ cuts).max()))
        if p.tobytes() in visited:
            break

    # Roundoff can put the bound a hair below the value it certifies.
    gap = max(upper - best_f, 0.0)
    return CapacityResult(
        value=best_f,
        input_dist=Distribution(best_p),
        iterations=iterations,
        certificate_gap=gap,
        converged=gap <= tol,
    )


@dataclass
class WorstChannelResult:
    index: int
    channel: Channel
    mutual_informations: np.ndarray
    tie: bool
    tie_indices: tuple[int, ...]


def min_with_ties(values: np.ndarray, tie_tol: float = WORST_TIE_TOL) -> tuple[int, tuple[int, ...]]:
    """First index of the minimum, and every index whose value is within ``tie_tol`` of it."""
    idx = int(np.argmin(values))
    return idx, tuple(int(i) for i in np.flatnonzero(values <= values[idx] + tie_tol))


def worst_per_block(values: np.ndarray, blocks) -> tuple[int, ...]:
    """The global index of the first minimizer of ``values`` within each block."""
    return tuple(blk[int(np.argmin(values[list(blk)]))] for blk in blocks)


def worst_channel(cset: CompoundSet, input_dist: Distribution) -> WorstChannelResult:
    """Channel minimizing I(P, W) over the set; flags near-ties."""
    return SetAnalysis(cset, input_dist).worst


@dataclass
class OneSidedVerdict:
    """Outcome of a one-sided check.

    ``margins[k]`` is member ``k``'s slack (negative: a violation).  Entries
    past the first violator, the ``witness``, are NaN; ``margins`` is None
    when a tied worst member leaves it undefined.
    """

    one_sided: bool
    witness: int | None
    reason: str
    worst_index: int | None
    margins: np.ndarray | None = None

    def __bool__(self):
        return self.one_sided


def one_sided_verdict(values: np.ndarray, margins: np.ndarray, member: str) -> OneSidedVerdict:
    """One-sided verdict for members with capacity terms ``values`` and the ``(K, K)`` slack table ``margins``.

    ``margins[k, s]`` is member ``k``'s slack in the split at member ``s``;
    only the worst member's column is read.  A worst member tied within
    ``WORST_TIE_TOL`` declines to classify and returns the tie as the
    witness; else the first slack below ``-ONE_SIDED_SLACK`` is the witness.
    """
    worst, tied = min_with_ties(values)
    if len(tied) > 1:
        reason = f"worst {member} not unique: indices {tied} within {WORST_TIE_TOL}"
        return OneSidedVerdict(False, tied[1], reason, None)
    column = margins[:, worst].copy()
    violators = np.flatnonzero(column < -ONE_SIDED_SLACK)
    if not violators.size:
        return OneSidedVerdict(True, None, "all members satisfy the divergence split", worst, column)
    k = int(violators[0])
    column[k + 1 :] = math.nan
    reason = f"{member} {k} violates the divergence split by {column[k]:.3e}"
    return OneSidedVerdict(False, k, reason, worst, column)


class SetAnalysis:
    """One channel set at one input: each quantity the rate layer reads, computed once.

    The joints ``mu_k = P(x) W_k(y|x)`` and their products ``mu_k^p`` are
    stacked on first use, and both divergence tables of the one-sided split
    come from one batched ``kl_table``: ``D(mu_k || mu_s^p)``, whose diagonal
    holds the informations ``I_k = I(P, W_k)``, and ``D(mu_k || mu_s)``.  The
    verdicts and the cover look up ``margins``.  Projections are made on the
    first request for each and reused only for the same joint marginals,
    metric values and threshold, which fix their arguments exactly: the
    object a fresh call would return.  Channels that share an output marginal
    at this input share their projections.
    """

    def __init__(self, cset: CompoundSet, input_dist: Distribution):
        self.cset = cset
        self.input_dist = input_dist
        self._projections: dict[tuple, ProjectionResult] = {}

    @functools.cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The joints ``mu_k`` and the products ``mu_k^p`` as ``(K, |X|, |Y|)`` arrays."""
        p = self.input_dist.probs
        mats = np.stack([w.matrix for w in self.cset.channels])
        if p.shape[0] != mats.shape[1]:
            raise ValueError(
                f"dimension mismatch: input has {p.shape[0]} symbols, channel has {mats.shape[1]} rows"
            )
        mu = p[:, None] * mats
        return mu, mu.sum(axis=2)[:, :, None] * mu.sum(axis=1)[:, None, :]

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``D(mu_k || mu_s^p)`` and ``D(mu_k || mu_s)``, indexed ``[k, s]``."""
        mu, products = self._stacked
        table = kl_table(mu, np.concatenate([products, mu]))
        return table[:, : len(mu)], table[:, len(mu) :]

    @functools.cached_property
    def informations(self) -> np.ndarray:
        return self._tables[0].diagonal().copy()

    @functools.cached_property
    def margins(self) -> np.ndarray:
        """``margins[k, s] = D(mu_k || mu_s^p) - D(mu_k || mu_s) - I_s``: member ``k``'s slack in the split at ``s``.

        Where the supports allow, the two divergences differ by
        ``G[k, s] = E_{mu_k}[log W_s / q_s]`` (``q_s`` the output marginal of
        ``mu_s``) and ``I_s = G[s, s]``, so the margin is
        ``G[k, s] - G[s, s]``: the global twin of the centred-Gram margin of
        ``vn.vn_is_one_sided``.  The table is the divergence difference, not
        ``G``, whose roundoff differs.  Both sides infinite counts as equality;
        one infinite side gives +-inf.
        """
        to_product, to_joint = self._tables
        rhs = to_joint + self.informations
        both = np.isinf(to_product) & np.isinf(rhs)
        return np.subtract(to_product, rhs, out=np.zeros_like(rhs), where=~both)

    @functools.cached_property
    def products(self) -> tuple[Joint, ...]:
        return tuple(Joint(m) for m in self._stacked[1])

    @property
    def worst(self) -> WorstChannelResult:
        idx, tied = min_with_ties(self.informations)
        return WorstChannelResult(idx, self.cset.channels[idx], self.informations, len(tied) > 1, tied)

    def verdict(self, block=None) -> OneSidedVerdict:
        """``is_one_sided`` of the set, or of the channels in ``block`` with indices local to it."""
        blk = list(range(self.cset.size) if block is None else block)
        return one_sided_verdict(self.informations[blk], self.margins[np.ix_(blk, blk)], "channel")

    @functools.cached_property
    def cover(self) -> tuple[tuple[int, ...], ...]:
        """Greedy partition of the channel indices into one-sided blocks.

        Seeds each block with the lowest-information uncovered channel ``s``;
        a later ``k`` joins when ``I_k > I_s + WORST_TIE_TOL`` and its split
        margin against ``s`` is at least ``-ONE_SIDED_SLACK``, i.e. when the
        grown block passes ``verdict``.  Valid but not necessarily minimal.
        """
        infos = self.informations
        remaining = [int(i) for i in np.argsort(infos, kind="stable")]
        blocks: list[tuple[int, ...]] = []
        while remaining:
            seed, *rest = remaining
            block, remaining = [seed], []
            for k in rest:
                joins = infos[k] > infos[seed] + WORST_TIE_TOL and self.margins[k, seed] >= -ONE_SIDED_SLACK
                (block if joins else remaining).append(k)
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of the GLRT and GMAP decoders: the declared components if more than one, else ``cover``."""
        return self.cset.components if len(self.cset.components) > 1 else self.cover

    def rates(self, requests) -> list[float]:
        """``generalized_rate`` on channel ``k`` for each ``(k, metrics)`` in ``requests``.

        The threshold is the best score the true joint earns across metrics;
        the rate is the smallest per-metric projection value.  Infeasible
        branches (+inf) drop out of the minimum unless every branch is.
        Every projection missing from the record is solved in one
        ``kl_projections`` call, and none is made when nothing is missing:
        requests made together share one lockstep batch, and a later request
        for the same projections reads the record.
        """
        plans, missing = [], {}
        for k, metrics in requests:
            ds = [_metric_values(d) for d in metrics]
            if not ds:
                raise ValueError("SetAnalysis.rate: need at least one metric")
            mu0 = self._stacked[0][k]
            row, col = mu0.sum(axis=1), mu0.sum(axis=0)
            threshold = max(float(np.sum(mu0 * d)) for d in ds)
            keys = [(row.tobytes(), col.tobytes(), d.tobytes(), threshold) for d in ds]
            for key, d in zip(keys, ds):
                if key not in self._projections and key not in missing:
                    missing[key] = (self.products[k], row, col, d, threshold)
            plans.append(keys)
        if missing:
            self._projections.update(zip(missing, kl_projections(list(missing.values()))))
        return [min(self._projections[key].value for key in keys) for keys in plans]

    def rate(self, k: int, metrics) -> float:
        """``generalized_rate`` on channel ``k``: the one-request ``rates``."""
        return self.rates([(k, metrics)])[0]

    def counters(self) -> dict:
        """Solver work summed over every projection this record made.

        ``inactive`` projections met their threshold at the product itself;
        ``infeasible_by_lp`` counts the infeasible ones the reachability LP
        settled before any fit.
        """
        made = self._projections.values()
        return {
            "projections": len(made),
            "inactive": sum(res.feasible and res.multiplier == 0.0 for res in made),
            "infeasible": sum(not res.feasible for res in made),
            "infeasible_by_lp": sum(not res.feasible and res.fit_iterations == 0 for res in made),
            "fit_iterations": sum(res.fit_iterations for res in made),
            "max_fit_iterations": max((res.fit_iterations for res in made), default=0),
            "bisection_steps": sum(res.bisection_steps for res in made),
            "max_marginal_residual": float(max((res.marginal_residual for res in made), default=0.0)),
        }


def is_one_sided(cset: CompoundSet, input_dist: Distribution) -> OneSidedVerdict:
    """Check whether every member satisfies the worst-channel divergence split.

    With ``mu_S`` the joint of the worst channel, the set is one-sided when

        D(mu0 || mu_S^p) >= D(mu0 || mu_S) + D(mu_S || mu_S^p)

    holds for every member ``W0``; see ``one_sided_verdict``.
    """
    return SetAnalysis(cset, input_dist).verdict()


def one_sided_cover(cset: CompoundSet, input_dist: Distribution) -> tuple[tuple[int, ...], ...]:
    """Greedy partition of the channel indices into one-sided blocks; see ``SetAnalysis.cover``."""
    return SetAnalysis(cset, input_dist).cover


def build_metrics(kind: str, channels, input_dist: Distribution) -> list[Metric]:
    """ML metrics ``log W_k`` or MAP metrics ``log(W_k / (mu_k)_Y)``.

    Requires strictly positive channel entries so the logs stay finite;
    channels with zeros are rejected here even though they are accepted
    elsewhere.
    """
    if kind not in ("ml", "map"):
        raise ValueError(f"unknown metric kind {kind!r} (want 'ml' or 'map')")
    metrics = []
    for k, w in enumerate(channels):
        m = w.matrix
        if m.min() <= SUPPORT_FLOOR:
            raise ValueError(
                f"channel {k} has a zero entry; log metrics require strictly positive channels"
            )
        if kind == "ml":
            metrics.append(Metric(np.log(m)))
        else:
            out = joint_of(input_dist, w).y_marginal.probs
            metrics.append(Metric(np.log(m) - np.log(out)[None, :]))
    return metrics


@dataclass(frozen=True)
class Decoder:
    """The generalized linear decoder that maximizes the pointwise maximum of ``metrics``.

    One metric makes it the linear decoder of that metric; no metrics make
    it the MMI decoder, which maximizes the empirical mutual information.
    ``name`` is the family it was built for and ``channels`` the members the
    metrics came from (see ``family``).
    """

    metrics: tuple[Metric, ...] = ()
    name: str = ""
    channels: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "metrics", tuple(self.metrics))


def family(analysis: SetAnalysis, name: str) -> Decoder:
    """The decoder of family ``name`` on the record's set and input.

    ``glrt`` / ``gmap``: one ML / MAP metric per block of ``analysis.blocks``,
    from that block's worst channel.  ``ml`` / ``map`` are ``glrt`` /
    ``gmap`` with the whole set as their one block.  ``mmi`` has no metrics.
    """
    if name == "mmi":
        return Decoder(name=name)
    if name not in FAMILIES:
        raise ValueError(f"unknown decoder kind {name!r}")
    cset = analysis.cset
    blocks = (tuple(range(cset.size)),) if name in ("ml", "map") else analysis.blocks
    idx = worst_per_block(analysis.informations, blocks)
    kind = "ml" if name in ("ml", "glrt") else "map"
    return Decoder(build_metrics(kind, [cset.channels[i] for i in idx], analysis.input_dist), name, idx)


@dataclass
class RateReport:
    """Per-channel achievable rates of one decoder."""

    decoder: Decoder
    rates: np.ndarray
    minimum: float

    @property
    def kind(self) -> str:
        return self.decoder.name


def decoder_rates(analysis: SetAnalysis, decoder: Decoder) -> RateReport:
    """Rates of ``decoder`` against every member of the record's set.

    MMI (no metrics) achieves ``I(P, W_k)`` on member ``k``.
    """
    if not decoder.metrics:
        rates = analysis.informations.copy()
    else:
        rates = np.array(analysis.rates([(k, decoder.metrics) for k in range(analysis.cset.size)]))
    return RateReport(decoder, rates, float(rates.min()))
