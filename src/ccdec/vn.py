"""The very-noisy inner-product geometry.

A channel close to pure noise can be written ``W(b|a) = N(b) (1 + e L(a,b))``
for a small ``e``, a noise distribution ``N`` on the outputs, and a
perturbation matrix ``L`` whose noise-weighted row averages vanish.  In the
``e -> 0`` limit, divergences between such channels become squared norms in
the inner-product space weighted by ``P_X x N``:

    <u, v> = sum_{a,b} P_X(a) N(b) u(a,b) v(a,b).

Writing ``Lbar(b) = sum_a P_X(a) L(a,b)`` for the output average and
``Ltil = L - Lbar`` for the centered direction, mutual information scales to
``|Ltil|^2``, and the rate of a linear decoder scoring with the
log-likelihood of direction ``L1`` while the truth is ``L0`` scales to the
squared norm of the projection of ``Ltil0`` onto ``Ltil1`` (zero when the
inner product is negative).  All limits here are normalized by ``2 / e^2``.
Every local quantity is read off two Gram matrices of the directions in
play, raw ``<L_k, L_j>`` and centered ``<Ltil_k, Ltil_j>``.

Closed forms for the generalized likelihood-ratio and generalized MAP
decoders follow from the same projection picture, through one case-rate
rule that builds the generalized rate from one-metric projection rates; a
linear decoder is the generalized decoder with one metric.  The rates weigh
by the noise distribution the directions carry, and reject a metric
direction whose noise differs from the true direction's.  The only
subtlety is that likelihood metrics compare raw directions while MAP
metrics compare centered ones, which is exactly what lets a
likelihood-ratio family lose rate on unions of one-sided components while
the MAP family does not.

``embed`` maps a direction back to an honest channel at a finite ``e``, and
``*_gap_table`` report how fast the exact, rescaled quantities approach
their limits; ``vn_limit_gap`` computes the three tables of ``vn sweep``
for a direction set in one call, after checking its eps once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import Channel, Distribution, _values, joint_of, kl_divergence
from .rates import (
    CompoundSet,
    Metric,
    OneSidedVerdict,
    SetAnalysis,
    min_with_ties,
    one_sided_verdict,
    partition,
)

_CASE_TIE_TOL = 1e-12

# Smallest admitted entry of 1 + e L when embedding a direction.
EMBED_MIN_ENTRY = 1e-6


@dataclass(frozen=True, eq=False)
class Direction:
    """A perturbation matrix around a pure-noise output distribution.

    Rows must average to zero under the noise weights:
    ``sum_b noise(b) values(a, b) == 0`` for every input ``a``.
    """

    values: np.ndarray
    noise: Distribution

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("Direction: expected a 2-d matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("Direction: entries must be finite")
        if v.shape[1] != self.noise.size:
            raise ValueError("Direction: column count must match the noise alphabet")
        row_avg = v @ self.noise.probs
        if np.abs(row_avg).max() > 1e-12:
            raise ValueError(
                f"Direction: noise-weighted row averages must vanish (max {np.abs(row_avg).max():.3e})"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def nx(self) -> int:
        return self.values.shape[0]


def inner(u, v, input_dist: Distribution, noise: Distribution) -> float:
    """The (P_X x N)-weighted inner product of two direction matrices."""
    a = _values(u)
    b = _values(v)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    w = np.outer(input_dist.probs, noise.probs)
    return float(np.sum(w * a * b))


def norm_sq(u, input_dist: Distribution, noise: Distribution) -> float:
    return inner(u, u, input_dist, noise)


@dataclass(frozen=True, eq=False)
class CenteredDirection:
    """A direction split into its output average and centered part.

    ``centered = values - output_avg`` (broadcast over rows), so the
    input-weighted column averages of ``centered`` vanish.  The squared
    norms satisfy the projection identity
    ``raw_norm_sq = avg_norm_sq + centered_norm_sq``.
    """

    centered: np.ndarray
    output_avg: np.ndarray
    input_dist: Distribution
    noise: Distribution
    raw_norm_sq: float
    avg_norm_sq: float
    centered_norm_sq: float

    def inner(self, other: "CenteredDirection") -> float:
        return inner(self.centered, other.centered, self.input_dist, self.noise)


def _shared_noise(dirs) -> Distribution:
    """The noise distribution of ``dirs[0]``, which every other direction must share."""
    noise = dirs[0].noise
    if any(not np.array_equal(d.noise.probs, noise.probs) for d in dirs[1:]):
        raise ValueError("all directions must share the noise distribution")
    return noise


def _gram(dirs, input_dist: Distribution):
    """Output averages, centered parts, and the raw and centered Gram matrices of ``dirs``.

    The Grams hold ``<L_k, L_j>`` and ``<Ltil_k, Ltil_j>``.  The centered one
    is summed from the centered parts, so its diagonal adds nonnegative terms
    and no squared norm comes out as a negative roundoff.  Each centered row
    ``Ltil(a) = sum_a' P_X(a') (L(a) - L(a'))`` is averaged from row
    differences, so an input-independent direction centers to exactly zero
    even when ``P_X`` sums to one only up to roundoff.
    """
    noise = _shared_noise(dirs)
    if any(d.nx != input_dist.size for d in dirs):
        raise ValueError("input distribution size must match the direction rows")
    v = np.stack([d.values for d in dirs])
    avg = input_dist.probs @ v
    til = input_dist.probs @ (v[:, :, None] - v[:, None])
    w = np.outer(input_dist.probs, noise.probs).ravel()
    raw, cen = v.reshape(len(dirs), -1), til.reshape(len(dirs), -1)
    return avg, til, (raw * w) @ raw.T, (cen * w) @ cen.T


def center(direction: Direction, input_dist: Distribution) -> CenteredDirection:
    """Split a direction into output average plus centered remainder."""
    avg, til, g, gt = _gram((direction,), input_dist)
    return CenteredDirection(
        centered=til[0],
        output_avg=avg[0],
        input_dist=input_dist,
        noise=direction.noise,
        raw_norm_sq=float(g[0, 0]),
        avg_norm_sq=float(np.sum(direction.noise.probs * avg[0] * avg[0])),
        centered_norm_sq=float(gt[0, 0]),
    )


@dataclass(frozen=True)
class DirectionSet:
    """A finite compound set of directions sharing one noise distribution."""

    directions: tuple[Direction, ...]
    components: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        dirs = tuple(self.directions)
        if not dirs:
            raise ValueError("DirectionSet: need at least one direction")
        shape = dirs[0].values.shape
        for k, d in enumerate(dirs):
            if d.values.shape != shape:
                raise ValueError(f"DirectionSet: direction {k} has mismatched shape")
        _shared_noise(dirs)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "components", partition(self.components, len(dirs), "DirectionSet"))

    @property
    def noise(self) -> Distribution:
        return self.directions[0].noise

    @property
    def size(self) -> int:
        return len(self.directions)

    def restrict(self, indices) -> "DirectionSet":
        return DirectionSet(tuple(self.directions[i] for i in indices))


@dataclass
class VnCapacityResult:
    value: float
    worst_index: int
    norms: np.ndarray
    tie: bool
    tie_indices: tuple[int, ...]


def vn_compound_capacity(dset: DirectionSet, input_dist: Distribution) -> VnCapacityResult:
    """Minimum centered squared norm over the set, with the worst direction."""
    *_, gt = _gram(dset.directions, input_dist)
    norms = gt.diagonal().copy()
    idx, tied = min_with_ties(norms)
    return VnCapacityResult(
        value=float(norms[idx]),
        worst_index=idx,
        norms=norms,
        tie=len(tied) > 1,
        tie_indices=tied,
    )


def vn_is_one_sided(dset: DirectionSet, input_dist: Distribution) -> OneSidedVerdict:
    """Check ``|Ltil0|^2 - |LtilS|^2 - |Ltil0 - LtilS|^2 >= 0`` for every member.

    The local limit of the divergence split, judged by ``one_sided_verdict``.
    Expanding the last norm gives the margin ``2 (<Ltil0, LtilS> - |LtilS|^2)``,
    two entries of the centered Gram: a nonnegative inner product with the
    worst direction whose projection dominates the worst norm.
    """
    *_, gt = _gram(dset.directions, input_dist)
    return one_sided_verdict(gt.diagonal(), 2.0 * (gt - gt.diagonal()[None, :]), "direction")


def _case_rate(scores: np.ndarray, gt: np.ndarray) -> float:
    """Very-noisy rate of a generalized decoder: the minimum of its one-metric rates.

    ``gt`` is the centered Gram of the true direction and the metric
    directions, in that order, and ``scores[k]`` the case score of metric
    ``k``.  Alone, metric ``k`` has the threshold ``<Ltil0, Ltil_k>``.  In
    the case ``w`` of the best case score that threshold rises by the score
    lead of ``w`` over ``k``: ``tau_k = <Ltil0, Ltil_k> + scores[w] - scores[k]``,
    with the rate ``tau_k^2 / |Ltil_k|^2`` (0 if ``tau_k <= 0``, inf if the
    norm is 0).  Ties on the case boundary are resolved adversarially: every
    tied case counts.
    """
    smax = float(scores.max())
    winners = np.flatnonzero(scores >= smax - _CASE_TIE_TOL * max(1.0, abs(smax)))
    rates = []
    for w in winners:
        for tau, den in zip(gt[0, 1:] + (scores[w] - scores), gt.diagonal()[1:]):
            rates.append(0.0 if tau <= 0.0 else math.inf if den <= 0.0 else tau * tau / den)
    return float(min(rates))


def vn_glrt_rate(true_dir: Direction, worsts, input_dist: Distribution) -> float:
    """Rate of the generalized likelihood-ratio decoder with the given metrics.

    The case of metric ``l`` scores ``<L0, Ll> - |Ll|^2 / 2``, larger meaning
    closer in the raw (non-centered) metric distance.
    """
    worsts = list(worsts)
    if not worsts:
        raise ValueError("vn_glrt_rate: need at least one metric direction")
    *_, g, gt = _gram((true_dir, *worsts), input_dist)
    return _case_rate(g[0, 1:] - 0.5 * g.diagonal()[1:], gt)


def vn_gmap_rate(true_dir: Direction, worsts, input_dist: Distribution) -> float:
    """Rate of the generalized MAP decoder with the given metric directions.

    Same structure as the likelihood-ratio case, but the case scores
    ``<Ltil0, Ltill> - |Ltill|^2 / 2`` live in centered coordinates, which is
    what restores the one-sided guarantee.
    """
    worsts = list(worsts)
    if not worsts:
        raise ValueError("vn_gmap_rate: need at least one metric direction")
    *_, gt = _gram((true_dir, *worsts), input_dist)
    return _case_rate(gt[0, 1:] - 0.5 * gt.diagonal()[1:], gt)


def vn_mismatched_rate(true_dir: Direction, metric_dir: Direction, input_dist: Distribution) -> float:
    """Projection rate ``<Ltil0, Ltil1>^2 / |Ltil1|^2`` (zero on a negative inner product): the one-metric ``vn_gmap_rate``."""
    return vn_gmap_rate(true_dir, [metric_dir], input_dist)


def embed(direction: Direction, eps: float) -> Channel:
    """The channel ``N(b) (1 + eps L(a,b))`` at a finite perturbation size.

    Rejects ``eps`` values that push any factor ``1 + eps L`` below
    ``EMBED_MIN_ENTRY``: embedded channels must stay strictly positive
    wherever the noise is.
    """
    factors = 1.0 + eps * direction.values
    if factors.min() < EMBED_MIN_ENTRY:
        raise ValueError(
            f"eps={eps} is inadmissible: 1 + eps*L reaches {factors.min():.3e}"
        )
    m = direction.noise.probs[None, :] * factors
    return Channel(m / m.sum(axis=1, keepdims=True))


@dataclass
class GapRow:
    """One row of a convergence table: exact rescaled value vs. its limit."""

    eps: float
    scaled: float
    limit: float
    gap: float


def _gap_rows(exact_at, limit: float, eps_list) -> list[GapRow]:
    """One row per ``eps``: the exact value ``exact_at(eps)`` rescaled by ``2/e^2`` against ``limit``."""
    rows = []
    for eps in eps_list:
        scaled = 2.0 / eps**2 * exact_at(eps)
        rows.append(GapRow(eps, scaled, limit, abs(scaled - limit)))
    return rows


def divergence_gap_table(dist: Distribution, direction, eps_list) -> list[GapRow]:
    """How fast ``(2/e^2) D(p(1+ev) || p)`` approaches the weighted norm of v."""
    p = dist.probs
    v = np.asarray(direction, dtype=float)
    if abs(float(np.sum(p * v))) > 1e-9:
        raise ValueError("direction must be p-orthogonal to constants: sum p*v = 0")

    def exact_at(eps):
        perturbed = p * (1.0 + eps * v)
        if perturbed.min() < 0.0:
            raise ValueError(f"eps={eps} leaves the simplex")
        return kl_divergence(perturbed / perturbed.sum(), p)

    return _gap_rows(exact_at, float(np.sum(p * v * v)), eps_list)


def expected_log_gap_table(
    dirs: tuple[Direction, Direction, Direction, Direction],
    input_dist: Distribution,
    eps_list,
) -> list[GapRow]:
    """Second-order expansion check for differences of expected log metrics.

    For directions (i, j, k, l) with matching input-averaged first pair, the
    difference ``E_(mu_i) log W_j - E_(mu_k) log W_l`` rescaled by ``2/e^2``
    tends to ``2 [ (<Li,Lj> - |Lj|^2/2) - (<Lk,Ll> - |Ll|^2/2) ]``.
    """
    di, dj, dk, dl = dirs
    avg, _, g, _ = _gram(dirs, input_dist)
    if np.abs(avg[0] - avg[2]).max() > 1e-9:
        raise ValueError("first and third directions must share the input-averaged row")

    def exact_at(eps):
        mu_i = joint_of(input_dist, embed(di, eps)).matrix
        mu_k = joint_of(input_dist, embed(dk, eps)).matrix
        log_wj = np.log(embed(dj, eps).matrix)
        log_wl = np.log(embed(dl, eps).matrix)
        return float(np.sum(mu_i * log_wj)) - float(np.sum(mu_k * log_wl))

    limit = 2.0 * ((g[0, 1] - 0.5 * g[1, 1]) - (g[2, 3] - 0.5 * g[3, 3]))
    return _gap_rows(exact_at, float(limit), eps_list)


def mismatched_rate_gap_table(
    true_dir: Direction,
    metric_dir: Direction,
    input_dist: Distribution,
    eps_list,
) -> list[GapRow]:
    """Exact solver rate on embedded channels vs. the projection limit.

    One record over the true channel embedded at every ``eps`` rates them
    all, so their projections are solved in one batch.
    """
    limit = vn_mismatched_rate(true_dir, metric_dir, input_dist)
    eps_list = tuple(eps_list)
    if not eps_list:
        return []
    metrics, channels = [], []
    for eps in eps_list:
        metrics.append(Metric(np.log(embed(metric_dir, eps).matrix)))
        channels.append(embed(true_dir, eps))
    record = SetAnalysis(CompoundSet(tuple(channels)), input_dist)
    exact = dict(zip(eps_list, record.rates([(k, [d]) for k, d in enumerate(metrics)])))
    return _gap_rows(exact.__getitem__, limit, eps_list)


def checked_epsilons(eps_list, noun: str) -> tuple[float, ...]:
    """``eps_list`` as a nonempty tuple of distinct, finite, positive eps whose table scale ``2 / eps**2`` is finite.

    A ``ValueError`` names the first eps that fails, and ``noun``.  An eps
    whose square overflows or underflows has no scale.  A repeated eps
    would repeat a row, and so would two eps with the same 6-significant-digit
    form ``f"{eps:g}"``, which keys a row of ``vn sweep``'s report.
    """
    eps_list = tuple(eps_list)
    if not eps_list:
        raise ValueError(f"{noun} must list at least one value")
    for k, eps in enumerate(eps_list):
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"{noun} must be finite and positive, got {eps}")
        square = float(eps) * float(eps)
        if not (0.0 < square < math.inf and math.isfinite(2.0 / square)):
            raise ValueError(f"{noun} must keep eps^2 and 2/eps^2 finite and positive, got {eps}")
        for prev in eps_list[:k]:
            if prev == eps:
                raise ValueError(f"{noun} must be distinct, got {eps} twice")
            if f"{prev:g}" == f"{eps:g}":
                raise ValueError(f"{noun} must be distinct in 6 significant digits, got {prev} and {eps}")
    return eps_list


def vn_limit_gap(dset: DirectionSet, input_dist: Distribution, eps_list) -> dict[str, list[GapRow]]:
    """The three limit-gap tables of ``vn sweep`` over ``eps_list``, keyed by kind.

    ``L0`` is the first direction and ``L1`` the second (``L0`` again in a
    one-direction set).  ``divergence`` perturbs the noise along the first
    row of ``L0``, ``expected_log`` compares ``(L0, L1)`` with ``(L0, L0)``,
    and ``mismatched_rate`` scores ``L0`` with the metric of ``L1``.  The
    eps are checked once, by ``checked_epsilons``.
    """
    eps_list = checked_epsilons(eps_list, "eps")
    l0, l1 = dset.directions[0], dset.directions[min(1, dset.size - 1)]
    return {
        "divergence": divergence_gap_table(dset.noise, l0.values[0], eps_list),
        "expected_log": expected_log_gap_table((l0, l1, l0, l0), input_dist, eps_list),
        "mismatched_rate": mismatched_rate_gap_table(l0, l1, input_dist, eps_list),
    }


@dataclass
class BlindPolytopeResult:
    """Guaranteed rate of a compound-set-agnostic metric family."""

    value: float
    capacity: float
    ratio: float
    limiting_index: int


def blind_polytope_rate(metric_dirs, dset: DirectionSet, input_dist: Distribution) -> BlindPolytopeResult:
    """Worst-case projection rate of fixed metric directions over a set.

    ``min over members of max over metrics`` of ``vn_mismatched_rate``; the
    ratio to the set's own capacity measures what the fixed family gives up
    for not knowing the set.
    """
    metric_dirs = list(metric_dirs)
    if not metric_dirs:
        raise ValueError("blind_polytope_rate: need at least one metric direction")
    k = dset.size
    *_, gt = _gram((*dset.directions, *metric_dirs), input_dist)
    norms = gt.diagonal()
    if norms[k:].min() <= 0.0:
        raise ValueError("blind metric directions must have nonzero centered part")
    rates = (np.maximum(gt[:k, k:], 0.0) ** 2 / norms[k:]).max(axis=1)
    arg = int(np.argmin(rates))
    value, cap = float(rates[arg]), float(norms[:k].min())
    ratio = math.inf if cap <= 0.0 else value / cap
    return BlindPolytopeResult(value=value, capacity=cap, ratio=ratio, limiting_index=arg)
