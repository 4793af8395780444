"""Exact finite-alphabet probability primitives.

Distributions, discrete memoryless channels (row-stochastic matrices) and
joint distributions over X x Y, together with KL divergence and mutual
information.  Everything is computed in nats; conversion to bits is a
display concern (divide by ``log(2)``).

Probabilities below ``SUPPORT_FLOOR`` are treated as exact zeros when
deciding support questions, so ``0 * log(0 / q) == 0`` and a KL divergence
with a genuine support violation returns ``math.inf`` rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numeric noise floor: anything below this counts as an exact zero.
SUPPORT_FLOOR = 1e-15

# Tolerance on "sums to one" invariants.
SUM_TOL = 1e-12

NATS_PER_BIT = math.log(2.0)

# Rows of ``p`` per block of ``kl_table``: its temporaries hold this many
# rows times ``len(q)`` times the array size, not ``len(p)`` rows.
_KL_BLOCK_ROWS = 16


def _validated(arr, name: str) -> np.ndarray:
    a = np.array(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    if a.min(initial=0.0) < -SUM_TOL:
        raise ValueError(f"{name}: negative entry {a.min()}")
    a = np.maximum(a, 0.0)
    a.flags.writeable = False
    return a


def _values(x) -> np.ndarray:
    """Unwrap Distribution/Channel/Joint to the underlying array."""
    if isinstance(x, Distribution):
        return x.probs
    if isinstance(x, (Channel, Joint)):
        return x.matrix
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = _validated(self.probs, "Distribution")
        if p.ndim != 1:
            raise ValueError("Distribution: expected a 1-d vector")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"Distribution: entries sum to {p.sum()}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Channel:
    """A discrete memoryless channel: an |X| x |Y| row-stochastic matrix.

    Row ``a`` is the conditional output distribution given input ``a``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        w = _validated(self.matrix, "Channel")
        if w.ndim != 2:
            raise ValueError("Channel: expected a 2-d matrix")
        rowsums = w.sum(axis=1)
        bad = np.abs(rowsums - 1.0) > SUM_TOL
        if bad.any():
            a = int(np.argmax(bad))
            raise ValueError(f"Channel: row {a} sums to {rowsums[a]}, not 1")
        object.__setattr__(self, "matrix", w)

    @property
    def nx(self) -> int:
        return self.matrix.shape[0]

    @property
    def ny(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def bsc(crossover: float) -> "Channel":
        """Binary symmetric channel with the given crossover probability."""
        if not 0.0 <= crossover <= 1.0:
            raise ValueError("crossover must lie in [0, 1]")
        q = crossover
        return Channel(np.array([[1.0 - q, q], [q, 1.0 - q]]))

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(np.eye(n))

    @staticmethod
    def pure_noise(noise: Distribution, num_inputs: int) -> "Channel":
        """Channel whose output is independent of its input."""
        return Channel(np.tile(noise.probs, (num_inputs, 1)))

    def mix(self, other: "Channel", t: float) -> "Channel":
        """Convex combination (1-t) * self + t * other."""
        m = (1.0 - t) * self.matrix + t * other.matrix
        return Channel(m / m.sum(axis=1, keepdims=True))


@dataclass(frozen=True, eq=False)
class Joint:
    """A joint distribution on X x Y stored as an |X| x |Y| matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _validated(self.matrix, "Joint")
        if m.ndim != 2:
            raise ValueError("Joint: expected a 2-d matrix")
        if abs(m.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"Joint: entries sum to {m.sum()}, not 1")
        object.__setattr__(self, "matrix", m)

    @property
    def x_marginal(self) -> Distribution:
        return Distribution(self.matrix.sum(axis=1))

    @property
    def y_marginal(self) -> Distribution:
        return Distribution(self.matrix.sum(axis=0))

    @property
    def product(self) -> "Joint":
        """The independent coupling of the two marginals."""
        p = self.matrix.sum(axis=1)
        q = self.matrix.sum(axis=0)
        return Joint(np.outer(p, q))


def joint_of(input_dist: Distribution, channel: Channel) -> Joint:
    """Joint distribution with X-marginal ``input_dist`` and conditional ``channel``."""
    p = _values(input_dist)
    w = _values(channel)
    if p.shape[0] != w.shape[0]:
        raise ValueError(
            f"dimension mismatch: input has {p.shape[0]} symbols, channel has {w.shape[0]} rows"
        )
    return Joint(p[:, None] * w)


def decompose(mu: Joint) -> tuple[Distribution, Distribution, Joint]:
    """Return (X-marginal, Y-marginal, product of the marginals)."""
    return mu.x_marginal, mu.y_marginal, mu.product


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence ``sum p log(p/q)`` in nats.

    Accepts matching-shape Distribution, Joint, Channel rows or raw arrays.
    Returns ``math.inf`` when ``p`` puts mass outside the support of ``q``;
    ``0 log(0/.)`` contributes zero.  Roundoff below zero, which nearly equal
    arguments produce, is clamped to zero.  The one-pair case of ``kl_table``.
    """
    a = _values(p)
    b = _values(q)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(kl_table(a[None], b[None])[0, 0])


def kl_table(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``D(p[k] || q[s])`` for every pair of the stacked arrays ``p`` and ``q``.

    Entries below ``SUPPORT_FLOOR`` count as zeros: ``p[k]`` mass where
    ``q[s]`` has none gives ``math.inf``, and ``0 log(0/.)`` contributes
    zero, without a warning.  Each pair sums its terms over one contiguous
    row of the flattened arrays, so an entry has the same bits whatever else
    is stacked with it, and the table is built in blocks of rows of ``p``.
    """
    a = p.reshape(len(p), -1)
    b = q.reshape(len(q), -1)
    on = a > SUPPORT_FLOOR
    off_b = b <= SUPPORT_FLOOR
    log_a = np.log(np.where(on, a, 1.0))
    log_b = np.log(np.where(off_b, 1.0, b))
    table = np.empty((len(a), len(b)))
    for lo in range(0, len(a), _KL_BLOCK_ROWS):
        rows = slice(lo, lo + _KL_BLOCK_ROWS)
        terms = np.where(on[rows, None], a[rows, None] * (log_a[rows, None] - log_b[None]), 0.0)
        block = table[rows]
        np.maximum(terms.sum(axis=2), 0.0, out=block)
        block[(on[rows, None] & off_b[None]).any(axis=2)] = math.inf
    return table


def xlogy(x, y) -> np.ndarray:
    """``x * log(y)`` elementwise for nonnegative ``x`` (probabilities, counts).

    The values of ``scipy.special.xlogy`` there: ``0 * log(y) == 0`` for
    every ``y``, ``0 log 0`` included, and a positive ``x`` at ``y = 0``
    gives ``-inf`` without a warning.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0
    with np.errstate(divide="ignore"):
        return np.where(pos, x * np.log(np.where(pos, y, 1.0)), 0.0)


def mutual_information(input_dist: Distribution, channel: Channel) -> float:
    """Mutual information I(X;Y) in nats for the given input and channel."""
    mu = joint_of(input_dist, channel)
    return kl_divergence(mu, mu.product)
