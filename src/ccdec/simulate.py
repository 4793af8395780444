"""Random-codebook decoder simulation.

Codebooks are drawn i.i.d. from the input distribution, words are sent
through a memoryless channel, and a ``rates.Decoder`` scores codewords
through the joint empirical type of (codeword, received word): the maximum
over its metrics of the metric's type-expectation (a linear decoder has one
metric, whose maximum is that one expectation exactly), or, with no
metrics, the MMI decoder's mutual information of the type itself.

Input symbols are drawn by inverse CDF, one uniform per symbol: the letter
is the number of cumulative input probabilities (divided by their total)
at or below the uniform, which is the stream ``Generator.choice`` gives for
the same seed.  So a letter is ``>= a`` exactly when its uniform is
``>= thresholds[a - 1]``, and joint types are counted from these
comparisons: ``(words >= a) @ onehot(received)`` counts, per output letter,
the letters ``>= a``, and differences of consecutive counts give each
letter's row.  Every count is an integer in ``0..n``, so the MMI score
reads ``k log k`` from one table of ``n + 1`` entries:
``I = log n + (sum t[c_xy] - sum t[c_x] - sum t[c_y]) / n``.

Two error estimators share the same estimand (the ensemble-average error of
a fresh random codebook per trial) and one competitor rule: a competitor
reaches the true score ``s_true`` when it scores ``>= _tie_threshold(s_true)``,
and then the trial is an error, so ties are scored pessimistically.  Both
draw the true words one way, ``_true_words``: trial ``t``'s word ``msg`` of
its codebook stream (word 0 for the ensemble), sent through the channel and
scored.  Only the seeding of each trial's generators runs per trial; the
letters, channel outputs, joint types and scores of a chunk of trials take
one numpy pass each.  A chunk holds ``_CHUNK_SYMBOLS`` symbols, so each of
its buffers stays far below glibc's mmap threshold and is reused from the
heap: whole-batch arrays cost resident memory and page faults per call.

* ``method="codebook"`` decodes an explicit random codebook, which caps the
  number of codewords at desk scale.  The codebook is never materialized:
  word ``i`` of trial ``t`` is row ``i`` of its stream's ``(M, n)``
  uniforms, and the true word is drawn first, from a second bit generator
  advanced ``msg * n`` steps.  The competitors stream through one buffer,
  allocated once per call, in blocks of ``_FIRST_BLOCK`` rows and doubling;
  their joint types are counted straight from the uniforms, and the scan
  keeps only the best competitor score ``best``.  The trial is an error
  when ``best >= _tie_threshold(s_true)``, and a tie when also
  ``_tie_threshold(best) <= s_true``.  ``_tie_threshold`` is strictly below
  its argument and nondecreasing, so these are the counts ``decode``'s tie
  band gives on all ``M`` scores of the materialized codebook, and the scan
  stops at the first block with ``_tie_threshold(best) > s_true``: the
  trial is an error and not a tie whatever the unscanned rows hold;
* ``method="ensemble"`` draws only the true codeword and the channel output,
  then integrates the remaining ``M - 1`` i.i.d. competitors analytically.
  Conditioned on the received word, the competitor's joint type has
  independent per-output-symbol multinomial columns, so the probability
  that one competitor reaches the true score is an exact finite sum.  That
  sum runs over a grid of competitor joint types that depends on the
  received word only through its output type, so the competitors are
  integrated once per output type of the whole set, and each trial reads
  its tail mass off its type's grid.  A Bernoulli draw with the resulting
  conditional error probability keeps the trial counts honest, and the
  running mean of the conditional probabilities is also recorded (it
  resolves error probabilities far below 1/trials).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .probability import Channel, Distribution, xlogy
from .rates import CompoundSet, Decoder, _metric_values

# The error estimators.
METHODS = ("codebook", "ensemble")
# Most codewords the codebook method draws per trial.
CODEWORD_CAP = 2**14
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
_FIRST_BLOCK = 256  # codewords in a trial's first scanned block; each later block doubles
_TYPE_BUDGET = 2_000_000  # joint types one output type's competitor grid may hold
# Symbols per chunk of true words: 32 KiB per float buffer, well under glibc's
# 128 KiB mmap threshold, so chunks reuse heap memory instead of faulting it in.
_CHUNK_SYMBOLS = 4096
_DECIMAL_LIMIT = 10**4300  # Python's default int-to-str conversion limit is 4300 digits

# Scores within this relative band of the maximum count as tied.  Makes the
# decoded index invariant under metric shifts d(a,b) + f(b), which move every
# score by the same amount exactly in real arithmetic but not in floats.
_TIE_BAND = 1e-11


def _tie_threshold(s_max: float) -> float:
    return s_max - _TIE_BAND * max(1.0, abs(s_max))


@dataclass(frozen=True, eq=False)
class Codebook:
    """M codewords of length n over the input alphabet."""

    words: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.words)
        if w.ndim != 2 or w.shape[0] < 1:
            raise ValueError("Codebook: expected an (M, n) symbol array")
        object.__setattr__(self, "words", w)

    @property
    def num_codewords(self) -> int:
        return self.words.shape[0]

    @property
    def block_length(self) -> int:
        return self.words.shape[1]


def generate_codebook(input_dist: Distribution, block_length: int, num_codewords: int, seed) -> Codebook:
    """Draw every symbol i.i.d. from the input distribution; deterministic in the seed."""
    if block_length < 1:
        raise ValueError("block_length must be at least 1")
    if num_codewords < 2:
        raise ValueError("need at least 2 codewords")
    return Codebook(_draw_symbols(input_dist.probs, (num_codewords, block_length), seed))


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """The inverse-CDF cuts: a uniform ``u`` draws the letter ``#{c : u >= c}``."""
    cdf = np.cumsum(probs)
    return cdf[:-1] / cdf[-1]


def _draw_symbols(probs: np.ndarray, shape, seed) -> np.ndarray:
    """I.i.d. letters by inverse CDF, one uniform each: the stream of ``Generator.choice``.

    ``seed`` is anything ``np.random.default_rng`` takes, a bit generator too.
    """
    return _letters(np.random.default_rng(seed).random(shape), _thresholds(probs))


def _letters(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The letter ``#{c in thresholds : u >= c}`` of each uniform, as int64."""
    if not thresholds.size:  # one letter
        return np.zeros(u.shape, dtype=np.int64)
    letters = (u >= thresholds[0]).astype(np.int64)
    for c in thresholds[1:]:
        letters += u >= c
    return letters


def transmit(channel: Channel, codeword, seed) -> np.ndarray:
    """Pass a codeword through the channel, sampling each symbol independently."""
    x = np.asarray(codeword)
    return _outputs(np.cumsum(channel.matrix, axis=1), x, np.random.default_rng(seed).random(x.shape))


def _outputs(cum: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Channel outputs by inverse CDF: ``#{b < |Y| - 1 : cum[x, b] <= u}`` per symbol, as int64.

    ``cum`` holds the cumulative sums of the channel's rows; each row is
    nondecreasing, so the cuts at or below ``u`` are a prefix of the row,
    and a uniform past the last cut (a row summing to just below 1) reads
    the last letter.
    """
    y = np.zeros(x.shape, dtype=np.int64)
    for b in range(cum.shape[1] - 1):
        y += cum[:, b][x] <= u
    return y


def joint_type_counts(words: np.ndarray, received: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Per-codeword joint symbol counts with the received word: (M, nx, ny), exact in float64 below 2^53."""
    onehot = (received[:, None] == np.arange(ny)).astype(float)
    counts = _count_joint_types(words, range(1, nx), onehot, np.empty(words.shape))
    return counts.astype(np.int64)


def _count_joint_types(source: np.ndarray, cuts, onehot: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Joint counts (m, nx, ny), as floats, of the letters ``#{c in cuts : source >= c}`` with a received word.

    ``onehot`` is the received word's (n, ny) indicator matrix and ``buf`` an
    (m, n) float scratch array.  Row ``a`` of each type first holds the
    count of letters ``>= a`` per output letter: the output counts for
    ``a = 0``, else one product ``(source >= cuts[a - 1]) @ onehot``.
    Subtracting row ``a + 1`` leaves the letters equal to ``a``.
    """
    counts = np.empty((source.shape[0], len(cuts) + 1, onehot.shape[1]))
    counts[:, 0] = onehot.sum(axis=0)
    for a, c in enumerate(cuts, start=1):
        counts[:, a] = np.greater_equal(source, c, out=buf) @ onehot
    counts[:, :-1] -= counts[:, 1:]
    return counts


@functools.cache
def _count_log_counts(n: int) -> np.ndarray:
    """``k log k`` for ``k = 0..n`` (``0 log 0 = 0``), read-only."""
    k = np.arange(n + 1)
    table = xlogy(k, k)
    table.flags.writeable = False
    return table


def _row_sums(a: np.ndarray, weights: np.ndarray, alone: bool) -> np.ndarray:
    """``a @ weights`` for an (m, k) array; with ``alone``, each row as a (1, k) product of its own.

    A BLAS product's rounding depends on the number of rows and on a row's
    place among them, so only ``alone`` gives every row the bits it has as
    a one-row array, wherever it sits.
    """
    return (a[:, None] @ weights)[:, 0] if alone else a @ weights


def _type_mutual_information(counts: np.ndarray, n: int, y_counts: np.ndarray | None = None) -> np.ndarray:
    """Mutual information (nats) of each joint type with its received word's output counts.

    With ``t[k] = k log k`` and counts summing to ``n``,
    ``I = log n + (sum t[c_xy] - sum t[c_x] - sum t[c_y]) / n``.  Without
    ``y_counts`` every type shares one received word, so the output term is
    one number; with one row of output counts per type, each type has a
    word of its own and is scored alone (``_row_sums``).
    """
    t = _count_log_counts(n)
    m, nx, ny = counts.shape
    alone = y_counts is not None
    s_xy = _row_sums(np.take(t, counts.reshape(m, -1)), np.ones(nx * ny), alone)
    s_x = _row_sums(np.take(t, counts.sum(axis=2)), np.ones(nx), alone)
    s_y = np.take(t, counts[0].sum(axis=0) if y_counts is None else y_counts).sum(axis=-1)
    return math.log(n) + (s_xy - s_x - s_y) / n


def score_codewords(received: np.ndarray, codebook: Codebook, decoder: Decoder, nx: int, ny: int) -> np.ndarray:
    """Score every codeword against the received word via its joint type."""
    return _score_types(joint_type_counts(codebook.words, received, nx, ny), decoder, codebook.block_length)


def _score_types(counts: np.ndarray, decoder: Decoder, n: int, y_counts: np.ndarray | None = None) -> np.ndarray:
    """Each joint type's score: the best metric's type-expectation, or with no metrics its mutual information.

    ``y_counts`` as in ``_type_mutual_information``: given, each type is
    scored alone, bit for bit as ``score_codewords`` scores it.
    """
    if not decoder.metrics:
        return _type_mutual_information(counts.astype(np.int64, copy=False), n, y_counts)
    flat = counts.reshape(counts.shape[0], -1)
    alone = y_counts is not None
    return np.stack([_row_sums(flat, _metric_values(d).ravel(), alone) / n for d in decoder.metrics]).max(axis=0)


def decode(received: np.ndarray, codebook: Codebook, decoder: Decoder, nx: int, ny: int) -> int:
    """Index of the best-scoring codeword (lowest index within the tie band)."""
    if received.shape[0] != codebook.block_length:
        raise ValueError("received word length must match the codebook")
    scores = score_codewords(received, codebook, decoder, nx, ny)
    return int(np.argmax(scores >= _tie_threshold(float(scores.max()))))


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    z = _WILSON_Z
    p = errors / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, centre - half)
    high = 1.0 if errors == trials else min(1.0, centre + half)
    return low, high


@dataclass
class TrialStats:
    """Error statistics for one channel of a compound set.

    ``tie_errors`` is None in ensemble mode, whose draw does not say whether
    the competitor that reached the true score tied it; ``mean_error_prob``
    is None in codebook mode.
    """

    channel_index: int
    trials: int
    errors: int
    tie_errors: int | None
    error_rate: float
    wilson_low: float
    wilson_high: float
    mean_error_prob: float | None
    num_codewords: int
    block_length: int
    method: str
    seed: int

    def __post_init__(self):
        if self.errors > self.trials:
            raise ValueError("errors cannot exceed trials")


def _blocks(m: int):
    """Row ranges ``[lo, hi)`` covering ``0..m``: ``_FIRST_BLOCK`` rows, then doubling."""
    lo, size = 0, _FIRST_BLOCK
    while lo < m:
        hi = min(m, lo + size)
        yield lo, hi
        lo, size = hi, 2 * size


def _true_words(channel, decoder, input_dist, n, seed, ch_idx, msgs):
    """Codeword ``msgs[t]`` of each trial ``t`` of channel ``ch_idx`` sent through ``channel``, a chunk at a time.

    Yields ``(lo, received, y_counts, scores)`` per chunk of trials
    ``lo, lo + 1, ...``: their received words ``(rows, n)``, output counts
    ``(rows, |Y|)`` and true scores ``(rows,)``.  Trial ``t`` reads its word
    from ``PCG64([seed, ch_idx, t, 0])`` advanced ``msgs[t] * n`` draws and
    its channel uniforms from ``[seed, ch_idx, t, 2]``, and its score is bit
    for bit that of ``score_codewords`` on the word alone.  Only the
    seeding is per trial; a chunk's letters, outputs, joint types (one
    ``bincount``) and scores take one pass each.
    """
    nx, ny = channel.nx, channel.ny
    rows = max(1, _CHUNK_SYMBOLS // n)
    word_u = np.empty((rows, n))
    channel_u = np.empty((rows, n))
    thresholds = _thresholds(input_dist.probs)
    cum = np.cumsum(channel.matrix, axis=1)
    for lo in range(0, len(msgs), rows):
        m = min(rows, len(msgs) - lo)
        for i, t in enumerate(range(lo, lo + m)):
            np.random.Generator(np.random.PCG64([seed, ch_idx, t, 0]).advance(msgs[t] * n)).random(out=word_u[i])
            np.random.default_rng([seed, ch_idx, t, 2]).random(out=channel_u[i])
        x = _letters(word_u[:m], thresholds)
        y = _outputs(cum, x, channel_u[:m])
        cells = x * ny + y + np.arange(0, m * nx * ny, nx * ny)[:, None]
        counts = np.bincount(cells.ravel(), minlength=m * nx * ny).reshape(m, nx, ny)
        y_counts = counts.sum(axis=1)
        yield lo, y, y_counts, _score_types(counts, decoder, n, y_counts)


def _scan_codebook(rng, thresholds, onehot, decoder, scratch, num_codewords, msg, s_true) -> float:
    """The best competitor score of a trial's codebook, block by block from its uniform stream ``rng``.

    Word ``i`` is row ``i`` of ``rng.random((M, n))`` and row ``msg``, the
    true word, is no competitor; ``onehot`` is the received word's indicator
    matrix and ``scratch`` two (rows, n) arrays.  Stops at the first block
    that brings ``_tie_threshold(best)`` above ``s_true``.
    """
    uniforms, indicators = scratch
    n = onehot.shape[0]
    best = -math.inf
    for lo, hi in _blocks(num_codewords):
        u = uniforms[: hi - lo]
        rng.random(out=u)
        scores = _score_types(_count_joint_types(u, thresholds, onehot, indicators[: hi - lo]), decoder, n)
        if lo <= msg < hi:
            scores[msg - lo] = -math.inf
        best = max(best, float(scores.max()))
        if _tie_threshold(best) > s_true:
            break
    return best


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every split of ``total`` into ``parts`` ordered nonnegative counts, one per row.

    Stars and bars: each choice of ``parts - 1`` bar slots among
    ``total + parts - 1`` gives the gaps between consecutive bars.
    """
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    bars = bars.reshape(math.comb(slots, parts - 1), parts - 1)  # one empty row when parts == 1
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), slots)])
    return np.diff(edges, axis=1) - 1


def _outer_sum(terms) -> np.ndarray:
    """Grid with axis b holding ``terms[b]``: entry (i0, i1, ...) is the sum of ``terms[b][ib]``."""
    total = np.zeros((), dtype=np.int64)  # integer terms give an integer grid
    for t in terms:
        total = total[..., None] + t
    return total


@functools.cache
def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for ``k = 0..n``, read-only."""
    table = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    table.flags.writeable = False
    return table


def _competitor_grid(y_counts, input_dist, decoder, n) -> tuple[np.ndarray, np.ndarray]:
    """Every joint type an i.i.d. competitor can have with a received word: (probability, score) grids.

    Given the received word, the competitor's joint type is one input-count
    column per output letter b, a multinomial of ``n_b`` draws from the input
    distribution, independently across letters.  Every joint type is one
    point of the grid spanned by the per-letter columns.  Every count lies
    in ``0..n``, so the multinomial coefficients come from one table of
    ``log k!`` and the MMI score from one table of ``k log k``.  The grids
    depend on the received word only through its output counts ``y_counts``;
    the probability that a competitor scores at least ``threshold`` is
    ``prob[score >= threshold].sum()``.
    """
    nx = input_dist.size
    size = math.prod(math.comb(int(n_b) + nx - 1, nx - 1) for n_b in y_counts)
    if size > _TYPE_BUDGET:
        count = f"{size:.2e}" if size < 1e300 else f"10^{math.log10(size):.0f}"  # an int past 1e308 has no float
        raise ValueError(
            f"analytic competitor integration needs {count} joint types at block length {n}, "
            f"over the budget of {_TYPE_BUDGET:.2e}; use method='codebook'"
        )
    cols = [_compositions(int(n_b), nx) for n_b in y_counts]
    log_fact = _log_factorials(n)
    logprob = _outer_sum(
        log_fact[n_b] - log_fact[c].sum(axis=1) + xlogy(c, input_dist.probs).sum(axis=1)
        for n_b, c in zip(y_counts, cols)
    )
    if not decoder.metrics:  # the sums of ``_type_mutual_information`` over the grid
        t = _count_log_counts(n)
        s_xy = _outer_sum(t[c].sum(axis=1) for c in cols)
        s_x = sum(t[_outer_sum(c[:, a] for c in cols)] for a in range(nx))
        score = math.log(n) + (s_xy - s_x - t[y_counts].sum()) / n
    else:
        per_metric = (
            _outer_sum(c @ _metric_values(d)[:, b] for b, c in enumerate(cols)) / n
            for d in decoder.metrics
        )
        score = functools.reduce(np.maximum, per_metric)
    return np.exp(logprob), score


def _any_competitor_reaches(q: float, num_codewords: int) -> float:
    """``1 - (1 - q)^(M - 1)``: the chance that one of ``M - 1`` i.i.d. competitors reaches the true score.

    ``(M - 1) log(1 - q)`` is formed from ``log(M - 1)`` once ``M - 1`` no
    longer converts to a float (``n * rate_bits`` above 1024 bits); its
    magnitude is capped at ``e^40``, where the result is already 1.0.
    """
    if q >= 1.0:
        return 1.0
    if q <= 0.0:
        return 0.0
    try:
        log_none = (num_codewords - 1) * math.log1p(-q)
    except OverflowError:
        log_none = -math.exp(min(math.log(num_codewords - 1) + math.log(-math.log1p(-q)), 40.0))
    return -math.expm1(log_none)


def format_count(count: int) -> int | str:
    """``count`` if it has at most 4300 digits, else the exact text ``"m*2^e"`` with ``m`` odd.

    Such a count is ``ceil(2^bits)`` past the float range, a 53-bit integer
    times a power of two, so ``m`` stays short.
    """
    if count < _DECIMAL_LIMIT:
        return count
    e = (count & -count).bit_length() - 1
    return f"{count >> e}*2^{e}"


def check_parameter(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is admissible as ``estimate_error``'s ``name`` argument.

    Rules for ``block_length``, ``trials``, ``seed`` and ``rate_bits``; other
    names pass.  A scenario's simulation block is checked by the same rules.
    """
    if name == "block_length" and value < 1:
        raise ValueError("block_length must be at least 1")
    if name == "trials" and value < 0:
        raise ValueError("trials must be nonnegative")
    if name == "seed" and value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    if name == "rate_bits":
        if not math.isfinite(value):
            raise ValueError(f"rate_bits must be finite, got {value}")
        if value <= 0.0:
            raise ValueError("rate_bits must be positive")


def estimate_error(
    cset: CompoundSet,
    decoder: Decoder,
    input_dist: Distribution,
    block_length: int,
    rate_bits: float,
    trials: int,
    seed: int,
    *,
    method: str = "codebook",
) -> list[TrialStats]:
    """Per-channel error statistics at rate ``rate_bits`` (bits per symbol).

    The codeword count is ``M = ceil(2^(n * rate_bits))``.  In codebook mode
    M must be at most ``CODEWORD_CAP``; ensemble mode handles any M.
    """
    for name, value in (("block_length", block_length), ("trials", trials), ("seed", seed), ("rate_bits", rate_bits)):
        check_parameter(name, value)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = block_length
    bits = n * rate_bits
    try:
        num_codewords = max(2, math.ceil(2.0 ** bits))
    except OverflowError:  # past the float range: 2^frac(bits) as a float, times 2^floor(bits) exactly
        num_codewords = int(math.ldexp(2.0 ** (bits % 1), 52)) << (math.floor(bits) - 52)
    if method == "codebook" and num_codewords > CODEWORD_CAP:
        raise ValueError(
            f"M={format_count(num_codewords)} codewords exceeds the cap {CODEWORD_CAP}; "
            "lower the rate or blocklength, or use method='ensemble'"
        )

    nx = cset.channels[0].nx
    ny = cset.channels[0].ny
    if input_dist.size != nx:
        raise ValueError("input distribution does not match the channel input alphabet")

    if method == "ensemble":
        # Draw every trial's true codeword and output, grouping the trials of the whole set by output type.
        true_scores = np.empty((cset.size, trials))
        by_type: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for ch_idx, channel in enumerate(cset.channels):
            for lo, _, y_counts, scores in _true_words(channel, decoder, input_dist, n, seed, ch_idx, [0] * trials):
                true_scores[ch_idx, lo : lo + len(scores)] = scores
                for t, row in enumerate(y_counts.tolist(), start=lo):
                    by_type.setdefault(tuple(row), []).append((ch_idx, t))
        # Build each output type's competitor grid once; its trials read their tail mass off it.
        q = np.empty((cset.size, trials))
        for y_counts, members in by_type.items():
            prob, score = _competitor_grid(np.array(y_counts), input_dist, decoder, n)
            for ch_idx, t in members:
                q[ch_idx, t] = prob[score >= _tie_threshold(float(true_scores[ch_idx, t]))].sum()
            del prob, score  # one grid alive at a time

    if method == "codebook":  # allocated once: every trial's scan reuses them
        thresholds = _thresholds(input_dist.probs)
        scratch = np.empty((2, max(hi - lo for lo, hi in _blocks(num_codewords)), n))

    out = []
    for ch_idx, channel in enumerate(cset.channels):
        errors = 0
        tie_errors = 0
        prob_sum = 0.0
        if method == "codebook":
            msgs = [int(np.random.default_rng([seed, ch_idx, t, 1]).integers(num_codewords)) for t in range(trials)]
            for lo, received, _, scores in _true_words(channel, decoder, input_dist, n, seed, ch_idx, msgs):
                for t, y, s_true in zip(range(lo, lo + len(scores)), received, scores.tolist()):
                    onehot = (y[:, None] == np.arange(ny)).astype(float)
                    rng = np.random.default_rng([seed, ch_idx, t, 0])
                    best = _scan_codebook(rng, thresholds, onehot, decoder, scratch, num_codewords, msgs[t], s_true)
                    if best >= _tie_threshold(s_true):
                        errors += 1
                        tie_errors += _tie_threshold(best) <= s_true
        else:
            for t in range(trials):
                e = _any_competitor_reaches(float(q[ch_idx, t]), num_codewords)
                prob_sum += e
                if np.random.default_rng([seed, ch_idx, t, 3]).random() < e:
                    errors += 1
        low, high = wilson_interval(errors, trials)
        out.append(
            TrialStats(
                channel_index=ch_idx,
                trials=trials,
                errors=errors,
                tie_errors=tie_errors if method == "codebook" else None,
                error_rate=errors / trials if trials else 0.0,
                wilson_low=low,
                wilson_high=high,
                mean_error_prob=prob_sum / trials if method == "ensemble" and trials else None,
                num_codewords=num_codewords,
                block_length=n,
                method=method,
                seed=seed,
            )
        )
    return out
