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

Every trial seeds its generators from ``[seed, channel, trial, k]``: the
true word from ``k = 0``, the message from 1, the channel from 2 and the
ensemble's Bernoulli draw from 3.  ``_trial_states`` runs numpy's
``SeedSequence`` hash and PCG64 seeding for all trials of a channel in one
vectorized pass, and one generator is reset to each state in turn, so
every stream is the one ``np.random.default_rng([seed, channel, trial, k])``
gives.

Two error estimators share the same estimand (the ensemble-average error of
a fresh random codebook per trial) and one competitor rule: a competitor
reaches the true score ``s_true`` when it scores ``>= _tie_threshold(s_true)``,
and then the trial is an error, so ties are scored pessimistically.  Both
draw the true words one way, ``_true_words``: trial ``t``'s word ``msg`` of
its codebook stream (word 0 for the ensemble), sent through the channel and
scored.  The letters, channel outputs, joint types and scores of a chunk of
trials take one numpy pass each.  A chunk holds ``_CHUNK_SYMBOLS`` symbols,
so each of its buffers stays far below glibc's mmap threshold and is reused
from the heap: whole-batch arrays cost resident memory and page faults per
call.

* ``method="codebook"`` decodes an explicit random codebook, which caps the
  number of codewords at desk scale.  The codebook is never materialized:
  word ``i`` of trial ``t`` is row ``i`` of its stream's ``(M, n)``
  uniforms, and the true word is drawn first, from the same stream
  advanced ``msg * n`` steps.  The competitors stream through one buffer,
  allocated once per call, in blocks of ``_FIRST_BLOCK`` rows and doubling.
  Their joint types are counted straight from the uniforms in column
  layout: for each letter ``a >= 1``, float32 indicators times a float32
  one-hot give a ``(|Y|, rows)`` array of the counts of letters ``>= a``
  per output letter, exact while ``n <= 2^24`` (a longer block is
  rejected).  Each block is scored
  with a few whole-array operations along axis 0 (``_competitor_scores``),
  and the scan keeps only the best competitor score ``best``.  Those scores
  equal ``score_codewords``' in exact arithmetic but are summed in another
  order, so they may differ from it by rounding, far inside ``_TIE_BAND``;
  the true score keeps ``score_codewords``' arithmetic.  The trial is an error
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
# Longest block whose codebook-scan type counts, sums of 0/1 floats, are exact in float32.
_EXACT_FLOAT32 = 2**24
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
    at_least = _counts_at_least(words, range(1, nx), onehot, np.empty(words.shape))
    counts = _letter_counts(at_least, onehot.sum(axis=0))
    return np.ascontiguousarray(counts.transpose(2, 0, 1), dtype=np.int64)


def _counts_at_least(source: np.ndarray, cuts, onehot: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Per output letter, the count of letters ``>= a`` for ``a = 1..len(cuts)``: (len(cuts), |Y|, rows).

    The letter of an entry of the (rows, n) ``source`` is
    ``#{c in cuts : entry >= c}``, so it is ``>= a`` exactly when the entry
    is ``>= cuts[a - 1]``.  ``onehot`` is the received word's (n, |Y|)
    indicator matrix and ``buf`` a (rows, n) scratch array of its dtype, in
    which every count is an exact integer: in float32 while ``n <= 2^24``,
    in float64 below 2^53.  Each product is formed (rows, |Y|), the shape
    BLAS multiplies fast, and stored transposed.
    """
    out = np.empty((len(cuts), onehot.shape[1], source.shape[0]), dtype=buf.dtype)
    for a, c in enumerate(cuts):
        out[a] = (np.greater_equal(source, c, out=buf) @ onehot).T
    return out


def _letter_counts(at_least: np.ndarray, y_counts: np.ndarray) -> np.ndarray:
    """Joint counts (nx, |Y|, rows) from ``_counts_at_least`` and the received word's output counts.

    Row ``a`` is the count of letters ``>= a`` less that of letters
    ``>= a + 1``, with the output counts for ``a = 0``.
    """
    counts = np.empty((at_least.shape[0] + 1, *at_least.shape[1:]), dtype=at_least.dtype)
    counts[0] = y_counts[:, None]
    counts[1:] = at_least
    counts[:-1] -= at_least
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), run on uint32
# lanes held in uint64 arrays.  Every constant is an np.uint64, so the lanes
# keep their dtype under numpy 1's value-based casting as under NEP 50.
_MASK32 = np.uint64(0xFFFF_FFFF)
_XSHIFT = np.uint64(16)
_MIX_MULT_L = np.uint64(0xCA01_F9DD)
_MIX_MULT_R = np.uint64(0x4973_F715)
_POOL_SIZE = 4
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int):
    """The running hash constant before and after each hash step, as np.uint64 pairs."""
    c = init
    while True:
        nxt = c * mult & 0xFFFF_FFFF
        yield np.uint64(c), np.uint64(nxt)
        c = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    c, nxt = next(consts)
    value = (value ^ c) * nxt & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> _XSHIFT


def _uint32_words(value: int) -> list[int]:
    """The entropy words of a nonnegative int, least significant first: ``[0]`` for 0."""
    words = [value & 0xFFFF_FFFF]
    while value := value >> 32:
        words.append(value & 0xFFFF_FFFF)
    return words


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` lane by lane, for at least 4 uint32 entropy lanes ``e``."""
    consts = _hash_constants(0x43B0_D7E5, 0x931E_8875)  # INIT_A, MULT_A
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], consts))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, consts))
    consts = _hash_constants(0x8B51_F9DD, 0x58F3_8DED)  # INIT_B, MULT_B
    state = [_hashmix(pool[i % _POOL_SIZE], consts) for i in range(8)]
    return [lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])]


def _trial_states(seed: int, ch_idx: int, ts, k: int) -> list[dict]:
    """The starting state of ``np.random.PCG64([seed, ch_idx, t, k])`` for each trial ``t`` of ``ts``.

    One hashed pass for all trials.  The entropy words are those
    ``SeedSequence`` takes from ``[seed, ch_idx, t, k]``: each int split
    into 32-bit words, so a ``t`` of 2^32 or more has two and is hashed
    with the others of its width.  The four uint64 words the hash generates
    are the 128-bit ``initstate`` and ``initseq`` of ``pcg64_srandom_r``,
    which sets ``inc = 2 initseq + 1`` and
    ``state = (inc + initstate) MULT + inc``.  Assigned to a PCG64's
    ``state``, each starts it where the seeded one starts, with no buffered
    32-bit draw.
    """
    t = np.asarray(ts, dtype=np.uint64)
    words = np.empty((4, len(t)), dtype=np.uint64)
    for wide in (False, True):
        idx = np.flatnonzero((t > _MASK32) == wide)
        if idx.size:
            fixed = [[np.full(idx.size, w, dtype=np.uint64) for w in _uint32_words(v)] for v in (seed, ch_idx, k)]
            lanes = [t[idx] & _MASK32, t[idx] >> np.uint64(32)][: 1 + wide]
            words[:, idx] = _seed_words(fixed[0] + fixed[1] + lanes + fixed[2])
    return [_pcg64_state(s_hi << 64 | s_lo, q_hi << 64 | q_lo) for s_hi, s_lo, q_hi, q_lo in zip(*words.tolist())]


def _pcg64_state(initstate: int, initseq: int) -> dict:
    inc = (initseq << 1 | 1) & _MASK128
    state = (initstate + inc) * _PCG64_MULT + inc & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _blocks(m: int):
    """Row ranges ``[lo, hi)`` covering ``0..m``: ``_FIRST_BLOCK`` rows, then doubling."""
    lo, size = 0, _FIRST_BLOCK
    while lo < m:
        hi = min(m, lo + size)
        yield lo, hi
        lo, size = hi, 2 * size


def _true_words(channel, decoder, input_dist, n, word_states, channel_states, msgs):
    """Codeword ``msgs[t]`` of each trial ``t`` sent through ``channel``, a chunk at a time.

    Yields ``(lo, received, y_counts, scores)`` per chunk of trials
    ``lo, lo + 1, ...``: their received words ``(rows, n)``, output counts
    ``(rows, |Y|)`` and true scores ``(rows,)``.  Trial ``t`` reads its word
    from the stream that starts at ``word_states[t]``, advanced
    ``msgs[t] * n`` draws, and its channel uniforms from the one at
    ``channel_states[t]``; the caller takes both from ``_trial_states``
    (``k = 0`` and ``k = 2``), so the codebook scan reuses the word states.
    A trial's score is bit for bit that of ``score_codewords`` on the word
    alone.  One generator is reset to each state in turn; a chunk's letters,
    outputs, joint types (one ``bincount``) and scores take one pass each.
    """
    nx, ny = channel.nx, channel.ny
    rows = max(1, _CHUNK_SYMBOLS // n)
    word_u = np.empty((rows, n))
    channel_u = np.empty((rows, n))
    thresholds = _thresholds(input_dist.probs)
    cum = np.cumsum(channel.matrix, axis=1)
    rng = np.random.Generator(np.random.PCG64())
    for lo in range(0, len(msgs), rows):
        m = min(rows, len(msgs) - lo)
        for i, t in enumerate(range(lo, lo + m)):
            rng.bit_generator.state = word_states[t]
            rng.bit_generator.advance(msgs[t] * n)
            rng.random(out=word_u[i])
            rng.bit_generator.state = channel_states[t]
            rng.random(out=channel_u[i])
        x = _letters(word_u[:m], thresholds)
        y = _outputs(cum, x, channel_u[:m])
        cells = x * ny + y + np.arange(0, m * nx * ny, nx * ny)[:, None]
        counts = np.bincount(cells.ravel(), minlength=m * nx * ny).reshape(m, nx, ny)
        y_counts = counts.sum(axis=1)
        yield lo, y, y_counts, _score_types(counts, decoder, n, y_counts)


def _competitor_scores(at_least: np.ndarray, y_counts: np.ndarray, decoder: Decoder, n: int) -> np.ndarray:
    """The scores of a block of competitors, from ``_counts_at_least`` (nx - 1, |Y|, rows) and the output counts.

    Works on whole ``(J, rows)`` and ``(|X||Y|, rows)`` arrays.  A metric
    ``d`` scores ``(y_counts . d[0] + sum_a (d[a] - d[a - 1]) . G_a) / n``,
    with ``G_a`` the counts of letters ``>= a``: the type-expectation of
    ``d``, summed by parts.  The MMI score sums ``k log k`` down the columns
    of the joint and input counts.  In exact arithmetic these are
    ``_score_types``' scores; in floats they round differently, by far
    less than ``_TIE_BAND``.
    """
    if decoder.metrics:
        d = np.stack([_metric_values(m) for m in decoder.metrics])
        steps = np.diff(d, axis=1).reshape(len(d), -1)
        scores = steps @ at_least.reshape(steps.shape[1], at_least.shape[-1]).astype(float)
        scores += (d[:, 0] @ y_counts)[:, None]
        return scores.max(axis=0) / n
    t = _count_log_counts(n)
    counts = _letter_counts(at_least, y_counts).astype(np.intp)
    s_xy = np.take(t, counts.reshape(-1, counts.shape[-1])).sum(axis=0)
    s_x = np.take(t, counts.sum(axis=1)).sum(axis=0)
    return math.log(n) + (s_xy - s_x - t[y_counts].sum()) / n


def _scan_codebook(rng, thresholds, onehot, y_counts, decoder, scratch, num_codewords, msg, s_true) -> float:
    """The best competitor score of a trial's codebook, block by block from its uniform stream ``rng``.

    Word ``i`` is row ``i`` of ``rng.random((M, n))`` and row ``msg``, the
    true word, is no competitor.  ``onehot`` is the received word's float32
    (n, |Y|) indicator matrix and ``y_counts`` its output counts, and
    ``scratch`` a (rows, n) float64 array for the uniforms and a float32 one
    for their indicators.  Stops at the first block that brings
    ``_tie_threshold(best)`` above ``s_true``.
    """
    uniforms, indicators = scratch
    n = onehot.shape[0]
    best = -math.inf
    for lo, hi in _blocks(num_codewords):
        u = uniforms[: hi - lo]
        rng.random(out=u)
        at_least = _counts_at_least(u, thresholds, onehot, indicators[: hi - lo])
        scores = _competitor_scores(at_least, y_counts, decoder, n)
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
    M must be at most ``CODEWORD_CAP`` and n at most 2^24; ensemble mode
    handles any M.
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
    if method == "codebook" and n > _EXACT_FLOAT32:
        raise ValueError(
            f"block_length {n} exceeds 2^24 = {_EXACT_FLOAT32}, past which the codebook scan's "
            "float32 type counts are not exact; lower the blocklength"
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
            states = (_trial_states(seed, ch_idx, range(trials), k) for k in (0, 2))
            for lo, _, y_counts, scores in _true_words(channel, decoder, input_dist, n, *states, [0] * trials):
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

    rng = np.random.Generator(np.random.PCG64())  # reset to each trial's stream in turn
    if method == "codebook":  # allocated once: every trial's scan reuses them
        thresholds = _thresholds(input_dist.probs)
        rows = max(hi - lo for lo, hi in _blocks(num_codewords))
        scratch = np.empty((rows, n)), np.empty((rows, n), dtype=np.float32)

    out = []
    for ch_idx, channel in enumerate(cset.channels):
        errors = 0
        tie_errors = 0
        prob_sum = 0.0
        if method == "codebook":
            msgs = []
            for state in _trial_states(seed, ch_idx, range(trials), 1):
                rng.bit_generator.state = state
                msgs.append(int(rng.integers(num_codewords)))
            word_states, channel_states = (_trial_states(seed, ch_idx, range(trials), k) for k in (0, 2))
            words = _true_words(channel, decoder, input_dist, n, word_states, channel_states, msgs)
            for lo, received, y_counts, scores in words:
                for t, y, y_count, s_true in zip(range(lo, lo + len(scores)), received, y_counts, scores.tolist()):
                    onehot = (y[:, None] == np.arange(ny)).astype(np.float32)
                    rng.bit_generator.state = word_states[t]
                    best = _scan_codebook(
                        rng, thresholds, onehot, y_count, decoder, scratch, num_codewords, msgs[t], s_true
                    )
                    if best >= _tie_threshold(s_true):
                        errors += 1
                        tie_errors += _tie_threshold(best) <= s_true
        else:
            for t, state in enumerate(_trial_states(seed, ch_idx, range(trials), 3)):
                e = _any_competitor_reaches(float(q[ch_idx, t]), num_codewords)
                prob_sum += e
                rng.bit_generator.state = state
                if rng.random() < e:
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
