import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from ccdec import (
    Channel,
    CompoundSet,
    Distribution,
    Metric,
    build_metrics,
    is_one_sided,
    joint_of,
    kl_divergence,
    mismatched_rate,
    mutual_information,
    one_sided_cover,
    worst_channel,
)
from ccdec.probability import SUPPORT_FLOOR
from ccdec.rates import ONE_SIDED_SLACK, WORST_TIE_TOL, OneSidedVerdict, SetAnalysis
from ccdec.vn import Direction, embed
from conftest import random_channel, random_distribution, segment_toward_noise

UNIFORM = Distribution.uniform(2)


class TestIsOneSided:
    def test_singleton(self):
        assert is_one_sided(CompoundSet((Channel.bsc(0.12),)), UNIFORM)

    def test_convex_hull_samples(self, rng):
        # samples from the segment between BSC(0.1) and BSC(0.2): the hull's
        # worst channel is the 0.2 endpoint and it is in the sample
        ts = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=18)])
        channels = tuple(Channel.bsc(0.1).mix(Channel.bsc(0.2), float(t)) for t in ts)
        verdict = is_one_sided(CompoundSet(channels), UNIFORM)
        assert verdict.one_sided
        assert verdict.worst_index == 1  # the BSC(0.2) endpoint

    def test_mirrored_pair_fails_on_tie(self):
        verdict = is_one_sided(
            CompoundSet((Channel.bsc(0.25), Channel.bsc(0.75))), UNIFORM
        )
        assert not verdict.one_sided
        assert "not unique" in verdict.reason

    def test_asymmetric_mirror_fails_without_tie(self):
        verdict = is_one_sided(
            CompoundSet((Channel.bsc(0.25), Channel.bsc(0.7))), UNIFORM
        )
        assert not verdict.one_sided
        assert verdict.witness == 0
        assert verdict.worst_index == 1

    def test_divergence_split_matches_arithmetic(self, rng):
        # recompute the three divergences by hand for one random pair
        p = random_distribution(rng, 2)
        cset = segment_toward_noise(rng, 2, 3, 4)
        verdict = is_one_sided(cset, p)
        worst = worst_channel(cset, p)
        mu_s = joint_of(p, worst.channel)
        for k, w in enumerate(cset.channels):
            mu0 = joint_of(p, w)
            margin = (
                kl_divergence(mu0, mu_s.product)
                - kl_divergence(mu0, mu_s)
                - kl_divergence(mu_s, mu_s.product)
            )
            assert verdict.margins[k] == pytest.approx(margin, abs=1e-12)

    def test_margins_past_the_witness_are_nan(self):
        # channel 2 (crossover 0.9) is the first violator; channel 3 is the
        # worst channel, whose margin is never computed
        cset = CompoundSet(tuple(Channel.bsc(q) for q in (0.1, 0.2, 0.9, 0.3)))
        verdict = is_one_sided(cset, UNIFORM)
        assert verdict.witness == 2
        assert verdict.worst_index == 3
        assert np.all(np.isfinite(verdict.margins[:3]))
        assert verdict.margins[2] < 0.0
        assert np.isnan(verdict.margins[3])

    def test_noise_segments_always_pass(self, rng):
        for _ in range(10):
            nx = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            cset = segment_toward_noise(rng, nx, ny, int(rng.integers(3, 8)))
            p = random_distribution(rng, nx)
            assert is_one_sided(cset, p)


class TestWorstChannelLinearDecoder:
    def test_one_sided_implies_worst_metric_covers_capacity(self, rng):
        # scoring with the worst channel's likelihoods achieves at least the
        # set's minimum information for every member of a one-sided set
        for _ in range(5):
            cset = segment_toward_noise(rng, 2, 2, 4, t_hi=0.7)
            p = random_distribution(rng, 2)
            verdict = is_one_sided(cset, p)
            assert verdict.one_sided
            worst = worst_channel(cset, p)
            cap = mutual_information(p, worst.channel)
            (metric,) = build_metrics("ml", [worst.channel], p)
            for w in cset.channels:
                assert mismatched_rate(p, w, metric) >= cap - 1e-6


class TestPythagoreanSplit:
    def test_convex_family_inequality(self, rng):
        # members of a sampled segment against the segment's own worst point
        for _ in range(5):
            cset = segment_toward_noise(rng, 2, 3, 6)
            p = random_distribution(rng, 2)
            worst = worst_channel(cset, p)
            mu_s = joint_of(p, worst.channel)
            cap_term = kl_divergence(mu_s, mu_s.product)
            for w in cset.channels:
                mu0 = joint_of(p, w)
                lhs = kl_divergence(mu0, mu_s.product)
                rhs = kl_divergence(mu0, mu_s) + cap_term
                assert lhs >= rhs - 1e-9


class TestCover:
    def test_already_one_sided_single_block(self, rng):
        cset = segment_toward_noise(rng, 2, 2, 5)
        cover = one_sided_cover(cset, UNIFORM)
        assert cover == (tuple(range(5)),)

    def test_mirrored_pair_splits(self):
        cover = one_sided_cover(
            CompoundSet((Channel.bsc(0.25), Channel.bsc(0.75))), UNIFORM
        )
        assert cover == ((0,), (1,))

    def test_embedded_triple_cover(self):
        noise = Distribution(np.array([0.5, 0.5]))
        dirs = [
            Direction(np.array(v), noise)
            for v in (
                [[-2.0, 2.0], [-7.0, 7.0]],
                [[2.0, -2.0], [0.0, 0.0]],
                [[-1.0, 1.0], [1.0, -1.0]],
            )
        ]
        cset = CompoundSet(tuple(embed(d, 0.05) for d in dirs))
        cover = one_sided_cover(cset, UNIFORM)
        assert sorted(sorted(b) for b in cover) == [[0, 1], [2]]

    def test_every_block_verifies(self, rng):
        channels = tuple(random_channel(rng, 2, 2) for _ in range(6))
        cset = CompoundSet(channels)
        cover = one_sided_cover(cset, UNIFORM)
        assert sorted(i for blk in cover for i in blk) == list(range(6))
        for blk in cover:
            if len(blk) > 1:
                assert is_one_sided(cset.restrict(blk), UNIFORM)


# ---------------------------------------------------------------------------
# Reference: the one-sided check and the re-check greedy cover written out in
# full, one restricted re-check per candidate.
# ---------------------------------------------------------------------------


def reference_is_one_sided(cset, p):
    infos = np.array([mutual_information(p, w) for w in cset.channels])
    s = int(np.argmin(infos))
    tied = tuple(int(i) for i in np.flatnonzero(infos <= infos[s] + WORST_TIE_TOL))
    if len(tied) > 1:
        reason = f"worst channel not unique: indices {tied} within {WORST_TIE_TOL}"
        return OneSidedVerdict(False, tied[1], reason, None)
    mu_s = joint_of(p, cset.channels[s])
    mu_s_p = mu_s.product
    cap_term = kl_divergence(mu_s, mu_s_p)
    margins = np.full(cset.size, math.nan)
    for k, w in enumerate(cset.channels):
        mu0 = joint_of(p, w)
        lhs = kl_divergence(mu0, mu_s_p)
        rhs = kl_divergence(mu0, mu_s) + cap_term
        margins[k] = 0.0 if math.isinf(lhs) and math.isinf(rhs) else lhs - rhs
        if margins[k] < -ONE_SIDED_SLACK:
            reason = f"channel {k} violates the divergence split by {margins[k]:.3e}"
            return OneSidedVerdict(False, k, reason, s, margins)
    return OneSidedVerdict(True, None, "all members satisfy the divergence split", s, margins)


def reference_cover(cset, p):
    infos = np.array([mutual_information(p, w) for w in cset.channels])
    remaining = [int(i) for i in np.argsort(infos, kind="stable")]
    blocks = []
    while remaining:
        seed = remaining.pop(0)
        block, kept = [seed], []
        for cand in remaining:
            if reference_is_one_sided(cset.restrict(block + [cand]), p):
                block.append(cand)
            else:
                kept.append(cand)
        remaining = kept
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def dirichlet_set(rng):
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    chans = tuple(Channel(rng.dirichlet(np.ones(ny), size=nx)) for _ in range(int(rng.integers(2, 8))))
    return CompoundSet(chans), Distribution(rng.dirichlet(np.ones(nx) * 2.0))


def zero_entry_set(rng):
    # zero entries make split divergences infinite on one side or both
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    chans = []
    for _ in range(int(rng.integers(2, 6))):
        m = rng.dirichlet(np.ones(ny), size=nx) * (rng.uniform(size=(nx, ny)) > 0.3)
        m[:, 0] += m.sum(axis=1) == 0.0
        chans.append(Channel(m / m.sum(axis=1, keepdims=True)))
    return CompoundSet(tuple(chans)), Distribution(rng.dirichlet(np.ones(nx) * 2.0))


def segment_union_set(rng):
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    chans = [w for _ in range(int(rng.integers(2, 4)))
             for w in segment_toward_noise(rng, nx, ny, int(rng.integers(2, 4))).channels]
    rng.shuffle(chans)
    return CompoundSet(tuple(chans)), Distribution(rng.dirichlet(np.ones(nx) * 2.0))


def mirrored_tie_set(rng):
    # a BSC and its mirror have equal information at the uniform input; a
    # repeated member ties exactly at any input
    qs = rng.uniform(0.05, 0.45, size=int(rng.integers(1, 4)))
    chans = [Channel.bsc(q) for q in qs] + [Channel.bsc(1.0 - qs[0])]
    if rng.uniform() < 0.5:
        chans.append(chans[int(rng.integers(len(chans)))])
    rng.shuffle(chans)
    return CompoundSet(tuple(chans)), UNIFORM


def near_tie_set(rng):
    # members whose information sits within a few WORST_TIE_TOL of a base
    # channel's, on both sides of the tie tolerance
    nx, ny = 2, int(rng.integers(2, 4))
    p = Distribution(rng.dirichlet(np.ones(nx) * 2.0))
    base = random_channel(rng, nx, ny)
    noise = Channel.pure_noise(Distribution(rng.dirichlet(np.ones(ny) * 5.0)), nx)
    target = mutual_information(p, base)
    chans = [base]
    for delta in rng.choice([2e-10, 5e-10, 9.9e-10, 1.01e-9, 2e-9], size=int(rng.integers(1, 4))):
        t = brentq(lambda t: target - mutual_information(p, base.mix(noise, t)) - delta, 0.0, 0.5, xtol=1e-15)
        chans.append(base.mix(noise, t))
    chans += [random_channel(rng, nx, ny) for _ in range(int(rng.integers(0, 3)))]
    rng.shuffle(chans)
    return CompoundSet(tuple(chans)), p


def sub_floor_set(rng):
    # Entries and input masses below SUPPORT_FLOOR count as zeros.  A rare
    # input letter whose row sends all its mass to an output letter the other
    # rows miss keeps mu_s above the floor there and mu_s^p below it, so I_s
    # comes out infinite, as does D(mu_k || mu_s^p) for each k with mass there.
    nx, ny = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    p = rng.dirichlet(np.ones(nx) * 2.0)
    p[-1] = rng.choice([3e-16, 1e-9, 1e-8])
    chans = []
    for _ in range(int(rng.integers(2, 7))):
        m = rng.dirichlet(np.ones(ny), size=nx)
        low = rng.uniform(size=(nx, ny)) < 0.3
        m[low] = rng.choice([0.0, 1e-17, 4e-16], size=int(low.sum()))
        if rng.uniform() < 0.5:
            m[:-1, -1] = rng.choice([0.0, 1e-17], size=nx - 1)
            m[-1] = np.eye(ny)[-1]
        m[:, 0] += m.sum(axis=1) == 0.0
        chans.append(Channel(m / m.sum(axis=1, keepdims=True)))
    return CompoundSet(tuple(chans)), Distribution(p / p.sum())


def random_partition(rng, n):
    """Blocks of a random partition of ``range(n)``, each in a random order."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return tuple(tuple(int(i) for i in blk) for blk in np.split(rng.permutation(n), cuts))


def same_verdict(a, b) -> bool:
    fields = ("one_sided", "witness", "reason", "worst_index")
    if any(getattr(a, f) != getattr(b, f) for f in fields):
        return False
    if a.margins is None or b.margins is None:
        return a.margins is None and b.margins is None
    return a.margins.tobytes() == b.margins.tobytes()


class TestAgainstReference:
    @pytest.mark.parametrize(
        "seed, make",
        enumerate([dirichlet_set, zero_entry_set, segment_union_set, mirrored_tie_set, near_tie_set, sub_floor_set]),
    )
    def test_verdicts_and_covers_match(self, seed, make):
        rng = np.random.default_rng([20240817, seed])
        partition_rng = np.random.default_rng([20240817, seed, 1])
        ties = failures = 0
        for _ in range(80):
            cset, p = make(rng)
            ref = reference_is_one_sided(cset, p)
            assert same_verdict(is_one_sided(cset, p), ref)
            ties += ref.worst_index is None
            failures += ref.witness is not None
            cover = one_sided_cover(cset, p)
            assert cover == reference_cover(cset, p)
            analysis = SetAnalysis(cset, p)
            assert same_verdict(analysis.verdict(), ref)
            assert analysis.cover == cover
            for blk in cover + random_partition(partition_rng, cset.size):
                blk_ref = reference_is_one_sided(cset.restrict(blk), p)
                assert same_verdict(is_one_sided(cset.restrict(blk), p), blk_ref)
                assert same_verdict(analysis.verdict(blk), blk_ref)
        if make in (mirrored_tie_set, near_tie_set):
            assert ties > 0
        if make is not segment_union_set:
            assert failures > 0

    def test_sub_floor_family_reaches_infinite_informations(self):
        # the draws of the sub-floor family above, with its seed; a singleton
        # block of such a channel compares the both-infinite margin 0
        rng = np.random.default_rng([20240817, 5])
        infinite = 0
        for _ in range(80):
            cset, p = sub_floor_set(rng)
            analysis = SetAnalysis(cset, p)
            infinite += bool(np.isinf(analysis.informations).any())
            assert not np.isnan(analysis.margins).any()
        assert infinite > 0


class TestDivergenceTable:
    def test_large_set_bit_identical_in_bounded_memory(self):
        # 400 channels of a 3x4 set, a fifth of their entries zero: unblocked,
        # the (K, 2K, |X||Y|) temporaries of the table peak near 62 MB
        rng = np.random.default_rng(400)
        mats = rng.uniform(0.05, 1.0, size=(400, 3, 4)) * (rng.random((400, 3, 4)) > 0.2)
        mats[:, :, 0] += mats.sum(axis=2) == 0.0
        cset = CompoundSet(tuple(Channel(m / m.sum(axis=1, keepdims=True)) for m in mats))
        analysis = SetAnalysis(cset, Distribution.uniform(3))
        mu, products = analysis._stacked
        tracemalloc.start()
        try:
            to_product, to_joint = analysis._tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a = mu.reshape(len(mu), -1)
        b = np.concatenate([products, mu]).reshape(2 * len(mu), -1)
        on = a > SUPPORT_FLOOR
        log_a = np.log(np.where(on, a, 1.0))
        log_b = np.log(np.where(b > SUPPORT_FLOOR, b, 1.0))
        want = np.maximum(np.where(on[:, None], a[:, None] * (log_a[:, None] - log_b[None]), 0.0).sum(axis=2), 0.0)
        want[(on[:, None] & (b <= SUPPORT_FLOOR)[None]).any(axis=2)] = math.inf
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert np.hstack([to_product, to_joint]).tobytes() == want.tobytes()
        assert peak <= 10e6
