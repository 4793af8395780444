"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and per-criterion runtimes.
"""

import math
import time

import numpy as np
import pytest

from ccdec import (
    Channel,
    CompoundSet,
    Decoder,
    Direction,
    DirectionSet,
    Distribution,
    Metric,
    build_metrics,
    compound_capacity,
    decode,
    estimate_error,
    generalized_rate,
    generate_codebook,
    is_one_sided,
    joint_of,
    mismatched_rate,
    mutual_information,
    transmit,
    vn_compound_capacity,
    vn_glrt_rate,
    vn_gmap_rate,
    worst_channel,
)
from ccdec.vn import (
    center,
    divergence_gap_table,
    embed,
    expected_log_gap_table,
    mismatched_rate_gap_table,
)
from conftest import random_channel, random_distribution

NOISE = Distribution(np.array([0.5, 0.5]))
UNIFORM = Distribution.uniform(2)
L0 = Direction(np.array([[-2.0, 2.0], [-7.0, 7.0]]), NOISE)
L1 = Direction(np.array([[2.0, -2.0], [0.0, 0.0]]), NOISE)
L2 = Direction(np.array([[-1.0, 1.0], [1.0, -1.0]]), NOISE)


def verdict(num, name, ok, started, budget):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status}  [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s runtime budget"


def segment_union(rng):
    """Union of 2-3 sampled convex hulls, each a segment toward pure noise.

    Information is convex along each segment and vanishes at the noise end,
    so the largest sampled mixing weight is the exact worst channel of the
    sampled hull; every block is then verified one-sided explicitly.
    """
    nx = int(rng.integers(2, 5))
    ny = int(rng.integers(2, 5))
    channels, comps, idx = [], [], 0
    for _ in range(int(rng.integers(2, 4))):
        a = random_channel(rng, nx, ny)
        noise = Channel.pure_noise(Distribution(rng.dirichlet(np.ones(ny) * 5.0)), nx)
        block = []
        for t in np.sort(rng.uniform(0.1, 0.9, size=int(rng.integers(2, 5)))):
            channels.append(a.mix(noise, float(t)))
            block.append(idx)
            idx += 1
        comps.append(tuple(block))
    return CompoundSet(tuple(channels), tuple(comps))


class TestCriterion1:
    def test_counterexample_reproduction(self):
        started = time.time()
        tol = 1e-9
        c0, c1, c2 = (center(d, UNIFORM) for d in (L0, L1, L2))
        dset = DirectionSet((L0, L1, L2), ((0, 1), (2,)))
        cap = vn_compound_capacity(dset, UNIFORM)
        glrt = vn_glrt_rate(L0, [L1, L2], UNIFORM)
        gmap = vn_gmap_rate(L0, [L1, L2], UNIFORM)
        ok = (
            abs(c0.centered_norm_sq - 6.25) <= tol
            and abs(c1.centered_norm_sq - 1.0) <= tol
            and abs(c2.centered_norm_sq - 1.0) <= tol
            and abs(c0.inner(c2) - (-2.5)) <= tol
            and abs(cap.value - 1.0) <= tol
            and abs(glrt - 0.0) <= tol
            and abs(gmap - 6.25) <= tol
        )
        verdict(1, "counterexample reproduction", ok, started, budget=1.0)


class TestCriterion2:
    def test_matched_rate_identity(self):
        started = time.time()
        rng = np.random.default_rng(1889)
        worst = 0.0
        for _ in range(200):
            nx = int(rng.integers(2, 6))
            ny = int(rng.integers(2, 6))
            p = random_distribution(rng, nx)
            w = random_channel(rng, nx, ny)
            rate = mismatched_rate(p, w, Metric(np.log(w.matrix)))
            worst = max(worst, abs(rate - mutual_information(p, w)))
        ok = worst <= 1e-6
        print(f"  worst |rate - information| = {worst:.2e}")
        verdict(2, "matched-rate identity, 200 random channels", ok, started, budget=30.0)


class TestCriterion3:
    def test_map_family_covers_capacity_on_unions(self):
        started = time.time()
        rng = np.random.default_rng(31415)
        worst_margin = math.inf
        verified = 0
        for _ in range(100):
            cset = segment_union(rng)
            cap = compound_capacity(cset)
            p_hat = cap.input_dist
            blocks_ok = all(
                bool(is_one_sided(cset.restrict(blk), p_hat)) for blk in cset.components
            )
            assert blocks_ok, "a sampled block failed its one-sided verification"
            verified += 1
            worst_idx = [
                blk[worst_channel(cset.restrict(blk), p_hat).index]
                for blk in cset.components
            ]
            metrics = build_metrics("map", [cset.channels[i] for i in worst_idx], p_hat)
            for w in cset.channels:
                margin = generalized_rate(p_hat, w, metrics) - cap.value
                worst_margin = min(worst_margin, margin)
        ok = worst_margin >= -1e-5
        print(f"  verified unions: {verified}, worst rate - capacity margin = {worst_margin:.2e}")
        verdict(3, "generalized MAP family covers capacity, 100 unions", ok, started, budget=300.0)


class TestCriterion4:
    def test_embedded_counterexample_rate_ordering(self):
        started = time.time()
        eps = 0.05
        channels = tuple(embed(d, eps) for d in (L0, L1, L2))
        cset = CompoundSet(channels, ((0, 1), (2,)))
        cap = compound_capacity(cset)
        p_hat = cap.input_dist
        assert all(bool(is_one_sided(cset.restrict(b), p_hat)) for b in cset.components)
        worst_idx = [
            blk[worst_channel(cset.restrict(blk), p_hat).index] for blk in cset.components
        ]
        worsts = [cset.channels[i] for i in worst_idx]
        glrt = min(
            generalized_rate(p_hat, w, build_metrics("ml", worsts, p_hat)) for w in channels
        )
        gmap = min(
            generalized_rate(p_hat, w, build_metrics("map", worsts, p_hat)) for w in channels
        )
        margin = 5e-4  # solver-determined: glrt pins to 0, capacity is ~1.25e-3
        ok = (
            glrt < cap.value - margin
            and gmap >= cap.value - 1e-6
            and gmap - glrt > 1e-6
        )
        print(f"  capacity={cap.value:.6e}  glrt={glrt:.6e}  gmap={gmap:.6e}")
        verdict(4, "likelihood family fails, MAP family does not (global)", ok, started, budget=60.0)


class TestCriterion5:
    def test_very_noisy_convergence(self):
        started = time.time()
        eps = [0.1, 0.05, 0.025]
        tables = {
            "divergence": divergence_gap_table(NOISE, np.array([1.0, -1.0]), eps),
            "expected_log": expected_log_gap_table((L0, L1, L0, L0), UNIFORM, eps),
            "mismatched_rate": mismatched_rate_gap_table(L0, L1, UNIFORM, eps),
        }
        ok = True
        for kind, rows in tables.items():
            gaps = [r.gap for r in rows]
            monotone = gaps[0] > gaps[1] > gaps[2]
            halved = gaps[2] <= 0.5 * gaps[1]
            print(f"  {kind}: gaps={['%.3e' % g for g in gaps]} monotone={monotone} halved={halved}")
            ok = ok and monotone and halved
        verdict(5, "scaled limit gaps shrink", ok, started, budget=60.0)


class TestCriterion6:
    def test_one_sidedness_suite(self):
        started = time.time()
        rng = np.random.default_rng(2718)
        passes = 0
        for i in range(50):
            if i % 2 == 0:
                lo, hi = np.sort(rng.uniform(0.02, 0.45, size=2))
                ts = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=6)])
                channels = tuple(Channel.bsc(lo).mix(Channel.bsc(hi), float(t)) for t in ts)
                p = UNIFORM
            else:
                nx = int(rng.integers(2, 4))
                ny = int(rng.integers(2, 4))
                a = random_channel(rng, nx, ny)
                noise = Channel.pure_noise(
                    Distribution(rng.dirichlet(np.ones(ny) * 5.0)), nx
                )
                ts = np.sort(rng.uniform(0.05, 0.9, size=6))
                channels = tuple(a.mix(noise, float(t)) for t in ts)
                p = random_distribution(rng, nx)
            passes += bool(is_one_sided(CompoundSet(channels), p))

        # punctured hull: remove an interior point, keep the worst endpoint
        ts = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        hull = [Channel.bsc(0.1).mix(Channel.bsc(0.2), t) for t in ts]
        punctured = CompoundSet(tuple(hull[:3] + hull[4:]))
        punctured_ok = bool(is_one_sided(punctured, UNIFORM))

        mirrored_fails = not is_one_sided(
            CompoundSet((Channel.bsc(0.25), Channel.bsc(0.75))), UNIFORM
        )
        ok = passes == 50 and punctured_ok and mirrored_fails
        print(f"  hull samples passing: {passes}/50, punctured={punctured_ok}, mirrored pair fails={mirrored_fails}")
        verdict(6, "one-sidedness suite", ok, started, budget=120.0)


class TestCriterion7:
    def test_simulation_achievability_and_converse(self):
        started = time.time()
        cset = CompoundSet((Channel.bsc(0.02), Channel.bsc(0.98)), ((0,), (1,)))
        metrics = build_metrics("map", [cset.channels[0], cset.channels[1]], UNIFORM)
        decoder = Decoder(metrics)
        capacity_bits = mutual_information(UNIFORM, cset.channels[0]) / math.log(2)

        # competitors are integrated analytically per trial (fresh-codebook
        # ensemble average); the mean conditional error probability resolves
        # levels far below 1/trials
        errors = {}
        for n in (16, 32, 64):
            stats = estimate_error(
                cset, decoder, UNIFORM, n, 0.4, 1000, seed=2024, method="ensemble"
            )
            errors[n] = max(s.mean_error_prob for s in stats)
        decreasing = errors[16] > errors[32] > errors[64]
        small_at_64 = errors[64] <= 0.1

        conv_stats = estimate_error(
            cset, decoder, UNIFORM, 64, 1.2 * capacity_bits, 1000, seed=2024, method="ensemble"
        )
        converse = min(s.mean_error_prob for s in conv_stats) >= 0.5

        ok = decreasing and small_at_64 and converse
        print(
            f"  achievability errors: n16={errors[16]:.3e} n32={errors[32]:.3e} n64={errors[64]:.3e}; "
            f"converse error={min(s.mean_error_prob for s in conv_stats):.3f}"
        )
        verdict(7, "simulated achievability and converse", ok, started, budget=600.0)


class TestCriterion8:
    def test_decoder_equivalences(self):
        started = time.time()
        rng = np.random.default_rng(4242)
        w = Channel.bsc(0.12)
        (ml,) = build_metrics("ml", [w], UNIFORM)
        (mp,) = build_metrics("map", [w], UNIFORM)
        cb = generate_codebook(UNIFORM, 32, 128, seed=88)

        def receptions(count):
            for t in range(count):
                msg = int(np.random.default_rng([77, t]).integers(cb.num_codewords))
                yield transmit(w, cb.words[msg], [78, t])

        ml_map_same = all(
            decode(y, cb, Decoder((ml,)), 2, 2)
            == decode(y, cb, Decoder((mp,)), 2, 2)
            for y in receptions(1000)
        )

        d = Metric(rng.normal(size=(2, 2)))
        k1_same = all(
            decode(y, cb, Decoder((d,)), 2, 2)
            == decode(y, cb, Decoder([d]), 2, 2)
            for y in receptions(1000)
        )

        ds = [Metric(rng.normal(size=(2, 2))) for _ in range(3)]
        f = rng.normal(size=2)
        shift_same = all(
            decode(y, cb, Decoder(ds), 2, 2)
            == decode(y, cb, Decoder([m.shifted(f) for m in ds]), 2, 2)
            for y in receptions(1000)
        )

        ok = ml_map_same and k1_same and shift_same
        print(f"  ml=map: {ml_map_same}, K=1=linear: {k1_same}, shift-invariant: {shift_same}")
        verdict(8, "decoder equivalences", ok, started, budget=120.0)
