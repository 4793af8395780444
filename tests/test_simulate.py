import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hyp_st
from scipy.special import gammaln

import ccdec.simulate
from ccdec import (
    Channel,
    CompoundSet,
    Decoder,
    Distribution,
    Metric,
    build_metrics,
    decode,
    estimate_error,
    generate_codebook,
    mutual_information,
    score_codewords,
    transmit,
)
from ccdec.probability import xlogy
from ccdec.rates import SetAnalysis, family
from ccdec.simulate import (
    METHODS,
    Codebook,
    _any_competitor_reaches,
    _competitor_grid,
    _competitor_scores,
    _count_log_counts,
    _counts_at_least,
    _draw_symbols,
    _log_factorials,
    _score_types,
    _thresholds,
    _tie_threshold,
    _trial_states,
    _type_mutual_information,
    format_count,
    joint_type_counts,
    wilson_interval,
)

UNIFORM = Distribution.uniform(2)


def _exceedance(y_counts, input_dist, decoder, n, threshold):
    """Chance that an i.i.d. competitor scores at least ``threshold``, off a grid built for this call alone."""
    prob, score = _competitor_grid(y_counts, input_dist, decoder, n)
    return float(prob[score >= threshold].sum())


class TestGenerateCodebook:
    def test_point_mass_input_gives_constant_words(self):
        cb = generate_codebook(Distribution(np.array([1.0, 0.0])), 8, 4, seed=0)
        assert np.all(cb.words == 0)

    def test_seed_reproducibility(self):
        a = generate_codebook(UNIFORM, 16, 32, seed=9)
        b = generate_codebook(UNIFORM, 16, 32, seed=9)
        assert np.array_equal(a.words, b.words)
        c = generate_codebook(UNIFORM, 16, 32, seed=10)
        assert not np.array_equal(a.words, c.words)

    def test_symbol_frequencies_concentrate(self):
        p = Distribution(np.array([0.3, 0.7]))
        cb = generate_codebook(p, 1000, 100, seed=3)
        freq = (cb.words == 1).mean()
        sigma = math.sqrt(0.3 * 0.7 / cb.words.size)
        assert abs(freq - 0.7) <= 3 * sigma

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_codebook(UNIFORM, 0, 4, seed=0)
        with pytest.raises(ValueError):
            generate_codebook(UNIFORM, 4, 1, seed=0)

    def test_same_words_as_generator_choice(self):
        # the inverse-CDF draw keeps every seed's codebook of Generator.choice
        cases = np.random.default_rng(2024)
        for seed in range(240):
            nx = int(cases.integers(2, 6))
            probs = cases.dirichlet(np.ones(nx))
            if seed % 3 == 1:
                probs[cases.integers(nx)] = 0.0
                probs /= probs.sum()
            elif seed % 3 == 2:
                probs = np.eye(nx)[cases.integers(nx)]
            n, m = int(cases.integers(1, 40)), int(cases.integers(2, 60))
            want = np.random.default_rng(seed).choice(nx, size=(m, n), p=probs)
            got = generate_codebook(Distribution(probs), n, m, seed=seed).words
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            # the CDF is divided by its last entry, as in choice; scaling by 4 is exact
            assert np.array_equal(_draw_symbols(4.0 * probs, (m, n), seed), want)

    def test_one_letter_input_gives_int64_zeros(self):
        got = generate_codebook(Distribution(np.array([1.0])), 9, 5, seed=4).words
        want = np.random.default_rng(4).choice(1, size=(5, 9), p=[1.0])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.any()

    @pytest.mark.parametrize(
        "probs", [[0.0, 1.0], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0], [0.0, 0.0, 0.3, 0.7]]
    )
    def test_zero_probability_letter_never_drawn(self, probs):
        words = generate_codebook(Distribution(np.array(probs)), 500, 40, seed=17).words
        drawn = np.bincount(words.ravel(), minlength=len(probs))
        assert np.array_equal(drawn > 0, np.array(probs) > 0)


class TestTransmit:
    def test_identity_channel_copies(self):
        x = np.array([0, 1, 1, 0, 1])
        assert np.array_equal(transmit(Channel.identity(2), x, seed=1), x)

    def test_bsc_zero_copies(self):
        x = np.array([0, 1, 0])
        assert np.array_equal(transmit(Channel.bsc(0.0), x, seed=5), x)

    def test_pure_noise_output_distribution(self):
        noise = Distribution(np.array([0.2, 0.8]))
        w = Channel.pure_noise(noise, 2)
        x = np.zeros(20000, dtype=int)
        y = transmit(w, x, seed=11)
        freq = (y == 1).mean()
        sigma = math.sqrt(0.2 * 0.8 / x.size)
        assert abs(freq - 0.8) <= 3 * sigma

    @pytest.mark.parametrize("ny", [1, 2, 3, 9])
    def test_counts_cuts_at_or_below_the_uniform(self, rng, ny):
        # the inverse CDF clamped to the last letter, also where zero entries repeat a cut
        matrix = rng.dirichlet(np.ones(ny), size=3)
        matrix[rng.random(matrix.shape) < 0.3] = 0.0
        matrix[:, -1] += 1.0 - matrix.sum(axis=1)
        x = rng.integers(3, size=5000)
        u = np.random.default_rng(8).random(x.size)
        cum = np.cumsum(matrix, axis=1)
        want = np.minimum((cum[x] <= u[:, None]).sum(axis=1), ny - 1)
        assert np.array_equal(transmit(Channel(matrix), x, seed=8), want)

    def test_uniform_past_the_last_cut_reads_the_last_letter(self):
        w = Channel(np.array([[0.5, 0.5 - 5e-13], [0.25, 0.75]]))  # row 0 sums to just below 1
        u = np.array([math.nextafter(1.0, 0.0), 0.25, 0.25])
        y = ccdec.simulate._outputs(np.cumsum(w.matrix, axis=1), np.array([0, 0, 1]), u)
        assert y.tolist() == [1, 0, 1]


class TestDecode:
    def test_single_codeword(self):
        cb = Codebook(np.array([[0, 1, 0]]))
        decoder = Decoder((Metric(np.log(Channel.bsc(0.1).matrix)),))
        assert decode(np.array([1, 1, 0]), cb, decoder, 2, 2) == 0

    def test_noiseless_matched_recovery(self):
        cb = generate_codebook(UNIFORM, 24, 16, seed=2)
        decoder = Decoder((Metric(np.log(Channel.bsc(0.05).matrix)),))
        for m in range(16):
            y = transmit(Channel.identity(2), cb.words[m], seed=m)
            assert decode(y, cb, decoder, 2, 2) == m

    def test_type_based_scores_match_symbolwise_sum(self, rng):
        cb = generate_codebook(UNIFORM, 40, 64, seed=4)
        y = rng.integers(0, 2, size=40)
        d = Metric(rng.normal(size=(2, 2)))
        scores = score_codewords(y, cb, Decoder((d,)), 2, 2)
        direct = d.values[cb.words, y[None, :]].mean(axis=1)
        assert np.abs(scores - direct).max() <= 1e-12

    def test_shift_invariance_of_decisions(self, rng):
        d = Metric(rng.normal(size=(2, 2)))
        f = rng.normal(size=2)
        decoder0 = Decoder((d,))
        decoder1 = Decoder((d.shifted(f),))
        cb = generate_codebook(UNIFORM, 32, 64, seed=6)
        for t in range(1000):
            y = np.random.default_rng(t).integers(0, 2, size=32)
            assert decode(y, cb, decoder0, 2, 2) == decode(y, cb, decoder1, 2, 2)

    def test_ml_map_identical_decisions(self, rng):
        w = Channel.bsc(0.12)
        (ml,) = build_metrics("ml", [w], UNIFORM)
        (mp,) = build_metrics("map", [w], UNIFORM)
        cb = generate_codebook(UNIFORM, 32, 64, seed=8)
        for t in range(1000):
            y = np.random.default_rng(1000 + t).integers(0, 2, size=32)
            assert decode(y, cb, Decoder((ml,)), 2, 2) == decode(
                y, cb, Decoder((mp,)), 2, 2
            )

    def test_generalized_with_one_metric_is_linear(self, rng):
        d = Metric(rng.normal(size=(2, 2)))
        cb = generate_codebook(UNIFORM, 24, 32, seed=12)
        for t in range(200):
            y = np.random.default_rng(2000 + t).integers(0, 2, size=24)
            lin = decode(y, cb, Decoder((d,)), 2, 2)
            gen = decode(y, cb, Decoder([d]), 2, 2)
            assert lin == gen

    def test_linear_scores_are_one_metric_generalized_bitwise(self, rng):
        p = Distribution(np.array([0.2, 0.5, 0.3]))
        d = Metric(rng.normal(size=(3, 2)))
        cb = generate_codebook(p, 24, 64, seed=14)
        y = rng.integers(0, 2, size=24)
        lin = score_codewords(y, cb, Decoder((d,)), 3, 2)
        gen = score_codewords(y, cb, Decoder([d]), 3, 2)
        expectation = joint_type_counts(cb.words, y, 3, 2).reshape(64, -1) @ d.values.ravel() / 24
        assert lin.tobytes() == gen.tobytes() == expectation.tobytes()

    def test_no_separate_linear_kind(self):
        d = Metric(np.zeros((2, 2)))
        assert Decoder((d,)) == Decoder([d])
        analysis = SetAnalysis(CompoundSet((Channel.bsc(0.1),)), UNIFORM)
        with pytest.raises(ValueError, match="unknown decoder kind 'linear'"):
            family(analysis, "linear")

    def test_generalized_uniform_shift_invariance(self, rng):
        ds = [Metric(rng.normal(size=(2, 2))) for _ in range(3)]
        f = rng.normal(size=2)
        cb = generate_codebook(UNIFORM, 24, 32, seed=13)
        decoder0 = Decoder(ds)
        decoder1 = Decoder([d.shifted(f) for d in ds])
        for t in range(200):
            y = np.random.default_rng(3000 + t).integers(0, 2, size=24)
            assert decode(y, cb, decoder0, 2, 2) == decode(y, cb, decoder1, 2, 2)

    def test_mmi_score_is_type_mutual_information(self):
        cb = Codebook(np.array([[0, 0, 1, 1], [0, 1, 0, 1]]))
        y = np.array([0, 0, 1, 1])
        scores = score_codewords(y, cb, Decoder(), 2, 2)
        assert scores[0] == pytest.approx(math.log(2), abs=1e-12)  # perfect correlation
        assert scores[1] == pytest.approx(0.0, abs=1e-12)  # independent type

    def test_mmi_decisions_match_xlogy_entropies(self):
        nx, ny, n = 3, 4, 24
        cb = generate_codebook(Distribution(np.array([0.2, 0.5, 0.3])), n, 64, seed=21)
        for t in range(200):
            y = np.random.default_rng(4000 + t).integers(0, ny, size=n)
            p = joint_type_counts(cb.words, y, nx, ny) / n
            px, py = p.sum(axis=2), p.sum(axis=1)
            want = (
                xlogy(p, p).sum(axis=(1, 2)) - xlogy(px, px).sum(axis=1) - xlogy(py, py).sum(axis=1)
            )
            expected = int(np.argmax(want >= _tie_threshold(float(want.max()))))
            assert decode(y, cb, Decoder(), nx, ny) == expected


class TestJointTypes:
    def test_counts_sum_to_block_length(self, rng):
        cb = generate_codebook(UNIFORM, 17, 5, seed=3)
        y = rng.integers(0, 2, size=17)
        counts = joint_type_counts(cb.words, y, 2, 2)
        assert counts.shape == (5, 2, 2)
        assert np.all(counts.sum(axis=(1, 2)) == 17)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (3, 4), (5, 2), (5, 5), (1, 1), (1, 3)])
    @pytest.mark.parametrize("m", [1, 7])
    def test_matches_loop(self, rng, nx, ny, m):
        n = 13
        words = rng.integers(0, nx, size=(m, n))
        y = rng.integers(0, ny, size=n)
        want = np.zeros((m, nx, ny), dtype=np.int64)
        for i in range(m):
            for k in range(n):
                want[i, words[i, k], y[k]] += 1
        got = joint_type_counts(words, y, nx, ny)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestTypeMutualInformation:
    def test_matches_mutual_information_of_the_type(self, rng):
        for _ in range(300):
            nx, ny = (int(k) for k in rng.integers(1, 6, size=2))
            n = int(rng.integers(1, 30))
            cells = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
            if nx > 1:
                cells[rng.integers(nx)] = 0.0  # a zero row
            if ny > 1:
                cells[:, rng.integers(ny)] = 0.0  # a zero column
            counts = rng.multinomial(n, cells.ravel() / cells.sum()).reshape(nx, ny)
            p = counts / n
            px = p.sum(axis=1)
            rows = np.where(px[:, None] > 0, p / np.where(px > 0, px, 1.0)[:, None], 1.0 / ny)
            want = mutual_information(Distribution(px), Channel(rows))
            got = _type_mutual_information(counts[None], n)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(want, abs=1e-12)

    def test_codewords_share_the_output_term(self, rng):
        words = rng.integers(0, 3, size=(9, 11))
        y = rng.integers(0, 4, size=11)
        counts = joint_type_counts(words, y, 3, 4)
        batch = _type_mutual_information(counts, 11)
        one_by_one = [_type_mutual_information(c[None], 11)[0] for c in counts]
        np.testing.assert_allclose(batch, one_by_one, rtol=0.0, atol=1e-15)

    def test_table_cached_read_only(self):
        table = _count_log_counts(6)
        assert _count_log_counts(6) is table
        assert table[0] == 0.0
        np.testing.assert_allclose(table[1:], np.arange(1, 7) * np.log(np.arange(1, 7)), rtol=1e-15)
        with pytest.raises(ValueError):
            table[1] = 1.0


class TestWilson:
    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi < 0.1


class TestEstimateError:
    def test_noiseless_sanity(self):
        cset = CompoundSet((Channel.bsc(0.001),))
        decoder = Decoder((Metric(np.log(Channel.bsc(0.001).matrix)),))
        stats = estimate_error(cset, decoder, UNIFORM, 24, 0.1, 100, seed=5)
        assert stats[0].errors <= 1

    def test_determinism(self):
        cset = CompoundSet((Channel.bsc(0.05),))
        decoder = Decoder((Metric(np.log(Channel.bsc(0.05).matrix)),))
        a = estimate_error(cset, decoder, UNIFORM, 16, 0.25, 50, seed=7)
        b = estimate_error(cset, decoder, UNIFORM, 16, 0.25, 50, seed=7)
        assert a == b

    def test_codeword_cap_enforced(self):
        cset = CompoundSet((Channel.bsc(0.05),))
        decoder = Decoder()
        with pytest.raises(ValueError):
            estimate_error(cset, decoder, UNIFORM, 64, 0.4, 10, seed=1)

    def test_ensemble_handles_huge_codebooks(self):
        cset = CompoundSet((Channel.bsc(0.05),))
        decoder = Decoder((Metric(np.log(Channel.bsc(0.05).matrix)),))
        stats = estimate_error(
            cset, decoder, UNIFORM, 64, 1.1, 20, seed=1, method="ensemble"
        )
        assert stats[0].num_codewords > 2**64
        assert stats[0].mean_error_prob > 0.5  # far above capacity

    def test_ensemble_matches_codebook_estimate(self):
        # same estimand: fresh-codebook ensemble average error
        cset = CompoundSet((Channel.bsc(0.08),))
        metrics = build_metrics("map", [Channel.bsc(0.08)], UNIFORM)
        decoder = Decoder(metrics)
        cb = estimate_error(cset, decoder, UNIFORM, 16, 0.35, 3000, seed=21)[0]
        en = estimate_error(cset, decoder, UNIFORM, 16, 0.35, 3000, seed=22, method="ensemble")[0]
        sigma = math.sqrt(cb.error_rate * (1 - cb.error_rate) / cb.trials)
        assert abs(en.mean_error_prob - cb.error_rate) <= 4 * sigma + 0.01

    def test_mmi_close_to_gmap_on_matched_runs(self):
        # the empirical-information decoder needs no channel knowledge yet
        # should not lose to the matched generalized family beyond noise
        # (blocklength long enough that type granularity stops mattering)
        cset = CompoundSet((Channel.bsc(0.05), Channel.bsc(0.95)), ((0,), (1,)))
        metrics = build_metrics("map", [Channel.bsc(0.05), Channel.bsc(0.95)], UNIFORM)
        gmap = estimate_error(
            cset, Decoder(metrics), UNIFORM, 32, 0.3, 1500, seed=31
        )
        mmi = estimate_error(cset, Decoder(), UNIFORM, 32, 0.3, 1500, seed=31)
        for g, m in zip(gmap, mmi):
            sigma = math.sqrt(max(g.error_rate * (1 - g.error_rate), 1e-4) / g.trials)
            assert m.error_rate <= g.error_rate + 3 * sigma

    def test_rate_must_be_positive(self):
        cset = CompoundSet((Channel.bsc(0.05),))
        with pytest.raises(ValueError):
            estimate_error(cset, Decoder(), UNIFORM, 16, 0.0, 10, seed=1)

    @pytest.mark.parametrize("method", ["codebook", "ensemble"])
    @pytest.mark.parametrize(
        "n,rate,trials,message",
        [
            (0, 0.25, 10, "block_length must be at least 1"),
            (-3, 0.25, 10, "block_length must be at least 1"),
            (16, 0.25, -2, "trials must be nonnegative"),
            (16, math.nan, 10, "rate_bits must be finite"),
            (16, math.inf, 10, "rate_bits must be finite"),
        ],
    )
    def test_inputs_validated_up_front(self, method, n, rate, trials, message):
        cset = CompoundSet((Channel.bsc(0.05),))
        with pytest.raises(ValueError, match=message):
            estimate_error(cset, Decoder(), UNIFORM, n, rate, trials, seed=1, method=method)

    @pytest.mark.parametrize("method", ["codebook", "ensemble"])
    def test_zero_trials_allowed(self, method):
        cset = CompoundSet((Channel.bsc(0.05),))
        (st,) = estimate_error(cset, Decoder(), UNIFORM, 16, 0.25, 0, seed=1, method=method)
        assert (st.trials, st.errors, st.wilson_low, st.wilson_high) == (0, 0, 0.0, 1.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_letter_input(self, method):
        # every codeword is the constant word, so every trial is a tie
        cset = CompoundSet((Channel(np.array([[0.2, 0.3, 0.5]])),))
        stats = estimate_error(cset, Decoder(), Distribution(np.array([1.0])), 8, 0.3, 5, seed=2, method=method)
        assert stats[0].errors == 5
        if method == "ensemble":
            assert stats[0].mean_error_prob == 1.0
            assert stats[0].tie_errors is None
        else:
            assert stats[0].tie_errors == 5

    def test_codeword_count_past_float_range(self):
        # n * rate = 1100.8 bits: 2^(n * rate) overflows a float; M is 2^0.8 as a float times 2^1100
        w = Channel.bsc(0.01)
        cset = CompoundSet((w,))
        decoder = Decoder((Metric(np.log(w.matrix)),))
        n, rate = 1376, 0.8
        (st,) = estimate_error(cset, decoder, UNIFORM, n, rate, 3, seed=1, method="ensemble")
        assert st.num_codewords == Fraction(2.0 ** (n * rate - 1100)) * 2**1100
        assert 0.0 <= st.mean_error_prob < 1e-6  # rate 0.8 bits, capacity 0.92 bits
        with pytest.raises(ValueError, match="exceeds the cap"):
            estimate_error(cset, decoder, UNIFORM, n, rate, 3, seed=1)

    def test_competitor_union_past_float_range(self):
        # (M - 1) q = 1 with M - 1 = 2^1050 beyond any float
        assert _any_competitor_reaches(2.0**-1050, 2**1050 + 1) == pytest.approx(-math.expm1(-1.0), rel=1e-14)
        assert _any_competitor_reaches(0.3, 2**2000) == 1.0
        assert _any_competitor_reaches(0.0, 2**2000) == 0.0

    def test_glrt_loses_to_gmap_on_embedded_mismatch_example(self):
        # the member whose centered direction opposes the other block's
        # metric keeps a constant-order error under the likelihood family
        from ccdec import Direction, embed

        noise = Distribution(np.array([0.5, 0.5]))
        dirs = [
            Direction(np.array(v), noise)
            for v in ([[-2.0, 2.0], [-7.0, 7.0]], [[2.0, -2.0], [0.0, 0.0]], [[-1.0, 1.0], [1.0, -1.0]])
        ]
        w = [embed(d, 0.05) for d in dirs]
        truth = CompoundSet((w[0],))
        worsts = [w[1], w[2]]
        trials = 1500
        glrt = estimate_error(
            truth, Decoder(build_metrics("ml", worsts, UNIFORM)),
            UNIFORM, 64, 0.008, trials, seed=7, method="ensemble",
        )[0]
        gmap = estimate_error(
            truth, Decoder(build_metrics("map", worsts, UNIFORM)),
            UNIFORM, 64, 0.008, trials, seed=7, method="ensemble",
        )[0]
        sigma = math.sqrt(glrt.error_rate * (1 - glrt.error_rate) / trials) + math.sqrt(
            gmap.error_rate * (1 - gmap.error_rate) / trials
        )
        assert glrt.error_rate >= gmap.error_rate + 3 * sigma


def _reference_codebook_counts(cset, decoder, input_dist, n, rate_bits, trials, seed):
    """Per-channel (errors, tie_errors) of the codebook method, one materialized codebook per trial."""
    nx, ny = cset.channels[0].nx, cset.channels[0].ny
    m = max(2, math.ceil(2.0 ** (n * rate_bits)))
    out = []
    for ch_idx, channel in enumerate(cset.channels):
        errors = ties = 0
        for t in range(trials):
            cb = generate_codebook(input_dist, n, m, [seed, ch_idx, t, 0])
            msg = int(np.random.default_rng([seed, ch_idx, t, 1]).integers(m))
            y = transmit(channel, cb.words[msg], [seed, ch_idx, t, 2])
            scores = score_codewords(y, cb, decoder, nx, ny)
            cut = _tie_threshold(float(scores.max()))
            tied = scores[msg] >= cut and (scores >= cut).sum() > 1
            ties += int(tied)
            errors += int(scores[msg] < cut or tied)
        out.append((errors, ties))
    return out


W3 = (
    Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.1, 0.7]])),
    Channel(np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]])),
)
SCAN_CASES = {
    # set, input, n, (rate below capacity, rate above it)
    "bsc-pair": (CompoundSet((Channel.bsc(0.1), Channel.bsc(0.25))), UNIFORM, 24, (0.1, 0.4)),
    # 16 true words per chunk, so 20 trials end in a ragged second chunk
    "noisy-bsc-pair-chunks": (CompoundSet((Channel.bsc(0.3), Channel.bsc(0.45))), UNIFORM, 256, (0.004, 0.035)),
    "three-inputs-one-unused": (CompoundSet(W3), Distribution(np.array([0.5, 0.0, 0.5])), 24, (0.15, 0.5)),
    "one-letter": (CompoundSet((Channel(np.array([[0.2, 0.3, 0.5]])),)), Distribution(np.array([1.0])), 8, (0.3, 1.2)),
}


class TestCodebookScan:
    """The streamed, early-stopping codebook scan counts what a materialized codebook per trial counts."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 2**33 + 5])
    @pytest.mark.parametrize("side", [0, 1], ids=["below-capacity", "above-capacity"])
    @pytest.mark.parametrize("kind", ["ml", "gmap", "mmi"])
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_matches_materialized_codebooks(self, monkeypatch, case, kind, side, seed):
        cset, p, n, rates = SCAN_CASES[case]
        decoder = family(SetAnalysis(cset, p), kind)
        stops = []
        scan = ccdec.simulate._scan_codebook

        def spy(*args):
            best = scan(*args)
            stops.append(_tie_threshold(best) > args[-1])  # the last argument is s_true
            return best

        monkeypatch.setattr(ccdec.simulate, "_scan_codebook", spy)
        stats = estimate_error(cset, decoder, p, n, rates[side], 20, seed)
        assert [(st.errors, st.tie_errors) for st in stats] == _reference_codebook_counts(
            cset, decoder, p, n, rates[side], 20, seed
        )
        if case == "one-letter":  # every trial ties, which only a full scan can tell
            assert not any(stops)
        elif side:
            assert any(stops) and stats[0].num_codewords > ccdec.simulate._FIRST_BLOCK
        else:
            assert not all(stops)


class TestCompetitorScores:
    """The scan's column-layout scorer against ``_score_types`` on the joint types of random codewords."""

    ALPHABETS = {
        # channel shape, input
        "1x3": ((1, 3), [1.0]),
        "2x2": ((2, 2), [0.4, 0.6]),
        "3x3-zero-mass-letter": ((3, 3), [0.5, 0.0, 0.5]),
        "4x5": ((4, 5), [0.1, 0.2, 0.3, 0.4]),
    }

    @pytest.mark.parametrize("kind", ["ml", "gmap", "mmi"])
    @pytest.mark.parametrize("alphabet", list(ALPHABETS))
    def test_matches_score_types(self, rng, alphabet, kind):
        (nx, ny), probs = self.ALPHABETS[alphabet]
        p = Distribution(np.array(probs))
        cset = CompoundSet(tuple(Channel(rng.dirichlet(np.ones(ny), size=nx)) for _ in range(3)), ((0,), (1, 2)))
        decoder = family(SetAnalysis(cset, p), kind)
        n, rows = 37, 300
        u = rng.random((rows, n))
        y = rng.integers(ny, size=n)
        onehot = (y[:, None] == np.arange(ny)).astype(np.float32)
        at_least = _counts_at_least(u, _thresholds(p.probs), onehot, np.empty((rows, n), dtype=np.float32))
        got = _competitor_scores(at_least, np.bincount(y, minlength=ny), decoder, n)
        words = (u[:, :, None] >= _thresholds(p.probs)).sum(axis=2)
        want = _score_types(joint_type_counts(words, y, nx, ny), decoder, n)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# Every finite float, and scores around |s| = 1, where the band turns from absolute to relative.
SCORES = (
    hyp_st.floats(allow_nan=False, allow_infinity=False)
    | hyp_st.floats(min_value=0.5, max_value=2.0)
    | hyp_st.floats(min_value=-2.0, max_value=-0.5)
    | hyp_st.sampled_from([-1.0, 0.0, 1.0])
)


class TestTieThreshold:
    """The two facts the codebook scan's early stop and its error and tie rule rest on."""

    @settings(max_examples=500)
    @given(s=SCORES)
    def test_strictly_below_its_argument(self, s):
        assert _tie_threshold(s) < s

    @settings(max_examples=500)
    @given(s=SCORES, t=SCORES)
    def test_nondecreasing(self, s, t):
        lo, hi = sorted((s, t))
        assert _tie_threshold(lo) <= _tie_threshold(hi)

    @settings(max_examples=500)
    @given(s=SCORES)
    def test_nondecreasing_between_adjacent_floats(self, s):
        below, above = math.nextafter(s, -math.inf), math.nextafter(s, math.inf)
        assume(math.isfinite(below) and math.isfinite(above))
        assert _tie_threshold(below) <= _tie_threshold(s) <= _tie_threshold(above)


class TestFormatCount:
    def test_counts_up_to_4300_digits_stay_integers(self):
        assert format_count(2) == 2
        assert format_count(10**4300 - 1) == 10**4300 - 1
        assert format_count(2**14284) == 2**14284  # 4300 digits

    def test_larger_counts_become_odd_times_power_of_two(self):
        assert format_count(2**14285) == "1*2^14285"  # 4301 digits
        assert format_count(3 * 2**20000) == "3*2^20000"


class TestCompetitorExceedance:
    """The joint-type enumeration against every competitor word, one by one."""

    NX, NY, N = 3, 2, 4

    @pytest.mark.parametrize("probs", [[0.2, 0.5, 0.3], [0.0, 1.0, 0.0]], ids=["full", "point-mass"])
    @pytest.mark.parametrize("kind", ["linear", "generalized", "mmi"])
    def test_matches_brute_force(self, rng, kind, probs):
        p = Distribution(np.array(probs))
        num_metrics = {"linear": 1, "generalized": 3, "mmi": 0}[kind]
        metrics = [Metric(rng.normal(size=(self.NX, self.NY))) for _ in range(num_metrics)]
        decoder = Decoder(metrics)  # one metric is linear, none is MMI
        words = Codebook(np.array(list(itertools.product(range(self.NX), repeat=self.N))))
        word_probs = p.probs[words.words].prod(axis=1)
        for y in (np.array([0, 1, 1, 0]), np.array([1, 1, 1, 1]), np.array([0, 0, 0, 1])):
            scores = score_codewords(y, words, decoder, self.NX, self.NY)
            y_counts = np.bincount(y, minlength=self.NY)
            for s in np.unique(scores):
                cut = _tie_threshold(float(s))
                want = word_probs[scores >= cut].sum()
                got = _exceedance(y_counts, p, decoder, self.N, cut)
                assert got == pytest.approx(want, abs=1e-12)

    def test_type_budget_bounds_binary_inputs(self):
        # 2 inputs, 4 outputs, n = 256: about 65^4 = 1.8e7 joint types; the
        # error comes before any output type's grid is allocated
        w = Channel(np.full((2, 4), 0.25))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="use method='codebook'"):
                estimate_error(
                    CompoundSet((w,)), Decoder(), UNIFORM, 256, 0.1, 20, seed=1, method="ensemble"
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_error_past_the_float_range(self):
        # 16 x 16 types at n = 10^4: about 10^478 joint types, an int with no float
        y_counts = np.full(16, 625)
        with pytest.raises(ValueError, match=r"needs 10\^478 joint types at block length 10000, .*'codebook'"):
            _competitor_grid(y_counts, Distribution.uniform(16), Decoder(), 10_000)


class TestOutputTypeGrouping:
    """Trials read off their output type's shared grid agree exactly with trials computed one by one."""

    @staticmethod
    def one_by_one(cset, decoder, p, n, rate_bits, trials, seed):
        num_codewords = math.ceil(2.0 ** (n * rate_bits))
        nx, ny = cset.channels[0].nx, cset.channels[0].ny
        out, types = [], set()
        for ch, w in enumerate(cset.channels):
            errors, prob_sum = 0, 0.0
            for t in range(trials):
                x = _draw_symbols(p.probs, n, [seed, ch, t, 0])
                y = transmit(w, x, [seed, ch, t, 2])
                s_true = score_codewords(y, Codebook(x[None, :]), decoder, nx, ny)[0]
                y_counts = np.bincount(y, minlength=ny)
                types.add((ch, tuple(y_counts.tolist())))
                q = _exceedance(y_counts, p, decoder, n, _tie_threshold(float(s_true)))
                e = _any_competitor_reaches(q, num_codewords)
                prob_sum += e
                if np.random.default_rng([seed, ch, t, 3]).random() < e:
                    errors += 1
            out.append((errors, prob_sum / trials))
        return out, types

    SETS = {
        "binary": (
            [[[0.95, 0.05], [0.05, 0.95]], [[0.9, 0.1], [0.25, 0.75]]], [0.4, 0.6], 12, 0.25,
        ),
        "3x3": (
            [
                [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
                [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.05, 0.25, 0.7]],
            ],
            [0.3, 0.3, 0.4], 8, 0.3,
        ),
        # 40 true words per chunk, so 60 trials end in a ragged second chunk
        "binary-chunks": (
            [[[0.95, 0.05], [0.05, 0.95]], [[0.9, 0.1], [0.25, 0.75]]], [0.4, 0.6], 100, 0.55,
        ),
    }

    def check_one_by_one(self, decoder, name, seed):
        matrices, probs, n, rate_bits = self.SETS[name]
        channels = [Channel(np.array(m)) for m in matrices]
        cset = CompoundSet(tuple(channels))
        p = Distribution(np.array(probs))
        metrics = () if decoder == "mmi" else build_metrics("map", channels, p)
        trials = 60
        want, types = self.one_by_one(cset, Decoder(metrics), p, n, rate_bits, trials, seed=seed)
        assert len(types) < len(channels) * trials  # output types repeat, so trials share grids
        got = estimate_error(cset, Decoder(metrics), p, n, rate_bits, trials, seed=seed, method="ensemble")
        assert [(st.errors, st.mean_error_prob) for st in got] == want
        assert any(0 < errors < trials for errors, _ in want)

    @pytest.mark.parametrize("decoder", ["gmap", "mmi"])
    @pytest.mark.parametrize("name", SETS)
    def test_matches_trials_one_by_one(self, decoder, name):
        self.check_one_by_one(decoder, name, seed=4)

    @pytest.mark.parametrize("decoder", ["gmap", "mmi"])
    @pytest.mark.parametrize("name", SETS)
    def test_matches_trials_one_by_one_at_a_multi_word_seed(self, decoder, name):
        self.check_one_by_one(decoder, name, seed=2**33 + 5)

    @pytest.mark.parametrize("name", SETS)
    def test_one_grid_per_output_type_of_the_set(self, monkeypatch, name):
        matrices, probs, n, rate_bits = self.SETS[name]
        channels = [Channel(np.array(m)) for m in matrices]
        cset = CompoundSet(tuple(channels))
        p = Distribution(np.array(probs))
        decoder = Decoder(build_metrics("map", channels, p))
        _, types = self.one_by_one(cset, decoder, p, n, rate_bits, 60, seed=4)
        built = []

        def spy(y_counts, *args):
            built.append(tuple(y_counts.tolist()))
            return _competitor_grid(y_counts, *args)

        monkeypatch.setattr(ccdec.simulate, "_competitor_grid", spy)
        estimate_error(cset, decoder, p, n, rate_bits, 60, seed=4, method="ensemble")
        assert sorted(built) == sorted({y_counts for _, y_counts in types})
        assert len(built) < len(types)  # the channels share output types


class TestTrueWords:
    """The chunked batch of true words against trials drawn, sent and scored one at a time."""

    CASES = {
        # channels, input, n
        "binary": ([[[0.9, 0.1], [0.25, 0.75]], [[0.8, 0.2], [0.1, 0.9]]], [0.4, 0.6], 300),
        "3x3": ([W3[0].matrix.tolist(), W3[1].matrix.tolist()], [0.3, 0.3, 0.4], 40),
        "zero-mass-letter": ([W3[0].matrix.tolist(), W3[1].matrix.tolist()], [0.5, 0.0, 0.5], 40),
        "one-letter": ([[[0.2, 0.3, 0.5]], [[0.5, 0.25, 0.25]]], [1.0], 64),
        "nine-outputs": (
            np.random.default_rng(5).dirichlet(np.ones(9), size=(2, 3)).tolist(), [0.2, 0.5, 0.3], 50,
        ),
    }

    @staticmethod
    def lone_trials(channel, decoder, p, n, seed, ch_idx, msgs):
        for t, msg in enumerate(msgs):
            x = _draw_symbols(p.probs, n, np.random.PCG64([seed, ch_idx, t, 0]).advance(msg * n))
            y = transmit(channel, x, [seed, ch_idx, t, 2])
            score = score_codewords(y, Codebook(x[None, :]), decoder, channel.nx, channel.ny)[0]
            yield y, np.bincount(y, minlength=channel.ny), score

    @pytest.mark.parametrize("kind", ["ml", "gmap", "mmi"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_lone_trials(self, case, kind):
        self.check_lone_trials(case, kind, seed=7)

    @pytest.mark.parametrize("kind", ["ml", "gmap", "mmi"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_lone_trials_at_a_multi_word_seed(self, case, kind):
        self.check_lone_trials(case, kind, seed=2**33 + 5)

    def check_lone_trials(self, case, kind, seed):
        matrices, probs, n = self.CASES[case]
        channels = tuple(Channel(np.array(m)) for m in matrices)
        p = Distribution(np.array(probs))
        decoder = family(SetAnalysis(CompoundSet(channels), p), kind)
        rows = ccdec.simulate._CHUNK_SYMBOLS // n
        trials = 2 * rows + 3  # two full chunks and a ragged one
        num_codewords = 2**40
        msgs = [0, num_codewords - 1, *np.random.default_rng(3).integers(num_codewords, size=trials - 2).tolist()]
        chunks = list(ccdec.simulate._true_words(channels[1], decoder, p, n, seed, 1, msgs))
        assert [lo for lo, *_ in chunks] == [0, rows, 2 * rows]
        received = np.concatenate([y for _, y, _, _ in chunks])
        y_counts = np.concatenate([c for _, _, c, _ in chunks])
        scores = np.concatenate([s for *_, s in chunks])
        want = list(self.lone_trials(channels[1], decoder, p, n, seed, 1, msgs))
        assert np.array_equal(received, [y for y, _, _ in want])
        assert np.array_equal(y_counts, [c for _, c, _ in want])
        assert scores.tobytes() == np.array([s for *_, s in want]).tobytes()

    def test_no_trials_no_chunks(self):
        p = Distribution(np.array([0.4, 0.6]))
        assert list(ccdec.simulate._true_words(Channel.bsc(0.1), Decoder(), p, 16, 1, 0, [])) == []


class TestTrialStreams:
    """One hashed pass seeds every trial's stream exactly as ``PCG64([seed, ch, t, k])`` does."""

    # t spread over 0..4999, and one t that takes two entropy words
    TS = [0, 1, 2, 3, 17, 255, 256, 1000, 2048, 3333, 4095, 4999, 2**32 + 7]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64, 2**130])
    def test_matches_seeded_pcg64(self, seed):
        for ch, k in itertools.product(range(3), range(4)):
            want = [np.random.PCG64([seed, ch, t, k]).state for t in self.TS]
            assert _trial_states(seed, ch, self.TS, k) == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hyp_st.integers(0, 2**140 - 1),
        ch=hyp_st.integers(0, 2**33),
        ts=hyp_st.lists(hyp_st.integers(0, 2**40), min_size=1, max_size=4),
        k=hyp_st.integers(0, 3),
    )
    def test_matches_seeded_pcg64_at_any_seed(self, seed, ch, ts, k):
        assert _trial_states(seed, ch, ts, k) == [np.random.PCG64([seed, ch, t, k]).state for t in ts]

    @pytest.mark.parametrize("num_codewords", [2, 3, 1000, 2**14])
    def test_shared_generator_draws_the_seeded_messages(self, num_codewords):
        # integers(M) draws buffered 32-bit halves; each reset must drop the buffer
        rng = np.random.Generator(np.random.PCG64())
        got = []
        for state in _trial_states(2**33 + 5, 1, range(40), 1):
            rng.bit_generator.state = state
            got.append(int(rng.integers(num_codewords)))
        assert got == [int(np.random.default_rng([2**33 + 5, 1, t, 1]).integers(num_codewords)) for t in range(40)]

    def test_no_trials_no_states(self):
        assert _trial_states(1, 0, range(0), 0) == []


class TestLogFactorials:
    def test_matches_gammaln(self):
        k = np.arange(2001)
        np.testing.assert_allclose(_log_factorials(2000), gammaln(k + 1), rtol=1e-15, atol=0.0)

    def test_cached_read_only(self):
        table = _log_factorials(7)
        assert _log_factorials(7) is table
        with pytest.raises(ValueError):
            table[0] = 1.0
