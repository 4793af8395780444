import math

import numpy as np
import pytest

from ccdec import (
    Channel,
    CompoundSet,
    Direction,
    Distribution,
    Metric,
    build_metrics,
    compound_capacity,
    embed,
    generalized_rate,
    joint_of,
    mismatched_rate,
    mutual_information,
    worst_channel,
)
from ccdec.rates import SetAnalysis, decoder_rates, family, min_with_ties, partition, worst_per_block
from ccdec.scenario import load_scenario
from conftest import bsc_capacity_nats, random_channel, random_distribution, segment_toward_noise

UNIFORM = Distribution.uniform(2)


class TestMismatchedRate:
    def test_matched_metric_is_mutual_information(self):
        w = Channel.bsc(0.1)
        rate = mismatched_rate(UNIFORM, w, Metric(np.log(w.matrix)))
        assert rate == pytest.approx(bsc_capacity_nats(0.1), abs=1e-8)

    def test_constant_metric_gives_zero(self):
        rate = mismatched_rate(UNIFORM, Channel.bsc(0.1), Metric(np.zeros((2, 2))))
        assert rate == 0.0

    def test_mirrored_bsc_gives_zero(self):
        # decoding BSC(0.25) with the likelihoods of BSC(0.75)
        rate = mismatched_rate(
            UNIFORM, Channel.bsc(0.25), Metric(np.log(Channel.bsc(0.75).matrix))
        )
        assert rate == 0.0

    def test_matched_identity_random(self, rng):
        for _ in range(25):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            p = random_distribution(rng, nx)
            w = random_channel(rng, nx, ny)
            rate = mismatched_rate(p, w, Metric(np.log(w.matrix)))
            assert rate == pytest.approx(mutual_information(p, w), abs=1e-6)

    def test_metric_shift_invariance(self, rng):
        for _ in range(10):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 3)
            d = Metric(rng.normal(size=(3, 3)))
            f = rng.normal(size=3)
            r0 = mismatched_rate(p, w, d)
            r1 = mismatched_rate(p, w, d.shifted(f))
            assert r1 == pytest.approx(r0, abs=1e-9)


class TestGeneralizedRate:
    def test_single_metric_reduces_to_mismatched(self, rng):
        p = random_distribution(rng, 2)
        w = random_channel(rng, 2, 3)
        d = Metric(rng.normal(size=(2, 3)))
        assert generalized_rate(p, w, [d]) == pytest.approx(
            mismatched_rate(p, w, d), abs=1e-10
        )

    def test_duplicate_metrics_change_nothing(self):
        w = Channel.bsc(0.1)
        d = Metric(np.log(w.matrix))
        rate = generalized_rate(UNIFORM, w, [d, d])
        assert rate == pytest.approx(bsc_capacity_nats(0.1), abs=1e-8)

    def test_empty_metric_list_rejected(self):
        with pytest.raises(ValueError):
            generalized_rate(UNIFORM, Channel.bsc(0.1), [])

    def test_uniform_shift_leaves_rate(self, rng):
        p = random_distribution(rng, 2)
        w = random_channel(rng, 2, 3)
        ds = [Metric(rng.normal(size=(2, 3))) for _ in range(3)]
        f = rng.normal(size=3)
        r0 = generalized_rate(p, w, ds)
        r1 = generalized_rate(p, w, [d.shifted(f) for d in ds])
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_gmap_beats_glrt_on_embedded_mismatch_example(self):
        noise = Distribution(np.array([0.5, 0.5]))
        dirs = [
            Direction(np.array(v), noise)
            for v in (
                [[-2.0, 2.0], [-7.0, 7.0]],
                [[2.0, -2.0], [0.0, 0.0]],
                [[-1.0, 1.0], [1.0, -1.0]],
            )
        ]
        w = [embed(d, 0.05) for d in dirs]
        worsts = [w[1], w[2]]
        glrt = generalized_rate(UNIFORM, w[0], build_metrics("ml", worsts, UNIFORM))
        gmap = generalized_rate(UNIFORM, w[0], build_metrics("map", worsts, UNIFORM))
        assert gmap > glrt + 1e-6


class TestLinearIsOneMetricGeneralized:
    """A linear decoder is the generalized decoder with one metric, exactly."""

    def test_mismatched_rate_is_one_metric_generalized_rate(self, rng):
        for _ in range(10):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 4)
            d = Metric(rng.normal(size=(3, 4)))
            assert mismatched_rate(p, w, d) == generalized_rate(p, w, [d])

    @pytest.mark.parametrize("linear, generalized", [("ml", "glrt"), ("map", "gmap")])
    def test_linear_family_is_whole_set_block(self, rng, linear, generalized):
        # A sample of a segment toward noise is one-sided, so its one block is the whole set.
        for _ in range(5):
            cset = segment_toward_noise(rng, 3, 3, 4)
            analysis = SetAnalysis(cset, random_distribution(rng, 3))
            assert analysis.blocks == (tuple(range(cset.size)),)
            lin, gen = family(analysis, linear), family(analysis, generalized)
            assert lin.channels == gen.channels
            assert len(lin.metrics) == len(gen.metrics) == 1
            assert np.array_equal(lin.metrics[0].values, gen.metrics[0].values)


class TestGeneralizedBlocks:
    """The GLRT and GMAP blocks: the declared components if more than one, else the cover."""

    def test_declared_components(self, rng):
        cset = CompoundSet(tuple(random_channel(rng, 3, 3) for _ in range(4)), ((0, 2), (1, 3)))
        analysis = SetAnalysis(cset, random_distribution(rng, 3))
        assert analysis.blocks == ((0, 2), (1, 3))
        gmap = family(analysis, "gmap")
        assert gmap.channels == worst_per_block(analysis.informations, ((0, 2), (1, 3)))
        assert len(gmap.metrics) == 2

    def test_undeclared_set_takes_the_cover(self):
        cset = CompoundSet((Channel.bsc(0.1), Channel.bsc(0.9)))
        analysis = SetAnalysis(cset, UNIFORM)
        assert analysis.cover == ((0,), (1,))
        assert analysis.blocks == analysis.cover
        assert family(analysis, "glrt").channels == (0, 1)
        assert family(analysis, "ml").channels == (0,)


class TestMmiRates:
    """MMI's random-coding rate on member k is ``I(P, W_k)``, which the record already holds."""

    @pytest.mark.parametrize("source", ["one-bsc", "builtin:bsc-quarter"])
    def test_mmi_rates_are_the_informations(self, source):
        if source == "one-bsc":
            cset, p = CompoundSet((Channel.bsc(0.1),)), UNIFORM
        else:
            sc = load_scenario(source)
            cset, p = sc.channels, sc.input_dist
        analysis = SetAnalysis(cset, p)
        rep = decoder_rates(analysis, family(analysis, "mmi"))
        assert rep.kind == "mmi"
        assert np.array_equal(rep.rates, analysis.informations)
        assert rep.minimum == analysis.informations.min()
        for k, w in enumerate(cset.channels):
            assert rep.rates[k] == pytest.approx(mutual_information(p, w), abs=1e-12)

    def test_record_rate_without_metrics_names_itself(self):
        analysis = SetAnalysis(CompoundSet((Channel.bsc(0.1),)), UNIFORM)
        with pytest.raises(ValueError, match=r"^SetAnalysis\.rate: need at least one metric"):
            analysis.rate(0, [])


class TestFullSetLikelihoodFamily:
    def test_rate_at_least_capacity_for_finite_sets(self, rng):
        # scoring with every member's likelihood is universal on finite sets
        for _ in range(10):
            nx = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            channels = tuple(
                random_channel(rng, nx, ny) for _ in range(int(rng.integers(2, 5)))
            )
            cset = CompoundSet(channels)
            cap = compound_capacity(cset)
            metrics = build_metrics("ml", channels, cap.input_dist)
            for w in channels:
                rate = generalized_rate(cap.input_dist, w, metrics)
                assert rate >= cap.value - 1e-5


class TestBuildMetrics:
    def test_map_of_pure_noise_is_zero(self):
        w = Channel.pure_noise(Distribution(np.array([0.3, 0.7])), 2)
        (m,) = build_metrics("map", [w], UNIFORM)
        assert np.abs(m.values).max() <= 1e-12

    def test_ml_equals_map_rate_for_single_metric(self, rng):
        p = random_distribution(rng, 3)
        w0 = random_channel(rng, 3, 3)
        w1 = random_channel(rng, 3, 3)
        (ml,) = build_metrics("ml", [w1], p)
        (mp,) = build_metrics("map", [w1], p)
        assert mismatched_rate(p, w0, ml) == pytest.approx(
            mismatched_rate(p, w0, mp), abs=1e-9
        )

    def test_map_metrics_for_mirrored_pair(self):
        # symmetric output marginal (1/2, 1/2) makes the MAP metric log(2 W)
        metrics = build_metrics("map", [Channel.bsc(0.25), Channel.bsc(0.75)], UNIFORM)
        for m, q in zip(metrics, (0.25, 0.75)):
            expected = np.log(2.0 * Channel.bsc(q).matrix)
            assert np.abs(m.values - expected).max() <= 1e-12

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            build_metrics("ml", [Channel.identity(2)], UNIFORM)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_metrics("mmi", [Channel.bsc(0.1)], UNIFORM)


class TestWorstChannel:
    def test_singleton(self):
        res = worst_channel(CompoundSet((Channel.bsc(0.1),)), UNIFORM)
        assert res.index == 0
        assert not res.tie

    def test_pair_ordering(self):
        res = worst_channel(
            CompoundSet((Channel.bsc(0.1), Channel.bsc(0.25))), UNIFORM
        )
        assert res.index == 1  # closer to pure noise, lower information
        assert not res.tie

    def test_mirrored_pair_flags_tie(self):
        res = worst_channel(
            CompoundSet((Channel.bsc(0.25), Channel.bsc(0.75))), UNIFORM
        )
        assert res.tie
        assert res.tie_indices == (0, 1)


class TestMinWithTies:
    def test_first_minimum_and_everything_within_tolerance(self):
        assert min_with_ties(np.array([0.3, 0.1, 0.1 + 5e-10, 0.1, 0.2]), 1e-9) == (1, (1, 2, 3))


class TestPartition:
    def test_numpy_indices_become_python_ints(self):
        comps = partition([np.array([2, 0]), [np.int64(1)]], 3, "owner")
        assert comps == ((2, 0), (1,))
        assert all(type(i) is int for blk in comps for i in blk)

    @pytest.mark.parametrize("index", [np.bool_(True), np.float64(1.0)], ids=["numpy-bool", "numpy-float"])
    def test_numpy_non_integer_index_rejected(self, index):
        with pytest.raises(ValueError, match=r"owner: components must partition the indices 0\.\.1"):
            partition([[0], [index]], 2, "owner")
