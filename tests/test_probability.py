import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy as scipy_xlogy

from ccdec import (
    Channel,
    Distribution,
    Joint,
    decompose,
    joint_of,
    kl_divergence,
    mutual_information,
)
from ccdec.probability import xlogy
from conftest import bsc_capacity_nats, random_channel, random_distribution

dims = st.integers(min_value=2, max_value=5)


def dist_strategy(n):
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
    ).map(lambda xs: Distribution(np.array(xs) / np.sum(xs)))


def channel_strategy(nx, ny):
    return st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=ny, max_size=ny),
        min_size=nx,
        max_size=nx,
    ).map(lambda rows: Channel(np.array(rows) / np.array(rows).sum(axis=1, keepdims=True)))


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.1, -0.1]))

    def test_channel_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_joint_total_mass(self):
        with pytest.raises(ValueError):
            Joint(np.array([[0.5, 0.25], [0.2, 0.2]]))

    def test_arrays_frozen(self):
        p = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.3


class TestJointOf:
    def test_point_mass_input_concentrates_on_row(self):
        w = Channel.bsc(0.3)
        mu = joint_of(Distribution(np.array([1.0, 0.0])), w)
        assert np.allclose(mu.matrix[0], w.matrix[0])
        assert np.allclose(mu.matrix[1], 0.0)

    def test_identity_channel_gives_diagonal(self):
        mu = joint_of(Distribution.uniform(2), Channel.identity(2))
        assert np.allclose(mu.matrix, np.diag([0.5, 0.5]))

    def test_bsc_quarter_joint(self):
        # direct multiplication: 0.5 * [[0.75, 0.25], [0.25, 0.75]]
        mu = joint_of(Distribution.uniform(2), Channel.bsc(0.25))
        assert np.allclose(mu.matrix, [[0.375, 0.125], [0.125, 0.375]], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            joint_of(Distribution.uniform(3), Channel.bsc(0.1))


class TestDecompose:
    def test_product_input_is_own_product(self):
        mu = Joint(np.outer([0.3, 0.7], [0.6, 0.4]))
        _, _, prod = decompose(mu)
        assert np.allclose(prod.matrix, mu.matrix, atol=1e-15)

    def test_diagonal_half(self):
        mx, my, prod = decompose(Joint(np.diag([0.5, 0.5])))
        assert np.allclose(mx.probs, [0.5, 0.5])
        assert np.allclose(my.probs, [0.5, 0.5])
        assert np.allclose(prod.matrix, 0.25)

    def test_bsc_column_sums(self):
        mu = joint_of(Distribution.uniform(2), Channel.bsc(0.25))
        assert np.allclose(mu.y_marginal.probs, [0.5, 0.5], atol=1e-15)

    @given(p=dist_strategy(3), w=channel_strategy(3, 4))
    @settings(max_examples=50, deadline=None)
    def test_x_marginal_recovers_input(self, p, w):
        mx, _, _ = decompose(joint_of(p, w))
        assert np.abs(mx.probs - p.probs).max() <= 1e-12


class TestKl:
    def test_identical_arguments(self):
        p = Distribution(np.array([0.2, 0.3, 0.5]))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        val = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_sum_oracle(self):
        # sum-by-hand: 0.6 ln 1.2 + 0.4 ln 0.8
        expected = 0.6 * math.log(0.6 / 0.5) + 0.4 * math.log(0.4 / 0.5)
        val = kl_divergence(np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        assert val == pytest.approx(expected, abs=1e-15)
        assert val == pytest.approx(0.020135513550689, abs=1e-12)

    def test_support_violation_returns_inf(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_zero_times_log_zero(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones(2) / 2, np.ones(3) / 3)

    def test_nearly_equal_arguments_not_negative(self):
        # the unclamped sum of this pair is -4.4e-17
        p = np.array([0.5939582519363663, 0.06675342335601325, 0.05790999541693114, 0.28137832929068934])
        q = p.copy()
        q[0] += 1e-13
        q[1] -= 1e-13
        assert kl_divergence(p, q) == 0.0

    @given(p=dist_strategy(4), q=dist_strategy(4))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_zero_iff_equal(self, p, q):
        val = kl_divergence(p, q)
        assert val >= 0.0
        if np.abs(p.probs - q.probs).max() <= 1e-9:
            assert val <= 1e-9
        if val == 0.0:
            assert np.abs(p.probs - q.probs).max() <= 1e-9


class TestMutualInformation:
    def test_pure_noise_channel(self):
        w = Channel.pure_noise(Distribution(np.array([0.3, 0.7])), 2)
        assert mutual_information(Distribution.uniform(2), w) == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_binary(self):
        val = mutual_information(Distribution.uniform(2), Channel.identity(2))
        assert val == pytest.approx(math.log(2), abs=1e-12)

    def test_bsc_quarter_closed_form(self):
        val = mutual_information(Distribution.uniform(2), Channel.bsc(0.25))
        assert val == pytest.approx(bsc_capacity_nats(0.25), abs=1e-12)
        assert val == pytest.approx(0.130812, abs=1e-6)

    def test_sum_form_cross_check(self, rng):
        # I = sum_ab mu(a,b) log(W(b|a) / mu_Y(b)) directly
        for _ in range(20):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 4)
            mu = joint_of(p, w).matrix
            my = mu.sum(axis=0)
            direct = float(np.sum(mu * (np.log(w.matrix) - np.log(my)[None, :])))
            assert mutual_information(p, w) == pytest.approx(direct, abs=1e-12)


class TestXlogy:
    def test_matches_scipy(self, rng):
        x = rng.uniform(0.0, 3.0, size=1000) * (rng.random(1000) < 0.8)
        y = rng.uniform(1e-12, 5.0, size=1000)
        np.testing.assert_allclose(xlogy(x, y), scipy_xlogy(x, y), rtol=1e-15, atol=0.0)

    def test_zero_times_log_zero(self):
        assert xlogy(0.0, 0.0) == 0.0
        assert xlogy(0.0, 2.0) == 0.0

    def test_positive_times_log_zero_is_minus_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = xlogy(np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.0, 0.0]))
        assert out.tolist() == [0.0, -math.inf, -math.inf]

    def test_broadcasts_like_scipy(self):
        counts = np.array([[0, 2, 1], [3, 0, 0]])
        probs = np.array([0.2, 0.0, 0.8])
        want = np.array([[0.0, -math.inf, math.log(0.8)], [3 * math.log(0.2), 0.0, 0.0]])
        np.testing.assert_allclose(xlogy(counts, probs), want, rtol=1e-15, atol=0.0)
