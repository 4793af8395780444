import math

import numpy as np
import pytest
from scipy.special import logsumexp

from ccdec import Channel, Distribution, joint_of, kl_divergence, kl_projection
from ccdec.projection import _logsumexp
from conftest import bsc_capacity_nats, random_channel, random_distribution


def grid_search_oracle(base, d, threshold, step=1e-4):
    """Brute-force the 2x2 projection with uniform marginals.

    Joints with both marginals (1/2, 1/2) form the one-parameter family
    [[x, 1/2 - x], [1/2 - x, x]]; scan x and keep the best feasible point.
    """
    best = math.inf
    for x in np.arange(0.0, 0.5 + step, step):
        mu = np.array([[x, 0.5 - x], [0.5 - x, x]])
        if mu.min() < 0:
            continue
        if float(np.sum(mu * d)) < threshold:
            continue
        best = min(best, kl_divergence(mu, base.matrix))
    return best


class TestInactiveConstraint:
    def test_threshold_below_base_expectation(self):
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.1))
        base = mu0.product
        d = np.log(Channel.bsc(0.1).matrix)
        res = kl_projection(base, mu0.x_marginal, mu0.y_marginal, d, float(np.sum(base.matrix * d)) - 1.0)
        assert res.value == 0.0
        assert res.minimizer is base
        assert res.multiplier == 0.0


class TestMatchedIdentity:
    def test_bsc_point_one(self):
        p = Distribution.uniform(2)
        w = Channel.bsc(0.1)
        mu0 = joint_of(p, w)
        d = np.log(w.matrix)
        threshold = float(np.sum(mu0.matrix * d))
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, threshold)
        expected = bsc_capacity_nats(0.1)
        assert res.value == pytest.approx(expected, abs=1e-8)
        # minimizer is the true joint itself
        assert np.abs(res.minimizer.matrix - mu0.matrix).max() <= 1e-7
        assert res.multiplier == pytest.approx(1.0, abs=1e-4)

    def test_against_grid_search(self):
        p = Distribution.uniform(2)
        w = Channel.bsc(0.1)
        mu0 = joint_of(p, w)
        d = np.log(w.matrix)
        threshold = float(np.sum(mu0.matrix * d))
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, threshold)
        oracle = grid_search_oracle(mu0.product, d, threshold)
        assert res.value == pytest.approx(oracle, abs=5e-4)


class TestInfeasible:
    def test_constant_score_above_its_own_value(self):
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.2))
        d = np.full((2, 2), 3.0)
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, 3.5)
        assert res.value == math.inf
        assert not res.feasible
        assert res.minimizer is None

    def test_threshold_above_polytope_maximum(self):
        # max of E_mu[d] over joints with uniform marginals is at x = 1/2: d diagonal-heavy
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.3))
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, 1.0 + 1e-3)
        assert res.value == math.inf


class TestSolverContract:
    def test_boundary_threshold_near_max(self):
        # threshold exactly at the polytope maximum is reached asymptotically:
        # within the infeasibility slack the solver returns the boundary value
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.3))
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, 1.0 - 1e-7)
        assert res.feasible
        # the feasible joint concentrates on the diagonal
        assert res.value == pytest.approx(math.log(2), rel=1e-3)

    def test_constraint_met_at_stop(self, rng):
        for _ in range(20):
            p = random_distribution(rng, 3)
            w = random_channel(rng, 3, 3)
            mu0 = joint_of(p, w)
            d = np.log(random_channel(rng, 3, 3).matrix)
            threshold = float(np.sum(mu0.matrix * d))
            res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, threshold)
            if math.isfinite(res.value) and res.multiplier > 0:
                assert abs(res.constraint_gap) <= 1e-8
                assert res.marginal_residual <= 1e-10

    def test_minimizer_matches_value(self, rng):
        for _ in range(10):
            p = random_distribution(rng, 2)
            w = random_channel(rng, 2, 3)
            mu0 = joint_of(p, w)
            d = np.log(random_channel(rng, 2, 3).matrix)
            threshold = float(np.sum(mu0.matrix * d))
            res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, threshold)
            assert res.value == pytest.approx(
                kl_divergence(res.minimizer, mu0.product), abs=1e-9
            )

    def test_monotone_in_threshold(self, rng):
        p = random_distribution(rng, 3)
        w = random_channel(rng, 3, 3)
        mu0 = joint_of(p, w)
        d = np.log(w.matrix)
        base_expect = float(np.sum(mu0.product.matrix * d))
        top = float(np.sum(mu0.matrix * d))
        values = []
        for threshold in np.linspace(base_expect - 0.1, top, 12):
            res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, float(threshold))
            values.append(res.value)
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-8


class TestLogSumExp:
    def test_matches_scipy(self, rng):
        for shape in ((2, 2), (3, 4), (4, 3), (5, 1)):
            for _ in range(20):
                x = rng.normal(scale=3.0, size=shape)
                x[rng.random(shape) < 0.25] = -np.inf
                # far below exp's range: only the shifted sum survives
                x[-1] -= 1000.0
                for axis in (0, 1):
                    np.testing.assert_allclose(
                        _logsumexp(x, axis), logsumexp(x, axis=axis), rtol=1e-15, atol=1e-15
                    )

    def test_all_minus_inf_row_and_column(self):
        x = np.array([[0.3, -np.inf, -1.2], [-np.inf, -np.inf, -np.inf], [2.0, -np.inf, 0.5]])
        for axis in (0, 1):
            got = _logsumexp(x, axis)
            np.testing.assert_allclose(got, logsumexp(x, axis=axis), rtol=1e-15, atol=1e-15)
            assert got[1] == -np.inf


class TestDeadLetters:
    """A zero-mass letter is removed: the projection equals the one without it."""

    @staticmethod
    def project(p, w, d):
        mu0 = joint_of(p, w)
        threshold = float(np.sum(mu0.matrix * d))
        return kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, threshold)

    def test_zero_input_letter(self, rng):
        for _ in range(5):
            p = random_distribution(rng, 2).probs
            w = random_channel(rng, 3, 3).matrix
            d = np.log(w + 0.01 * random_channel(rng, 3, 3).matrix)
            full = self.project(Distribution(np.array([p[0], 0.0, p[1]])), Channel(w), d)
            kept = [0, 2]
            reduced = self.project(Distribution(p), Channel(w[kept]), d[kept])
            assert reduced.multiplier > 0
            assert full.value == pytest.approx(reduced.value, abs=1e-12)
            np.testing.assert_allclose(full.minimizer.matrix[kept], reduced.minimizer.matrix, atol=1e-12)
            assert np.all(full.minimizer.matrix[1] == 0.0)

    def test_zero_output_letter(self, rng):
        for _ in range(5):
            w = random_channel(rng, 3, 3).matrix.copy()
            w[:, 1] = 0.0
            w /= w.sum(axis=1, keepdims=True)
            p = random_distribution(rng, 3)
            d = np.log(w + 0.01 * random_channel(rng, 3, 3).matrix)
            full = self.project(p, Channel(w), d)
            kept = [0, 2]
            reduced = self.project(p, Channel(w[:, kept]), d[:, kept])
            assert reduced.multiplier > 0
            assert full.value == pytest.approx(reduced.value, abs=1e-12)
            np.testing.assert_allclose(full.minimizer.matrix[:, kept], reduced.minimizer.matrix, atol=1e-12)
            assert np.all(full.minimizer.matrix[:, 1] == 0.0)
