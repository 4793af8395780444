import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import ccdec.projection
from ccdec import Channel, Distribution, Joint, joint_of, kl_divergence, kl_projection, mutual_information
from ccdec.projection import _greedy_coupling, _logsumexp, _polytope_max, _simplex, _transport_constraints
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

    def test_first_probe_settles_a_matched_metric(self, rng):
        # lam = 1 is the exact multiplier; its fit meets the threshold up to
        # roundoff, which the bracket accepts without a bisection
        for _ in range(30):
            nx, ny = (int(n) for n in rng.integers(2, 5, size=2))
            p = random_distribution(rng, nx)
            w = random_channel(rng, nx, ny)
            mu0 = joint_of(p, w)
            d = np.log(w.matrix)
            res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, float(np.sum(mu0.matrix * d)))
            assert (res.multiplier, res.bisection_steps) == (1.0, 0)
            assert res.value == pytest.approx(mutual_information(p, w), abs=1e-9)


class TestInfeasible:
    def test_constant_score_above_its_own_value(self):
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.2))
        d = np.full((2, 2), 3.0)
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, 3.5)
        assert res.value == math.inf
        assert not res.feasible
        assert res.minimizer is None

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the reachability LP settles an unreachable threshold before any fit")

        monkeypatch.setattr(ccdec.projection, "_lockstep", fail)

    def test_threshold_above_polytope_maximum(self, no_fit):
        # max of E_mu[d] over joints with uniform marginals is at x = 1/2: d diagonal-heavy
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.3))
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = kl_projection(mu0.product, mu0.x_marginal, mu0.y_marginal, d, 1.0 + 1e-3)
        assert res.value == math.inf
        assert (res.fit_iterations, res.bisection_steps) == (0, 0)
        assert res.constraint_gap == pytest.approx(-1e-3, abs=1e-15)

    def test_base_support_without_a_coupling(self, no_fit):
        # every joint on the base's support has output marginal (1, 0), never
        # the uniform one: the constraint set is empty for any threshold
        uniform = Distribution.uniform(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kl_projection(Joint(np.array([[0.5, 0.0], [0.5, 0.0]])), uniform, uniform, np.eye(2), 0.6)
        assert (res.value, res.feasible, res.minimizer) == (math.inf, False, None)
        assert (res.fit_iterations, res.bisection_steps) == (0, 0)
        assert res.constraint_gap == -math.inf


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

    def test_bisection_steps_count_the_bisection_fits(self, monkeypatch):
        # Uniform base, score on one cell: a fit's kernel is log(1/4) + lam d,
        # so its multiplier reads off one kernel entry.  The bracket probes
        # lam = 1, 2, 4, ...; the bisection probes new multipliers strictly
        # inside the bracket; a landing fit repeats an earlier kernel.
        kernels = []

        def spy(*args):
            # Forward the solver's fit requests, recording each kernel.
            solver, fitted = solve(*args), None
            try:
                while True:
                    request = solver.send(fitted)
                    kernels.append(request[0].copy())
                    fitted = yield request
            except StopIteration as done:
                return done.value

        solve = ccdec.projection._solve
        monkeypatch.setattr(ccdec.projection, "_solve", spy)
        uniform = Distribution.uniform(2)
        base = Joint(np.full((2, 2), 0.25))
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        landed = 0
        for threshold in np.linspace(0.32, 0.49, 9):
            kernels.clear()
            res = kl_projection(base, uniform, uniform, d, float(threshold))
            lams = [k[0, 0] - k[0, 1] for k in kernels]
            bracket = next(i for i, lam in enumerate(lams) if not math.isclose(lam, 2.0**i))
            seen = {k.tobytes() for k in kernels[:bracket]}
            fresh = []
            for k in kernels[bracket:]:
                fresh.append(k.tobytes() not in seen)
                seen.add(k.tobytes())
            assert res.bisection_steps == sum(fresh) > 0
            assert all(fresh[:-1])
            landed += not fresh[-1]
        assert landed > 0

    def test_width_rule_ends_the_bisection(self, monkeypatch):
        # With no expectation tolerance only the width rule ends the bisection:
        # the bracket starts no wider than max(1, lo) and stops at 1e-15 max(1, hi).
        monkeypatch.setattr(ccdec.projection, "CONSTRAINT_TOL", 0.0)
        rng = np.random.default_rng(5)
        steps = []
        for _ in range(20):
            nx, ny = (int(n) for n in rng.integers(2, 5, size=2))
            row, col = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
            base = np.outer(row, col)
            d = rng.normal(size=(nx, ny))
            low = float(np.sum(base * d))
            top = _polytope_max(base > 0.0, row, col, d)
            threshold = low + rng.random() * (top - low)
            res = kl_projection(Joint(base), Distribution(row), Distribution(col), d, threshold)
            assert res.feasible and res.multiplier > 0.0
            steps.append(res.bisection_steps)
        assert max(steps) <= 50
        assert max(steps) >= 45

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


def highs_polytope_max(support, r, c, d):
    """``_polytope_max`` by scipy's HiGHS over the support cells; ``-inf`` when the LP is infeasible."""
    from scipy.optimize import linprog

    nx, ny = d.shape
    idx = np.flatnonzero(support.ravel())
    if not idx.size:
        return -math.inf  # linprog rejects an LP without variables; the marginals need mass
    a_eq = np.zeros((nx + ny, idx.size))
    a_eq[idx // ny, np.arange(idx.size)] = 1.0
    a_eq[nx + idx % ny, np.arange(idx.size)] = 1.0
    res = linprog(-d.ravel()[idx], A_eq=a_eq, b_eq=np.concatenate([r, c]), bounds=(0.0, None), method="highs")
    if res.status == 2:
        return -math.inf
    assert res.success, res.message
    return float(-res.fun)


def random_transport_lp(rng, k):
    nx, ny = (int(n) for n in rng.integers(1, 7, size=2))
    if k % 3 == 0:
        # marginals in tenths: equal partial sums make degenerate corners
        r, c = rng.multinomial(10, np.ones(nx) / nx) / 10, rng.multinomial(10, np.ones(ny) / ny) / 10
    else:
        r, c = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    if k % 4 == 1:
        d = rng.integers(-2, 3, size=(nx, ny)).astype(float)
    else:
        d = rng.normal(size=(nx, ny)) * 10.0 ** rng.uniform(-2.0, 2.0)
    support = rng.random((nx, ny)) < 0.7 if k % 2 else np.ones((nx, ny), dtype=bool)
    return support, r, c, d


class TestPolytopeMax:
    def test_matches_highs(self):
        rng = np.random.default_rng(5)
        infeasible = 0
        for k in range(2000):
            support, r, c, d = random_transport_lp(rng, k)
            got, want = _polytope_max(support, r, c, d), highs_polytope_max(support, r, c, d)
            assert (got == -math.inf) == (want == -math.inf)
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            infeasible += want == -math.inf
        assert infeasible > 0

    def test_support_without_a_coupling_gives_minus_inf(self):
        r, c, d = np.array([0.5, 0.5]), np.array([0.3, 0.7]), np.array([[1.0, 2.0], [3.0, 4.0]])
        assert _polytope_max(np.zeros((2, 2), dtype=bool), r, c, d) == -math.inf
        # row 0 can reach only column 0, which holds less than row 0's mass
        support = np.array([[True, False], [True, True]])
        assert _polytope_max(support, r, c, d) == -math.inf
        assert highs_polytope_max(support, r, c, d) == -math.inf

    def test_constraint_matrix_cached_read_only(self):
        cols = _transport_constraints(3, 4)
        assert _transport_constraints(3, 4) is cols
        assert cols.shape == (3 + 4 - 1, 3 * 4)
        with pytest.raises(ValueError):
            cols[0, 0] = 2.0
        # row a sums the cells of input a, row nx + b those of output b
        np.testing.assert_array_equal(cols.reshape(-1, 3, 4)[1], [[0] * 4, [1] * 4, [0] * 4])
        np.testing.assert_array_equal(cols.reshape(-1, 3, 4)[3 + 2], [[0, 0, 1, 0]] * 3)


class TestSimplex:
    def test_integer_degenerate_instances_reach_a_certified_optimum(self):
        # max cost.y s.t. [I A] y = b, y >= 0 from the slack basis; zeros in b
        # and small integers everywhere make degenerate pivots common.
        rng = np.random.default_rng(6)
        for _ in range(2000):
            m, n = (int(k) for k in rng.integers(1, 6, size=2))
            a = rng.integers(0, 3, size=(m, n)).astype(float)
            a[rng.integers(m, size=n), np.arange(n)] += 1.0  # bounded: each column has a positive entry
            cols = np.hstack([np.eye(m), a])
            rhs = rng.integers(0, 3, size=m).astype(float)
            cost = np.concatenate([np.zeros(m), rng.integers(-2, 4, size=n).astype(float)])
            y, prices = _simplex(cols, rhs, cost, list(range(m)))
            assert y.min() >= 0.0
            np.testing.assert_allclose(cols @ y, rhs, atol=1e-12)
            assert (prices @ cols - cost).min() >= -1e-12
            assert prices @ rhs == pytest.approx(cost @ y, abs=1e-12)



def mixed_problems(rng, count):
    """Seeded problems up to 9x9: matched metrics, inactive, interior and LP-unreachable thresholds.

    Every fifth problem has a zero input letter and every fifth, offset by
    one, a zero output letter, so the alive blocks take several shapes.
    """
    problems = []
    for k in range(count):
        nx, ny = (int(n) for n in rng.integers(1, 10, size=2))
        p = rng.dirichlet(np.ones(nx))
        w = rng.dirichlet(np.ones(ny), size=nx)
        if k % 5 == 1 and nx > 1:
            p[rng.integers(nx)] = 0.0
        if k % 5 == 2 and ny > 1:
            w[:, rng.integers(ny)] = 0.0
        p /= p.sum()
        w /= w.sum(axis=1, keepdims=True)
        mu0 = p[:, None] * w
        row, col = mu0.sum(axis=1), mu0.sum(axis=0)
        base = np.outer(row, col)
        if k % 4 == 0:
            d = np.log(np.where(w > 0.0, w, 1.0))
            threshold = float(np.sum(mu0 * d))
        else:
            d = rng.normal(size=(nx, ny))
            alive = np.ix_(row > 0.0, col > 0.0)
            top = _polytope_max(base[alive] > 0.0, row[row > 0.0], col[col > 0.0], d[alive])
            low = float(np.sum(base * d))
            threshold = {1: low - 0.1, 2: low + rng.random() * (top - low), 3: top + 0.01}[k % 4]
        problems.append((Joint(base), Distribution(row), Distribution(col), d, threshold))
    return problems


def result_bits(res):
    """Every field of a ``ProjectionResult``, floats as their bytes."""
    floats = (res.value, res.multiplier, res.marginal_residual, res.constraint_gap)
    minimizer = None if res.minimizer is None else res.minimizer.matrix.tobytes()
    return (
        tuple(np.float64(x).tobytes() for x in floats),
        res.bisection_steps,
        res.fit_iterations,
        res.feasible,
        minimizer,
    )


class TestBatch:
    """``kl_projections`` gives each problem the result a lone ``kl_projection`` gives it, bit for bit."""

    def test_matches_lone_calls(self):
        problems = mixed_problems(np.random.default_rng(11), 40)
        # The boundary of the diagonal polytope, within the slack: the multiplier caps.
        mu0 = joint_of(Distribution.uniform(2), Channel.bsc(0.3))
        problems.insert(7, (mu0.product, mu0.x_marginal, mu0.y_marginal, np.eye(2), 1.0 + 5e-7))
        lone = [kl_projection(*problem) for problem in problems]
        batch = ccdec.projection.kl_projections(problems)
        assert [result_bits(r) for r in batch] == [result_bits(r) for r in lone]
        shapes = {
            (int(np.count_nonzero(row.probs)), int(np.count_nonzero(col.probs)))
            for _, row, col, _, _ in problems
        }
        assert max(max(shape) for shape in shapes) == 9
        assert any(row.size > np.count_nonzero(row.probs) for _, row, _, _, _ in problems)
        assert any(col.size > np.count_nonzero(col.probs) for _, _, col, _, _ in problems)
        assert sum(r.feasible and r.multiplier == 0.0 for r in lone) > 0  # inactive
        assert sum(not r.feasible and r.fit_iterations == 0 for r in lone) > 0  # LP-unreachable
        assert sum(r.multiplier == 1.0 and r.bisection_steps == 0 for r in lone) > 0  # matched
        assert sum(r.bisection_steps > 0 for r in lone) > 0
        assert sum(r.multiplier == ccdec.projection.LAMBDA_CAP and r.fit_iterations > 0 for r in lone) == 1

    def test_empty_batch(self):
        assert ccdec.projection.kl_projections([]) == []

    def test_first_stalled_problem_raises(self, monkeypatch):
        # With the fit budget at 1 + 12 lam, the first fit (lam = 1) of each
        # of these near-boundary problems stops after 13 iterations; the
        # messages are the ones the per-problem fitting loop gave.
        monkeypatch.setattr(ccdec.projection, "MAX_FIT_ITERS", 1)
        rng = np.random.default_rng(4)
        stalling = []
        for _ in range(2):
            row, col = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
            base = np.outer(row, col)
            d = 3.0 * rng.normal(size=(3, 4))
            top = _polytope_max(base > 0.0, row, col, d)
            stalling.append((Joint(base), Distribution(row), Distribution(col), d, top - 1e-3))
        messages = []
        for problem in stalling:
            with pytest.raises(ccdec.projection.SolverError) as lone:
                kl_projection(*problem)
            messages.append(str(lone.value))
        assert messages == [
            "marginal fitting stalled: residual 5.393e-04 after 13 iterations",
            "marginal fitting stalled: residual 8.671e-03 after 13 iterations",
        ]
        inactive = mixed_problems(np.random.default_rng(11), 2)[1]
        assert kl_projection(*inactive).multiplier == 0.0
        with pytest.raises(ccdec.projection.SolverError) as batch:
            ccdec.projection.kl_projections([inactive, stalling[1], stalling[0]])
        assert str(batch.value) == messages[1]


def greedy_value(r, c, d):
    return float(np.sum(_greedy_coupling(r, c, d) * d))


def log_metric_problems(rng, count):
    """Seeded 2-6 x 2-6 problems with log-probability metrics, ``k % 6`` choosing the threshold.

    0 matched (``log W0`` at its own score), 1 inactive, 2 interior, 3 above
    the LP maximum, 4 interior on a base with zero cells (the channel joint
    itself), 5 reachable but above the greedy coupling's value where that
    falls short of the maximum, else below it.  Interior thresholds keep
    clear of the maximum, where the multiplier runs to its cap.  Every fifth
    problem has a zero input letter and every seventh a zero output letter.
    """
    problems = []
    for k in range(count):
        nx, ny = (int(n) for n in rng.integers(2, 7, size=2))
        p = rng.dirichlet(np.ones(nx))
        w = rng.dirichlet(np.ones(ny), size=nx)
        if k % 6 == 4:
            w[rng.random((nx, ny)) < 0.3] = 0.0
            w[np.arange(nx), rng.integers(ny, size=nx)] += 0.5  # every row keeps some mass
        if k % 5 == 0:
            p[rng.integers(nx)] = 0.0
        if k % 7 == 0:
            w[:, rng.integers(ny)] = 0.0
        p /= p.sum()
        w /= w.sum(axis=1, keepdims=True)
        mu0 = p[:, None] * w
        row, col = mu0.sum(axis=1), mu0.sum(axis=0)
        base = mu0 if k % 6 == 4 else np.outer(row, col)
        rows, cols = row > 0.0, col > 0.0
        alive = np.ix_(rows, cols)
        if k % 6 == 0:
            d = np.log(np.where(w > 0.0, w, 1.0))
            threshold = float(np.sum(mu0 * d))
        else:
            d = np.log(rng.dirichlet(np.ones(ny), size=nx))
            low = float(np.sum(base * d))
            top = _polytope_max(base[alive] > 0.0, row[rows], col[cols], d[alive])
            greedy = greedy_value(row[rows], col[cols], d[alive])
            threshold = {
                1: low - 0.1,
                2: low + rng.uniform(0.05, 0.9) * (top - low),
                3: top + 0.01,
                4: low + rng.uniform(0.05, 0.9) * (top - low),
                5: greedy + 0.5 * (top - greedy) if top - greedy > 0.05 else low + 0.5 * (greedy - low),
            }[k % 6]
        problems.append((Joint(base), Distribution(row), Distribution(col), d, threshold))
    return problems


class TestGreedyCoupling:
    """The matrix-maximum coupling settles reachable thresholds without the LP, and changes no result."""

    def test_is_a_coupling_below_the_lp_maximum(self):
        rng = np.random.default_rng(29)
        for k in range(500):
            nx, ny = (int(n) for n in rng.integers(2, 7, size=2))
            if k % 3 == 0:
                # marginals in tenths: equal partial sums and dead letters
                r = rng.multinomial(10, np.ones(nx) / nx) / 10
                c = rng.multinomial(10, np.ones(ny) / ny) / 10
            else:
                r, c = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
            d = np.log(rng.dirichlet(np.ones(ny), size=nx))
            mu = _greedy_coupling(r, c, d)
            assert mu.min() >= 0.0
            np.testing.assert_allclose(mu.sum(axis=1), r, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(mu.sum(axis=0), c, rtol=0.0, atol=1e-14)
            support = np.ones((nx, ny), dtype=bool)
            value = float(np.sum(mu * d))
            assert value <= _polytope_max(support, r, c, d) + 1e-12
            assert value <= highs_polytope_max(support, r, c, d) + 1e-9

    @pytest.fixture(scope="class")
    def solved(self):
        """The problems, their results and the arguments of every ``_polytope_max`` call made."""
        problems = log_metric_problems(np.random.default_rng(30), 300)
        # A base whose support holds no joint with the uniform marginals.
        uniform = Distribution.uniform(2)
        problems.insert(11, (Joint(np.array([[0.5, 0.0], [0.5, 0.0]])), uniform, uniform, np.eye(2), 0.6))
        lp_calls = []

        def counted(*args):
            lp_calls.append(args)
            return _polytope_max(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ccdec.projection, "_polytope_max", counted)
            results = ccdec.projection.kl_projections(problems)
        return problems, results, lp_calls

    def test_results_match_the_lp_path(self, solved, monkeypatch):
        problems, greedy, _ = solved
        lp_calls = []

        def counted(*args):
            lp_calls.append(args)
            return _polytope_max(*args)

        # The product coupling scores below every active threshold of a product base.
        monkeypatch.setattr(ccdec.projection, "_greedy_coupling", lambda r, c, d: np.outer(r, c))
        monkeypatch.setattr(ccdec.projection, "_polytope_max", counted)
        forced = ccdec.projection.kl_projections(problems)
        assert [result_bits(r) for r in greedy] == [result_bits(r) for r in forced]
        active = sum(float(np.sum(base.matrix * d)) < t for base, _, _, d, t in problems)
        assert len(lp_calls) == active
        assert sum(r.feasible and r.multiplier == 0.0 for r in greedy) > 0  # inactive
        assert sum(not r.feasible and r.constraint_gap == -math.inf for r in greedy) == 1  # no coupling
        assert sum(not r.feasible and r.fit_iterations == 0 for r in greedy) > 1  # LP-unreachable
        assert sum(r.multiplier == 1.0 and r.bisection_steps == 0 for r in greedy) > 0  # matched
        assert sum(r.bisection_steps > 0 for r in greedy) > 0
        assert any(row.size > np.count_nonzero(row.probs) for _, row, _, _, _ in problems)
        assert any(col.size > np.count_nonzero(col.probs) for _, _, col, _, _ in problems)
        assert any(not np.all(base.matrix > 0.0) for base, _, _, _, _ in problems)

    def test_lp_skipped_where_the_coupling_reaches(self, solved):
        problems, _, lp_calls = solved
        reached = set()
        for base, row, col, d, threshold in problems:
            rows, cols = row.probs > 0.0, col.probs > 0.0
            alive = np.ix_(rows, cols)
            full = np.all(base.matrix[alive] > 0.0)
            if full and greedy_value(row.probs[rows], col.probs[cols], d[alive]) >= threshold:
                reached.add(d[alive].tobytes())
        assert len(reached) > 100 and lp_calls
        assert reached.isdisjoint(d.tobytes() for _, _, _, d in lp_calls)

    def test_stall_raises_the_same_error(self, monkeypatch):
        # The first fit of this near-boundary problem stops after 13 iterations.
        monkeypatch.setattr(ccdec.projection, "MAX_FIT_ITERS", 1)
        rng = np.random.default_rng(31)
        row, col = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
        d = np.log(rng.dirichlet(np.ones(4), size=3))
        threshold = greedy_value(row, col, d) - 1e-3
        problem = (Joint(np.outer(row, col)), Distribution(row), Distribution(col), d, threshold)
        with pytest.raises(ccdec.projection.SolverError) as greedy:
            ccdec.projection.kl_projections([problem])
        monkeypatch.setattr(ccdec.projection, "_greedy_coupling", lambda r, c, d: np.outer(r, c))
        with pytest.raises(ccdec.projection.SolverError) as forced:
            ccdec.projection.kl_projections([problem])
        assert str(greedy.value) == str(forced.value)
        assert str(greedy.value).startswith("marginal fitting stalled")
