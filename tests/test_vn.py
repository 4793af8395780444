import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from ccdec import (
    Channel,
    CompoundSet,
    Direction,
    DirectionSet,
    Distribution,
    Metric,
    blind_polytope_rate,
    build_metrics,
    center,
    embed,
    generalized_rate,
    inner,
    is_one_sided,
    mismatched_rate,
    mutual_information,
    norm_sq,
    vn_compound_capacity,
    vn_glrt_rate,
    vn_gmap_rate,
    vn_is_one_sided,
    vn_mismatched_rate,
)
from ccdec import projection
from ccdec.rates import SetAnalysis
from ccdec.scenario import load_scenario
from ccdec.vn import (
    _gram,
    divergence_gap_table,
    expected_log_gap_table,
    mismatched_rate_gap_table,
    vn_limit_gap,
)

NOISE = Distribution(np.array([0.5, 0.5]))
UNIFORM = Distribution.uniform(2)

# The mismatch demonstration triple; every derived number below is
# weighted-sum arithmetic done by hand:
#   avg0 = (-4.5, 4.5); til0 = [[2.5, -2.5], [-2.5, 2.5]]
#   til1 = [[1, -1], [-1, 1]]; til2 = L2
#   |til0|^2 = 26.5 - 20.25 = 6.25;  |til1|^2 = |til2|^2 = 1
#   <til0, til1> = 2.5;  <til0, til2> = -2.5
#   |til0 - til1|^2 = 2.25;  |til0 - til2|^2 = 12.25
#   |L0 - L1|^2 = |L0 - L2|^2 = 32.5 (case tie for the likelihood family)
L0 = Direction(np.array([[-2.0, 2.0], [-7.0, 7.0]]), NOISE)
L1 = Direction(np.array([[2.0, -2.0], [0.0, 0.0]]), NOISE)
L2 = Direction(np.array([[-1.0, 1.0], [1.0, -1.0]]), NOISE)


def random_direction(rng, nx, noise):
    v = rng.normal(size=(nx, noise.size))
    v -= (v @ noise.probs)[:, None]
    return Direction(v, noise)


class TestCenter:
    def test_counterexample_norms(self):
        c0, c1, c2 = (center(L, UNIFORM) for L in (L0, L1, L2))
        assert c0.centered_norm_sq == pytest.approx(6.25, abs=1e-12)
        assert c1.centered_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert c2.centered_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(c0.output_avg, [-4.5, 4.5])

    def test_counterexample_inner_products(self):
        c0, c1, c2 = (center(L, UNIFORM) for L in (L0, L1, L2))
        assert c0.inner(c1) == pytest.approx(2.5, abs=1e-12)
        assert c0.inner(c2) == pytest.approx(-2.5, abs=1e-12)

    def test_pure_output_dependence_centers_away(self):
        g = np.array([1.0, -1.0])  # noise-orthogonal column profile
        d = Direction(np.tile(g, (2, 1)), NOISE)
        c = center(d, UNIFORM)
        assert np.abs(c.centered).max() <= 1e-12

    def test_projection_identity(self, rng):
        for _ in range(100):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            noise = Distribution(rng.dirichlet(np.ones(ny)))
            p = Distribution(rng.dirichlet(np.ones(nx)))
            c = center(random_direction(rng, nx, noise), p)
            assert c.centered_norm_sq == pytest.approx(
                c.raw_norm_sq - c.avg_norm_sq, abs=1e-12
            )
            assert c.centered_norm_sq == pytest.approx(
                norm_sq(c.centered, p, noise), abs=1e-12
            )

    @given(
        raw=hyp_st.lists(
            hyp_st.lists(hyp_st.floats(-5, 5), min_size=3, max_size=3),
            min_size=2,
            max_size=2,
        ),
        weights=hyp_st.lists(hyp_st.floats(0.05, 1.0), min_size=5, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_projection_identity_hypothesis(self, raw, weights):
        w = np.array(weights)
        noise = Distribution(np.array(w[:3]) / np.sum(w[:3]))
        p = Distribution(np.array(w[3:]) / np.sum(w[3:]))
        v = np.array(raw)
        v -= (v @ noise.probs)[:, None]
        c = center(Direction(v, noise), p)
        assert abs(c.centered_norm_sq - (c.raw_norm_sq - c.avg_norm_sq)) <= 1e-12
        # input-weighted column averages of the centered part vanish
        assert np.abs(p.probs @ c.centered).max() <= 1e-12


class TestInner:
    def test_inner_with_self_is_norm(self, rng):
        d = random_direction(rng, 3, NOISE)
        assert inner(d.values, d.values, Distribution.uniform(3), NOISE) == pytest.approx(
            norm_sq(d.values, Distribution.uniform(3), NOISE)
        )

    def test_bilinear_symmetry(self, rng):
        u = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        assert inner(u, v, UNIFORM, NOISE) == pytest.approx(inner(v, u, UNIFORM, NOISE))


class TestVnMismatchedRate:
    def test_matched_is_centered_norm(self):
        assert vn_mismatched_rate(L0, L0, UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_negative_inner_product_gives_zero(self):
        assert vn_mismatched_rate(L0, L2, UNIFORM) == 0.0

    def test_projection_value(self):
        assert vn_mismatched_rate(L0, L1, UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_zero_metric_direction(self):
        z = Direction(np.zeros((2, 2)), NOISE)
        assert vn_mismatched_rate(L0, z, UNIFORM) == 0.0

    def test_is_the_one_metric_generalized_rate(self):
        # the twin of mismatched_rate = generalized_rate(..., [d]): the closed
        # form ip^2 / |Ltil1|^2, and one-metric GLRT and GMAP, exactly
        rng = np.random.default_rng(43)
        for _ in range(2000):
            nx, ny = (int(n) for n in rng.integers(2, 5, size=2))
            noise = Distribution(rng.dirichlet(np.ones(ny)))
            p = Distribution(rng.dirichlet(np.ones(nx)))
            a, b = random_direction(rng, nx, noise), random_direction(rng, nx, noise)
            *_, gt = _gram((a, b), p)
            closed = max(gt[0, 1], 0.0) ** 2 / gt[1, 1]
            assert vn_mismatched_rate(a, b, p) == vn_gmap_rate(a, [b], p) == vn_glrt_rate(a, [b], p) == closed

    def test_dominated_by_matched_norm(self, rng):
        for _ in range(200):
            a = random_direction(rng, 2, NOISE)
            b = random_direction(rng, 2, NOISE)
            rate = vn_mismatched_rate(a, b, UNIFORM)
            assert rate <= center(a, UNIFORM).centered_norm_sq + 1e-9


class TestVnCompoundCapacity:
    def test_singleton(self):
        res = vn_compound_capacity(DirectionSet((L0,)), UNIFORM)
        assert res.value == pytest.approx(6.25)
        assert res.worst_index == 0

    def test_pair_of_unit_directions_ties(self):
        res = vn_compound_capacity(DirectionSet((L1, L2)), UNIFORM)
        assert res.value == pytest.approx(1.0)
        assert res.tie

    def test_triple(self):
        res = vn_compound_capacity(DirectionSet((L0, L1)), UNIFORM)
        assert res.value == pytest.approx(1.0)
        assert res.worst_index == 1


class TestDirectionSetRestrict:
    def test_keeps_chosen_directions_in_order_and_drops_components(self):
        sub = DirectionSet((L0, L1, L2), ((0, 1), (2,))).restrict((2, 0))
        assert sub.directions == (L2, L0)
        assert sub.components == ((0, 1),)


class TestVnOneSided:
    def test_singleton_true(self):
        assert vn_is_one_sided(DirectionSet((L0,)), UNIFORM)

    def test_block_with_l1_true(self):
        verdict = vn_is_one_sided(DirectionSet((L0, L1)), UNIFORM)
        assert verdict.one_sided
        # margin: 6.25 - 1 - 2.25 = 3
        assert verdict.margins[0] == pytest.approx(3.0, abs=1e-12)

    def test_pair_with_l2_false(self):
        verdict = vn_is_one_sided(DirectionSet((L0, L2)), UNIFORM)
        assert not verdict.one_sided
        assert verdict.witness == 0

    def test_margins_past_the_witness_are_nan(self):
        # L2 is the worst direction; L0 violates first, so L2's margin is never computed
        verdict = vn_is_one_sided(DirectionSet((L0, L2)), UNIFORM)
        assert verdict.witness == 0
        assert verdict.margins[0] < 0.0
        assert np.isnan(verdict.margins[1])

    def test_tie_declines(self):
        verdict = vn_is_one_sided(DirectionSet((L1, L2)), UNIFORM)
        assert not verdict.one_sided
        assert "not unique" in verdict.reason


    def test_margin_is_the_expanded_divergence_split(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(200):
            nx, ny = (int(n) for n in rng.integers(2, 5, size=2))
            noise = Distribution(rng.dirichlet(np.ones(ny)))
            p = Distribution(rng.dirichlet(np.ones(nx)))
            dset = DirectionSet(tuple(random_direction(rng, nx, noise) for _ in range(rng.integers(1, 6))))
            verdict = vn_is_one_sided(dset, p)
            if verdict.worst_index is None:
                continue
            cs = center(dset.directions[verdict.worst_index], p)
            for k in np.flatnonzero(np.isfinite(verdict.margins)):
                c0 = center(dset.directions[k], p)
                split = c0.centered_norm_sq - cs.centered_norm_sq - norm_sq(c0.centered - cs.centered, p, noise)
                assert verdict.margins[k] == pytest.approx(split, abs=1e-12)
                checked += 1
        assert checked > 200


class TestOneSidedLifting:
    """The local margin is the limit of the global divergence-split margin."""

    def test_scaled_global_margins_approach_local_ones(self):
        rng = np.random.default_rng(31)
        clear = 0
        for _ in range(8):
            noise = Distribution(rng.dirichlet(np.ones(3) * 4.0))
            p = Distribution(rng.dirichlet(np.ones(2) * 4.0))
            dset = DirectionSet(tuple(random_direction(rng, 2, noise) for _ in range(3)))
            local = vn_is_one_sided(dset, p)
            # the worst member's own margin is 0 in both geometries
            others = [k for k in np.flatnonzero(np.isfinite(local.margins)) if k != local.worst_index]
            is_clear = all(abs(local.margins[k]) > 0.05 for k in others)
            clear += is_clear
            errors = []
            for eps in (1e-2, 1e-3):
                glob = is_one_sided(CompoundSet(tuple(embed(d, eps) for d in dset.directions)), p)
                assert glob.worst_index == local.worst_index is not None
                both = np.isfinite(glob.margins) & np.isfinite(local.margins)
                assert both.any()
                errors.append(np.abs(2.0 / eps**2 * glob.margins[both] - local.margins[both]).max())
                if is_clear:
                    assert (glob.one_sided, glob.witness) == (local.one_sided, local.witness)
            assert errors[0] < 1e-2
            assert errors[1] <= errors[0] / 5.0
        assert clear > 0


def _split_margin_tables(dset, p, eps):
    """The global split margins ``[k, s]`` on the embedded set, scaled, and their local twins ``2 (G~[k, s] - G~[s, s])``."""
    analysis = SetAnalysis(CompoundSet(tuple(embed(d, eps) for d in dset.directions)), p)
    *_, gt = _gram(dset.directions, p)
    return 2.0 / eps**2 * analysis.margins, 2.0 * (gt - gt.diagonal()[None, :])


def _blind_rates(dset, p, eps):
    """``min_k max_j`` of the one-metric global rates of two metric directions, scaled, and ``blind_polytope_rate``.

    The metric directions are drawn from a generator seeded by the set, so
    every eps sees the same ones.  They are redrawn until the blind rate is at
    least a tenth of the capacity: errors are measured relative to the local
    value, so it must stay clear of 0.
    """
    rng = np.random.default_rng(np.frombuffer(dset.directions[0].values.tobytes(), dtype=np.uint32))
    while True:
        metric_dirs = [random_direction(rng, p.size, dset.noise) for _ in range(2)]
        local = blind_polytope_rate(metric_dirs, dset, p)
        if local.ratio >= 0.1:
            break
    metrics = [Metric(np.log(embed(m, eps).matrix)) for m in metric_dirs]
    rate = min(max(mismatched_rate(p, embed(d, eps), m) for m in metrics) for d in dset.directions)
    return 2.0 / eps**2 * rate, local.value


# Closed forms of the very-noisy geometry with their global twins.  A row maps
# (direction set, input, eps) to (2/eps^2 times the global value, the local
# value), each a number or a table; a table's error is its largest entry error
# relative to the local table's Frobenius norm.
LIFTING_ROWS = {
    "capacity": lambda dset, p, eps: (
        2.0 / eps**2 * min(mutual_information(p, embed(d, eps)) for d in dset.directions),
        vn_compound_capacity(dset, p).value,
    ),
    "split margins": _split_margin_tables,
    "blind": _blind_rates,
}


class TestClosedFormLifting:
    """Each local closed form is the limit of its scaled global twin."""

    @pytest.mark.parametrize("row", sorted(LIFTING_ROWS))
    def test_scaled_global_values_approach_local_ones(self, monkeypatch, row):
        if row == "blind":
            # At the default 1e-10 the solver's error, scaled by 2/eps^2, hides
            # the lifting error by eps = 1e-3.
            monkeypatch.setattr(projection, "MARGINAL_TOL", 1e-14)
            monkeypatch.setattr(projection, "CONSTRAINT_TOL", 1e-14)
        rng = np.random.default_rng(7)
        for _ in range(12):
            noise = Distribution(rng.dirichlet(np.ones(3) * 4.0))
            p = Distribution(rng.dirichlet(np.ones(2) * 4.0))
            dset = DirectionSet(tuple(random_direction(rng, 2, noise) for _ in range(3)))
            errors = []
            for eps in (1e-2, 1e-3):
                scaled, local = LIFTING_ROWS[row](dset, p, eps)
                errors.append(np.abs(scaled - local).max() / np.linalg.norm(local))
            assert errors[1] <= errors[0] / 5.0
            assert errors[1] < 1e-2


class TestGlrtRate:
    def test_matched_single_metric(self):
        assert vn_glrt_rate(L0, [L0], UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_two_channel_formula_collapses_when_equal(self):
        assert vn_glrt_rate(L0, [L0, L0], UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_counterexample_rate_zero(self):
        # raw distances tie at 32.5; the adversarial case evaluation hits
        # the branch whose threshold clips to zero
        assert vn_glrt_rate(L0, [L1, L2], UNIFORM) == 0.0

    def test_other_members_reach_capacity(self):
        assert vn_glrt_rate(L1, [L1, L2], UNIFORM) == pytest.approx(1.0, abs=1e-12)
        assert vn_glrt_rate(L2, [L1, L2], UNIFORM) == pytest.approx(1.0, abs=1e-12)


class TestGmapRate:
    def test_matched_single_metric(self):
        assert vn_gmap_rate(L0, [L0], UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_counterexample_rate(self):
        # case 1 active (2.25 <= 12.25): both branch rates equal 6.25
        assert vn_gmap_rate(L0, [L1, L2], UNIFORM) == pytest.approx(6.25, abs=1e-12)

    def test_equals_glrt_when_output_averages_match(self, rng):
        # directions with identical output averages: metric families differ by
        # a common output function only
        for _ in range(50):
            base_avg = rng.normal(size=3)
            noise = Distribution(rng.dirichlet(np.ones(3)))
            base_avg -= float(noise.probs @ base_avg)
            p = Distribution(rng.dirichlet(np.ones(2)))
            mk = []
            for _ in range(2):
                v = rng.normal(size=(2, 3))
                v -= (v @ noise.probs)[:, None]
                til = v - (p.probs @ v)[None, :]
                mk.append(Direction(til + base_avg[None, :], noise))
            true_dir = random_direction(rng, 2, noise)
            g1 = vn_glrt_rate(true_dir, mk, p)
            g2 = vn_gmap_rate(true_dir, mk, p)
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_one_sided_block_guarantee(self, rng):
        # whenever {true, worst} is one-sided and the worst is genuinely the
        # block minimum, the two-metric rate covers the pair capacity
        checked = 0
        while checked < 1000:
            l_true = random_direction(rng, 2, NOISE)
            l_w = random_direction(rng, 2, NOISE)
            l_other = random_direction(rng, 2, NOISE)
            pair = DirectionSet((l_true, l_w))
            res = vn_compound_capacity(pair, UNIFORM)
            if res.worst_index != 1 or res.tie:
                continue
            if not vn_is_one_sided(pair, UNIFORM):
                continue
            checked += 1
            rate = vn_gmap_rate(l_true, [l_w, l_other], UNIFORM)
            cap = min(
                center(l_w, UNIFORM).centered_norm_sq,
                center(l_other, UNIFORM).centered_norm_sq,
            )
            assert rate >= cap - 1e-9


class TestFlatDirection:
    """An input-independent direction centers to exactly zero, and so do the rates it limits."""

    NOISE = Distribution(np.array([0.3, 0.7]))
    P = Distribution(np.array([0.2, 0.8]))
    FLAT = Direction(np.array([[0.7, -0.3], [0.7, -0.3]]), NOISE)
    OTHER = Direction(np.array([[1.0, -3.0 / 7.0], [-1.0, 3.0 / 7.0]]), NOISE)

    def test_centered_norm_and_capacity_are_zero(self):
        assert center(self.FLAT, self.P).centered_norm_sq == 0.0
        cap = vn_compound_capacity(DirectionSet((self.FLAT, self.OTHER)), self.P)
        assert (cap.value, cap.worst_index) == (0.0, 0)
        assert cap.norms.min() >= 0.0

    @pytest.mark.parametrize("kind, local", [("ml", vn_glrt_rate), ("map", vn_gmap_rate)], ids=["glrt", "gmap"])
    def test_rates_are_zero_like_their_global_twin(self, kind, local):
        for true_dir in (self.FLAT, self.OTHER):
            assert local(true_dir, [self.FLAT], self.P) == 0.0
            for eps in (0.05, 0.01):
                metrics = build_metrics(kind, [embed(self.FLAT, eps)], self.P)
                assert generalized_rate(self.P, embed(true_dir, eps), metrics) == 0.0


class TestSharedNoise:
    @pytest.mark.parametrize(
        "rate",
        [
            lambda true_dir, metric_dir: vn_mismatched_rate(true_dir, metric_dir, UNIFORM),
            lambda true_dir, metric_dir: vn_glrt_rate(true_dir, [L1, metric_dir], UNIFORM),
            lambda true_dir, metric_dir: vn_gmap_rate(true_dir, [L1, metric_dir], UNIFORM),
        ],
        ids=["mismatched", "glrt", "gmap"],
    )
    def test_metric_noise_must_match_true_noise(self, rate):
        skewed = Direction(np.array([[3.0, -1.0], [-3.0, 1.0]]), Distribution(np.array([0.25, 0.75])))
        with pytest.raises(ValueError, match="share the noise distribution"):
            rate(L0, skewed)


class TestEmbed:
    def test_zero_eps_gives_pure_noise(self):
        w = embed(L0, 0.0)
        assert np.allclose(w.matrix, 0.5)

    def test_counterexample_rows(self):
        w = embed(L0, 0.05)
        assert np.allclose(w.matrix, [[0.45, 0.55], [0.325, 0.675]], atol=1e-15)

    def test_zero_direction(self):
        z = Direction(np.zeros((2, 2)), NOISE)
        assert np.allclose(embed(z, 0.3).matrix, 0.5)

    def test_inadmissible_eps_rejected(self):
        with pytest.raises(ValueError):
            embed(L0, 0.2)  # 1 + 0.2 * (-7) < 0


class TestLimitGaps:
    def test_divergence_gap_small_at_point_one(self):
        rows = divergence_gap_table(NOISE, np.array([1.0, -1.0]), [0.1])
        assert rows[0].limit == pytest.approx(1.0)
        assert rows[0].gap <= 0.01

    def test_divergence_monotone(self):
        rows = divergence_gap_table(NOISE, np.array([1.0, -1.0]), [0.1, 0.05, 0.025])
        gaps = [r.gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.75 * gaps[1]

    def test_expected_log_second_order(self):
        rows = expected_log_gap_table((L0, L1, L0, L0), UNIFORM, [0.1, 0.05, 0.025])
        # limit: 2[(<L0,L1> - |L1|^2/2) - (|L0|^2/2)] = 2[(-2 - 1) - 13.25]
        assert rows[0].limit == pytest.approx(-32.5, abs=1e-12)
        gaps = [r.gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_mismatched_rate_gap_shrinks(self):
        rows = mismatched_rate_gap_table(L0, L1, UNIFORM, [0.05, 0.025])
        assert rows[0].limit == pytest.approx(6.25)
        assert rows[1].gap < rows[0].gap

    def test_gap_ratio_loose_bound(self):
        for table in (
            divergence_gap_table(NOISE, np.array([1.0, -1.0]), [0.08, 0.04]),
            expected_log_gap_table((L0, L1, L0, L0), UNIFORM, [0.08, 0.04]),
        ):
            assert table[1].gap <= 0.75 * table[0].gap


class TestLimitGapSweep:
    """``vn_limit_gap`` is the three tables called on the sweep's directions, row for row."""

    @staticmethod
    def direct(dset, p, eps):
        l0, l1 = dset.directions[0], dset.directions[min(1, dset.size - 1)]
        return {
            "divergence": divergence_gap_table(dset.noise, l0.values[0], eps),
            "expected_log": expected_log_gap_table((l0, l1, l0, l0), p, eps),
            "mismatched_rate": mismatched_rate_gap_table(l0, l1, p, eps),
        }

    def test_builtin_counterexample(self):
        sc = load_scenario("builtin:counterexample")
        eps = (0.1, 0.05, 0.025, 0.0125)
        got = vn_limit_gap(sc.vn.directions, sc.input_dist, eps)
        assert list(got) == ["divergence", "expected_log", "mismatched_rate"]
        assert got == self.direct(sc.vn.directions, sc.input_dist, eps)

    def test_one_direction_set_scores_with_its_own_metric(self, rng):
        noise = Distribution(np.array([0.2, 0.3, 0.5]))
        p = Distribution(np.array([0.3, 0.7]))
        dset = DirectionSet((random_direction(rng, 2, noise),))
        eps = (0.02, 0.01)
        got = vn_limit_gap(dset, p, eps)
        assert got == self.direct(dset, p, eps)
        # L1 = L0: the matched rate's limit is the centered norm
        assert got["mismatched_rate"][0].limit == center(dset.directions[0], p).centered_norm_sq

    @pytest.mark.parametrize(
        "eps, message",
        [
            ([], "eps must list at least one value"),
            ([0.1, 0.1000001], "eps must be distinct in 6 significant digits, got 0.1 and 0.1000001"),
        ],
    )
    def test_unusable_eps_list_raises(self, eps, message):
        with pytest.raises(ValueError) as exc:
            vn_limit_gap(DirectionSet((L0, L1)), UNIFORM, eps)
        assert str(exc.value) == message


class TestBlindPolytope:
    def test_value_is_min_over_members_of_best_metric_rate(self, rng):
        noise = Distribution(np.array([0.2, 0.3, 0.5]))
        p = Distribution(np.array([0.3, 0.7]))
        dirs = [random_direction(rng, 2, noise) for _ in range(5)]
        metrics = [dirs[1], dirs[3], random_direction(rng, 2, noise)]
        want = min(max(vn_mismatched_rate(d, u, p) for u in metrics) for d in dirs)
        assert blind_polytope_rate(metrics, DirectionSet(tuple(dirs)), p).value == want

    def test_matched_direction_reaches_capacity(self):
        dset = DirectionSet((L0, L1))
        res = blind_polytope_rate([L1], dset, UNIFORM)
        assert res.ratio >= 1.0 - 1e-12

    def test_orthogonal_metric_gives_zero(self):
        dset = DirectionSet((L0,))
        # centered inner product of til0 with til2 is negative: positive part clips
        res = blind_polytope_rate([L2], dset, UNIFORM)
        assert res.value == 0.0

    def test_three_rotated_metrics_on_a_circle(self, rng):
        # 2-d subspace of centered ternary directions; worst boundary point
        # sits 60 degrees from the nearest metric: ratio cos^2(60deg) = 1/4
        noise = Distribution.uniform(3)
        p = Distribution.uniform(3)

        def from_coeffs(a, b):
            u = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=float)
            v = np.array([[1, 1, -2], [1, 1, -2], [-2, -2, 4]], dtype=float)
            raw = a * u + b * v
            raw -= (raw @ noise.probs)[:, None]
            return Direction(raw, noise)

        # orthonormalize the two basis coefficients numerically
        e1 = from_coeffs(1.0, 0.0)
        e2 = from_coeffs(0.0, 1.0)
        c1 = center(e1, p)
        c2 = center(e2, p)
        g = np.array(
            [[c1.inner(c1), c1.inner(c2)], [c2.inner(c1), c2.inner(c2)]]
        )
        chol = np.linalg.cholesky(g)
        inv = np.linalg.inv(chol.T)

        def on_circle(theta, radius=1.0):
            coeff = radius * (inv @ np.array([math.cos(theta), math.sin(theta)]))
            return from_coeffs(float(coeff[0]), float(coeff[1]))

        members = DirectionSet(tuple(on_circle(t) for t in np.linspace(0, 2 * math.pi, 720, endpoint=False)))
        metrics = [on_circle(t) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        res = blind_polytope_rate(metrics, members, p)

        # dense angular sweep oracle over 10^4 boundary points
        angles = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        best = math.inf
        for t in angles:
            proj = max(
                max(math.cos(t - tm), 0.0) ** 2 for tm in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
            )
            best = min(best, proj)
        assert res.ratio == pytest.approx(best, abs=1e-3)
        assert res.ratio == pytest.approx(0.25, abs=1e-3)
