import itertools
import math

import numpy as np
import pytest

from ccdec import Channel, CompoundSet, Distribution, compound_capacity, mutual_information
from ccdec.rates import _game_simplex
from conftest import bsc_capacity_nats, random_channel


def simplex_grid_oracle(channels, steps=120):
    """Dense grid search of max_P min_k I(P, W_k) for 2- and 3-letter inputs."""
    nx = channels[0].nx
    best = -math.inf
    if nx == 2:
        for a in np.linspace(0.0, 1.0, steps + 1):
            p = Distribution(np.array([a, 1.0 - a]))
            best = max(best, min(mutual_information(p, w) for w in channels))
    elif nx == 3:
        for a in np.linspace(0.0, 1.0, steps + 1):
            for b in np.linspace(0.0, 1.0 - a, max(2, int((steps + 1) * (1.0 - a)) + 1)):
                arr = np.array([a, b, 1.0 - a - b])
                if arr.min() < -1e-12:
                    continue
                p = Distribution(np.maximum(arr, 0) / np.maximum(arr, 0).sum())
                best = max(best, min(mutual_information(p, w) for w in channels))
    else:
        raise NotImplementedError
    return best


# A noiseless binary channel and a BSC(0.1), each with a third input letter
# that outputs a fair coin.
FACE_NOISELESS = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
FACE_BSC = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
# Asymmetric channel whose certificate gap stays above 1e-15.
ASYMMETRIC = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.3, 0.45]])


class TestClosedForms:
    def test_singleton_bsc(self):
        cap = compound_capacity(CompoundSet((Channel.bsc(0.1),)))
        assert cap.value == pytest.approx(bsc_capacity_nats(0.1), abs=1e-9)
        assert np.allclose(cap.input_dist.probs, [0.5, 0.5], atol=1e-9)
        assert cap.converged

    def test_mirrored_pair(self):
        cap = compound_capacity(CompoundSet((Channel.bsc(0.25), Channel.bsc(0.75))))
        assert cap.value == pytest.approx(bsc_capacity_nats(0.25), abs=1e-9)
        assert np.allclose(cap.input_dist.probs, [0.5, 0.5], atol=1e-9)

    def test_pure_noise_member_kills_capacity(self):
        cap = compound_capacity(CompoundSet((Channel.bsc(0.1), Channel.bsc(0.5))))
        assert cap.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "extra, expected",
        [((), math.log(2.0)), ((FACE_BSC,), bsc_capacity_nats(0.1))],
        ids=["noiseless", "with-bsc"],
    )
    def test_optimum_on_simplex_face(self, extra, expected):
        # the third input letter is useless, so the optimum puts no mass on it
        channels = tuple(Channel(w) for w in (FACE_NOISELESS,) + extra)
        cap = compound_capacity(CompoundSet(channels), tol=1e-10)
        assert cap.converged
        assert cap.value == pytest.approx(expected, abs=1e-9)
        assert cap.input_dist.probs[2] <= 1e-9


class TestAgainstGridOracle:
    def test_random_pairs_binary(self, rng):
        for _ in range(5):
            channels = tuple(random_channel(rng, 2, 3) for _ in range(2))
            cap = compound_capacity(CompoundSet(channels))
            oracle = simplex_grid_oracle(channels, steps=400)
            # grid undershoots by O(step^2); solver must dominate it and stay certified
            assert cap.value >= oracle - 1e-6
            assert cap.value <= oracle + 5e-5
            assert cap.certificate_gap <= 1e-6
            # the grid never overshoots the maximum, so the certified bound covers it
            assert cap.value + cap.certificate_gap >= oracle

    def test_random_triple_ternary(self, rng):
        channels = tuple(random_channel(rng, 3, 3) for _ in range(3))
        cap = compound_capacity(CompoundSet(channels))
        oracle = simplex_grid_oracle(channels, steps=150)
        assert cap.value >= oracle - 1e-6
        assert cap.certificate_gap <= 1e-6
        assert cap.value + cap.certificate_gap >= oracle


class TestDiagnostics:
    def test_value_is_exact_min_information_at_returned_input(self, rng):
        channels = tuple(random_channel(rng, 3, 2) for _ in range(3))
        cap = compound_capacity(CompoundSet(channels))
        f_at_p = min(mutual_information(cap.input_dist, w) for w in channels)
        assert cap.value == pytest.approx(f_at_p, abs=1e-14)

    def test_certificate_never_negative(self, rng):
        for _ in range(5):
            channels = tuple(random_channel(rng, 2, 2) for _ in range(3))
            cap = compound_capacity(CompoundSet(channels))
            assert cap.certificate_gap >= -1e-12

    @pytest.mark.parametrize("seed", [19, 31, 46, 97])
    def test_tight_tolerance_converges(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny, count = (int(rng.integers(2, high)) for high in (5, 5, 6))
        channels = tuple(random_channel(rng, nx, ny) for _ in range(count))
        cap = compound_capacity(CompoundSet(channels), tol=1e-9)
        assert cap.converged
        assert cap.certificate_gap <= 1e-9
        f_at_p = min(mutual_information(cap.input_dist, w) for w in channels)
        assert cap.value == pytest.approx(f_at_p, abs=1e-14)

    def test_unreachable_tolerance_stops_on_repeated_query(self):
        # the LP soon returns a query it has seen; the 100 000-cut budget is never reached
        cap = compound_capacity(CompoundSet((Channel(ASYMMETRIC),)), tol=1e-15)
        assert not cap.converged
        assert cap.iterations < 1000

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan])
    def test_non_positive_tolerance_rejected(self, tol):
        # the cutting planes need a positive mixing weight to stay valid
        with pytest.raises(ValueError):
            compound_capacity(CompoundSet((Channel.bsc(0.2),)), tol=tol)

    def test_tolerance_forwarded(self):
        cap = compound_capacity(CompoundSet((Channel.bsc(0.2),)), tol=1e-4)
        assert cap.converged
        assert cap.certificate_gap <= 1e-4


def highs_game_value(cuts):
    """``max_P min_j (cuts @ P)_j`` by scipy's HiGHS, the reference for the master simplex."""
    from scipy.optimize import linprog

    m, nx = cuts.shape
    res = linprog(
        np.append(np.zeros(nx), -1.0),
        A_ub=np.hstack([-cuts, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.append(np.ones(nx), 0.0)[None, :],
        b_eq=np.ones(1),
        bounds=[(0.0, None)] * nx + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return -res.fun


GAME_KINDS = ("plain", "rounded", "zero-cut", "duplicated", "one-input")


def random_game(rng, kind):
    nx = 1 if kind == "one-input" else int(rng.integers(2, 6))
    cuts = rng.exponential(size=(int(rng.integers(1, 20)), nx))
    if kind == "rounded":
        # coarse entries make ties and degenerate vertices common
        cuts = np.round(cuts, 1)
    elif kind == "zero-cut":
        # the plane of a pure-noise member
        cuts[rng.integers(len(cuts))] = 0.0
    elif kind == "duplicated":
        cuts = np.vstack([cuts, cuts[rng.integers(len(cuts), size=len(cuts))]])
    return cuts


class TestMasterGame:
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_matches_highs_with_a_tight_certificate(self, kind):
        rng = np.random.default_rng(GAME_KINDS.index(kind))
        for _ in range(40):
            cuts = random_game(rng, kind)
            alpha, p = _game_simplex(cuts, list(range(cuts.shape[1])))
            assert alpha.min() >= 0.0 and alpha.sum() == pytest.approx(1.0, abs=1e-14)
            assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-14)
            value = (cuts @ p).min()
            assert (alpha @ cuts).max() - value <= 1e-12
            assert value == pytest.approx(highs_game_value(cuts), abs=1e-12)

    def test_warm_start_gives_the_cold_value(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            cuts = random_game(rng, "rounded")
            nx = cuts.shape[1]
            warm = list(range(nx))
            for stop in range(1, len(cuts)):
                _game_simplex(cuts[:stop], warm)
            _, p_warm = _game_simplex(cuts, warm)
            _, p_cold = _game_simplex(cuts, list(range(nx)))
            assert (cuts @ p_warm).min() == pytest.approx((cuts @ p_cold).min(), abs=1e-12)

    def test_one_input_letter_has_zero_capacity(self, rng):
        for count in (1, 2, 4):
            channels = tuple(Channel(rng.dirichlet(np.ones(3))[None, :]) for _ in range(count))
            cap = compound_capacity(CompoundSet(channels))
            assert cap.value == 0.0
            assert cap.converged
