"""Best responses, payoffs, and the knife-edge diagnostics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratclass import (
    KNIFE_EDGE_ATOL,
    Classifier,
    CostFunction,
    FeatureSpace,
    KnifeEdgeWarning,
    Population,
    best_response,
    efficiency,
    strategy_cost,
    utility,
)
from stratclass.sampling import (
    random_classifier,
    random_population,
    random_simple_cost,
    random_space,
)


class TestBestResponse:
    def test_twopoint_knife_edge_stays(self, twopoint):
        pop, cost, clf = twopoint
        # The bottom point's gain (0.5) exactly ties its cost: stay, and say so.
        with pytest.warns(KnifeEdgeWarning):
            br = best_response(clf, cost)
        assert br.target.tolist() == [0, 1]
        assert not br.moved.any()

    def test_threepoint_targets(self, threepoint):
        pop, cost, clf = threepoint
        br = best_response(clf, cost)
        # Bottom: the only improving move (to the top) ties its cost; stays.
        # Middle: moving up nets 1 - 0.9 > 0, strictly better than the free
        # move down to acceptance 0.1, so it pays for the top slot.
        assert br.target.tolist() == [0, 2, 2]
        assert br.moved.tolist() == [False, True, False]

    def test_free_move_to_higher_acceptance(self):
        space = FeatureSpace([0.0, 1.0])
        cost = CostFunction(space, np.zeros((2, 2)))
        clf = Classifier(space, [0.2, 0.9])
        br = best_response(clf, cost)
        assert br.target.tolist() == [1, 1]

    def test_downward_moves_happen_when_profitable(self):
        space = FeatureSpace([0.0, 1.0])
        cost = CostFunction(space, [[0.0, 2.0], [0.0, 0.0]])
        clf = Classifier(space, [1.0, 0.0])
        br = best_response(clf, cost)
        # The top point walks down for free to the accepted bottom point.
        assert br.target.tolist() == [0, 0]
        assert br.moved.tolist() == [False, True]

    def test_ties_break_to_smallest_index(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        cost = CostFunction(space, np.zeros((3, 3)))
        clf = Classifier(space, [0.0, 1.0, 1.0])
        br = best_response(clf, cost)
        # The bottom point can reach acceptance 1 at two targets: take the
        # lower one.  The already-accepted points have no strict improvement.
        assert br.target.tolist() == [1, 1, 2]

    def test_equal_acceptance_never_moves(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        cost = CostFunction(space, np.zeros((3, 3)))
        clf = Classifier.constant(space, 1.0)
        br = best_response(clf, cost)
        assert not br.moved.any()

    def test_grid_mismatch_raises(self):
        clf = Classifier(FeatureSpace([0.0, 1.0]), [0.0, 1.0])
        cost = CostFunction(FeatureSpace([0.0, 2.0]), [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="different grids"):
            best_response(clf, cost)


class TestKnifeEdgeBand:
    def test_gain_inside_band_stays_and_warns(self):
        space = FeatureSpace([0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.4], [0.0, 0.0]])
        clf = Classifier(space, [0.0, 0.4 + 0.5 * KNIFE_EDGE_ATOL])
        with pytest.warns(KnifeEdgeWarning):
            br = best_response(clf, cost)
        assert not br.moved.any()

    def test_gain_beyond_band_moves_silently(self):
        space = FeatureSpace([0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.4], [0.0, 0.0]])
        clf = Classifier(space, [0.0, 0.4 + 3.0 * KNIFE_EDGE_ATOL])
        with warnings.catch_warnings():
            warnings.simplefilter("error", KnifeEdgeWarning)
            br = best_response(clf, cost)
        assert br.moved.tolist() == [True, False]

    def test_exact_tie_stays(self, twopoint):
        pop, cost, clf = twopoint
        with pytest.warns(KnifeEdgeWarning):
            assert not best_response(clf, cost).moved.any()


class TestPayoffs:
    def test_threepoint_values(self, threepoint):
        pop, cost, clf = threepoint
        assert abs(utility(clf, pop, cost) - 29.0 / 30.0) <= 1e-12
        assert abs(strategy_cost(clf, pop, cost) - 0.3) <= 1e-12
        assert abs(efficiency(clf, pop, cost) - 2.0 / 3.0) <= 1e-12

    def test_twopoint_values(self, twopoint):
        pop, cost, clf = twopoint
        assert utility(clf, pop, cost) == 0.75
        assert strategy_cost(clf, pop, cost) == 0.0
        assert efficiency(clf, pop, cost) == 0.75

    def test_efficiency_is_utility_minus_cost(self, threepoint):
        pop, cost, clf = threepoint
        assert efficiency(clf, pop, cost) == utility(clf, pop, cost) - strategy_cost(clf, pop, cost)

    def test_accept_everyone_baseline(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        pop = Population(space, [0.2, 0.3, 0.5], [0.1, 0.5, 0.9])
        cost = CostFunction(space, np.triu(np.full((3, 3), 0.7), k=1))
        clf = Classifier.constant(space, 1.0)
        # Everyone accepted, nobody moves: accuracy is the qualified mass.
        assert utility(clf, pop, cost) == pytest.approx(float(pop.pi @ pop.h), abs=1e-15)
        assert strategy_cost(clf, pop, cost) == 0.0


class TestResponseProperties:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_moves_are_strict_improvements(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnifeEdgeWarning)
            br = best_response(f, cost)
        p = f.probs
        idx = np.arange(n)
        # Chosen targets never lower acceptance, and every actual move
        # clears its cost by more than the knife-edge band.
        assert np.all(p[br.target] >= p)
        moved = br.moved
        gains = p[br.target[moved]] - p[idx[moved]]
        paid = cost.costs[idx[moved], br.target[moved]]
        assert np.all(gains > paid + KNIFE_EDGE_ATOL)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_target_beats_every_alternative(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnifeEdgeWarning)
            br = best_response(f, cost)
        p = f.probs
        for i in range(n):
            chosen = p[br.target[i]]
            available = p[p - p[i] > cost.costs[i] + KNIFE_EDGE_ATOL]
            assert all(chosen >= q for q in available)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_utility_decomposes(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnifeEdgeWarning)
            u = utility(f, pop, cost)
            k = strategy_cost(f, pop, cost)
            e = efficiency(f, pop, cost)
            br = best_response(f, cost)
        accepted = f.probs[br.target]
        expected_u = float(np.dot(pop.pi, accepted * (2 * pop.h - 1) + (1 - pop.h)))
        assert u == expected_u
        assert e == u - k
