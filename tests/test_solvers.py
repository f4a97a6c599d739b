"""Deterministic enumeration, the Lipschitz projection, the LP, the oracle."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    KnifeEdgeWarning,
    Population,
    best_response,
    efficiency,
    grid_oracle,
    is_lipschitz,
    project_lipschitz,
    solve_deterministic,
    solve_efficiency_lp,
    utility,
)
from stratclass import solvers
from stratclass.solvers import LP_MAX_POINTS, ORACLE_MAX_POINTS, ORACLE_MAX_RESOLUTION
from stratclass.sampling import (
    random_classifier,
    random_population,
    random_simple_cost,
    random_space,
)


def _quiet_best(fun, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KnifeEdgeWarning)
        return fun(*args, **kwargs)


class TestSolveDeterministic:
    def test_twopoint_optimum(self, twopoint):
        pop, cost, _ = twopoint
        report = solve_deterministic(pop, cost)
        assert abs(report.objective - 0.5) <= 1e-12
        assert report.method == "enumeration"
        assert report.classifier.is_deterministic

    def test_threepoint_optimum(self, threepoint):
        pop, cost, _ = threepoint
        report = solve_deterministic(pop, cost)
        assert abs(report.objective - 2.0 / 3.0) <= 1e-12

    def test_reported_threshold_reproduces_classifier(self, threepoint):
        pop, cost, _ = threepoint
        report = solve_deterministic(pop, cost)
        rebuilt = Classifier.threshold(pop.space, report.tau, strict=report.strict)
        assert np.array_equal(rebuilt.probs, report.classifier.probs)
        assert utility(report.classifier, pop, cost) == report.objective

    def test_ties_prefer_most_permissive_threshold(self):
        # Free moves everywhere: every accepting threshold collects full
        # accuracy, so the scan must return the lowest threshold.
        space = FeatureSpace([0.0, 1.0, 2.0])
        pop = Population(space, [0.2, 0.3, 0.5], [1.0, 1.0, 1.0])
        cost = CostFunction(space, np.zeros((3, 3)))
        report = solve_deterministic(pop, cost)
        assert report.tau == 0.0
        assert report.strict is False
        assert np.array_equal(report.classifier.probs, np.ones(3))

    def test_reject_all_can_win(self):
        # Nobody qualified: rejecting everyone is the unique optimum.
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 0.0])
        cost = CostFunction(space, [[0.0, 5.0], [0.0, 0.0]])
        report = solve_deterministic(pop, cost)
        assert report.objective == 1.0
        assert report.strict is True
        assert np.array_equal(report.classifier.probs, np.zeros(2))

    def test_grid_mismatch(self):
        pop = Population(FeatureSpace([0.0, 1.0]), [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(FeatureSpace([0.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="different grids"):
            solve_deterministic(pop, cost)


class TestProjectLipschitz:
    def test_twopoint_fixed_point(self, twopoint):
        pop, cost, clf = twopoint
        g = project_lipschitz(clf, cost)
        assert np.array_equal(g.probs, clf.probs)

    def test_envelope_by_hand(self):
        space = FeatureSpace([0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.3], [0.0, 0.0]])
        f = Classifier(space, [0.0, 1.0])
        g = project_lipschitz(f, cost)
        # g(bottom) = max(0 - 0, 1 - 0.3); g(top) = max(0 - 0, 1 - 0).
        assert g.probs.tolist() == [0.7, 1.0]

    def test_nobody_moves_under_projection(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            space = random_space(rng, int(rng.integers(2, 10)))
            cost = random_simple_cost(rng, space)
            f = random_classifier(rng, space)
            g = project_lipschitz(f, cost)
            assert is_lipschitz(g, cost)
            br = _quiet_best(best_response, g, cost)
            assert not br.moved.any()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        g = project_lipschitz(f, cost)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnifeEdgeWarning)
            assert efficiency(g, pop, cost) >= efficiency(f, pop, cost) - 1e-9
        assert np.array_equal(project_lipschitz(g, cost).probs, g.probs)
        assert is_lipschitz(g, cost)


class TestEfficiencyLP:
    def test_twopoint_recovers_half_half(self, twopoint):
        pop, cost, _ = twopoint
        report = _quiet_best(solve_efficiency_lp, pop, cost)
        assert abs(report.objective - 0.75) <= 1e-12
        assert np.max(np.abs(report.classifier.probs - np.array([0.5, 1.0]))) <= 1e-12

    def test_threepoint_accepts_everyone(self, threepoint):
        pop, cost, _ = threepoint
        report = _quiet_best(solve_efficiency_lp, pop, cost)
        assert abs(report.objective - 2.0 / 3.0) <= 1e-12
        assert np.array_equal(report.classifier.probs, np.ones(3))

    def test_result_is_exactly_covered(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 12)))
            pop = random_population(rng, space)
            cost = random_simple_cost(rng, space)
            report = _quiet_best(solve_efficiency_lp, pop, cost)
            g = report.classifier.probs
            gaps = g[None, :] - g[:, None]
            assert np.all(gaps <= cost.costs), "vertex repair must be exact, not approximate"
            br = _quiet_best(best_response, report.classifier, cost)
            assert not br.moved.any()

    def test_objective_is_the_game_payoff(self, twopoint):
        pop, cost, _ = twopoint
        report = _quiet_best(solve_efficiency_lp, pop, cost)
        assert report.objective == _quiet_best(efficiency, report.classifier, pop, cost)

    def test_reports_tie_break_success(self, twopoint):
        pop, cost, _ = twopoint
        assert _quiet_best(solve_efficiency_lp, pop, cost).details["tie_break_success"] is True

    def test_failed_tie_break_keeps_first_vertex(self, monkeypatch):
        rng = np.random.default_rng(5)
        space = random_space(rng, 9)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        real = solvers.linprog
        first = []

        def second_call_fails(*args, **kwargs):
            if first:
                return OptimizeResult(success=False, x=None, status=4, message="forced")
            first.append(real(*args, **kwargs))
            return first[0]

        monkeypatch.setattr(solvers, "linprog", second_call_fails)
        report = _quiet_best(solve_efficiency_lp, pop, cost)
        assert report.details["tie_break_success"] is False
        vertex = solvers._snap_lipschitz(np.clip(first[0].x, 0.0, 1.0), cost.costs)
        assert np.array_equal(report.classifier.probs, vertex)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_two_linprog_calls_per_solve(self, n, monkeypatch):
        # the benchmark's solvers.linprog.calls counts this seam: 2 per LP
        rng = np.random.default_rng(n)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = CostFunction(space, [[0.0]]) if n == 1 else random_simple_cost(rng, space)
        real = solvers.linprog
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("A_ub"))
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "linprog", counted)
        for solves in (1, 2):
            _quiet_best(solve_efficiency_lp, pop, cost)
            assert len(calls) == 2 * solves
        assert (calls[0] is None) == (n == 1)

    @pytest.mark.parametrize("h, accept", [(0.25, 0.0), (0.75, 1.0)])
    def test_one_point_has_no_constraint_rows(self, h, accept):
        space = FeatureSpace([0.5])
        report = solve_efficiency_lp(Population(space, [1.0], [h]), CostFunction(space, [[0.0]]))
        assert report.classifier.probs.tolist() == [accept]
        assert report.objective == 0.75
        assert report.details == {"lp_objective": 0.75, "tie_break_success": True}

    def test_size_cap(self):
        n = LP_MAX_POINTS + 1
        space = FeatureSpace(np.arange(n, dtype=float))
        pop = Population(space, np.full(n, 1.0 / n), np.linspace(0, 1, n))
        cost = CostFunction(space, np.zeros((n, n)))
        with pytest.raises(ValueError, match="capped"):
            solve_efficiency_lp(pop, cost)


class TestGridOracle:
    def test_resolution_one_is_deterministic_search(self, twopoint):
        pop, cost, _ = twopoint
        report = _quiet_best(grid_oracle, pop, cost, resolution=1)
        assert report.objective == 0.5

    def test_resolution_two_reaches_the_mixed_optimum(self, twopoint):
        # Both (0, 0.5) and (0.5, 1) attain 0.75 on the half-step grid; the
        # oracle may return either, but the winner must re-evaluate to it.
        pop, cost, _ = twopoint
        report = _quiet_best(grid_oracle, pop, cost, resolution=2)
        assert abs(report.objective - 0.75) <= 1e-12
        assert _quiet_best(efficiency, report.classifier, pop, cost) == report.objective

    def test_beta_zero_maximises_utility(self, threepoint):
        pop, cost, _ = threepoint
        report = _quiet_best(grid_oracle, pop, cost, resolution=10, beta=0.0)
        # The utility optimum at this resolution reaches at least the mixed
        # classifier's neighbourhood; it must beat every deterministic one.
        det = solve_deterministic(pop, cost)
        assert report.objective >= det.objective - 1e-12

    def test_monotone_restriction_caps_threepoint(self, threepoint):
        pop, cost, _ = threepoint
        report = _quiet_best(
            grid_oracle, pop, cost, resolution=10, beta=0.0, monotone_only=True
        )
        assert report.objective <= 2.0 / 3.0 + 1e-12
        assert np.all(np.diff(report.classifier.probs) >= 0)

    def test_caps(self):
        n = ORACLE_MAX_POINTS + 1
        space = FeatureSpace(np.arange(n, dtype=float))
        pop = Population(space, np.full(n, 1.0 / n), np.linspace(0, 1, n))
        cost = CostFunction(space, np.zeros((n, n)))
        with pytest.raises(ValueError, match="capped"):
            grid_oracle(pop, cost)
        small = FeatureSpace([0.0, 1.0])
        pop2 = Population(small, [0.5, 0.5], [0.0, 1.0])
        cost2 = CostFunction(small, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="resolution"):
            grid_oracle(pop2, cost2, resolution=ORACLE_MAX_RESOLUTION + 1)

    def test_lp_matches_oracle_on_small_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            space = random_space(rng, int(rng.integers(2, 5)))
            pop = random_population(rng, space)
            cost = random_simple_cost(rng, space)
            lp = _quiet_best(solve_efficiency_lp, pop, cost)
            oracle = _quiet_best(grid_oracle, pop, cost, resolution=20)
            assert lp.objective >= oracle.objective - 0.05
