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
    shift_cost,
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

    def test_reports_tie_break_success(self):
        space = FeatureSpace([1.0, 2.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        report = _quiet_best(solve_efficiency_lp, pop, shift_cost(space, [0.0, 0.5]))
        assert report.details == {"lp_objective": 0.75, "tie_break_success": True, "snap_rounds": 0}
        assert report.classifier.probs.tolist() == [0.5, 1.0]

    def test_failed_tie_break_keeps_first_vertex(self, monkeypatch):
        rng = np.random.default_rng(5)
        space = random_space(rng, 9)
        pop = random_population(rng, space)
        cost = shift_cost(space, np.cumsum(rng.uniform(0.0, 0.3, size=9)))
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
        vertex, _ = solvers._snap_lipschitz(np.clip(first[0].x, 0.0, 1.0), cost.costs)
        assert np.array_equal(report.classifier.probs, vertex)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_two_linprog_calls_per_solve(self, n, monkeypatch):
        # the benchmark's solvers.linprog.calls counts this seam: 2 per
        # separable LP, none for a tabular one, which runs the flow solver
        rng = np.random.default_rng(n)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        separable = shift_cost(space, np.cumsum(rng.uniform(0.0, 0.3, size=n)))
        tabular = random_simple_cost(rng, space)
        real = solvers.linprog
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("A_ub"))
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "linprog", counted)
        for solves in (1, 2):
            _quiet_best(solve_efficiency_lp, pop, separable)
            assert len(calls) == 2 * solves
            _quiet_best(solve_efficiency_lp, pop, tabular)
            assert len(calls) == 2 * solves
        assert (calls[0] is None) == (n == 1)

    @pytest.mark.parametrize("h, accept", [(0.25, 0.0), (0.75, 1.0)])
    def test_one_point_has_no_constraint_rows(self, h, accept):
        # one augmentation ships the point's supply to the anchor, or back
        space = FeatureSpace([0.5])
        report = solve_efficiency_lp(Population(space, [1.0], [h]), CostFunction(space, [[0.0]]))
        assert report.classifier.probs.tolist() == [accept]
        assert report.objective == 0.75
        assert report.details == {"augmentations": 1, "snap_rounds": 0}

    def test_size_cap(self):
        n = LP_MAX_POINTS + 1
        space = FeatureSpace(np.arange(n, dtype=float))
        pop = Population(space, np.full(n, 1.0 / n), np.linspace(0, 1, n))
        cost = CostFunction(space, np.zeros((n, n)))
        with pytest.raises(ValueError, match="capped"):
            solve_efficiency_lp(pop, cost)


# Unit roundoff of float64.
_U = np.finfo(float).eps / 2
# HiGHS's default dual feasibility tolerance: it stops once no reduced cost
# is worse than this, so its objective may fall short of the optimum by up
# to this much per unit of g, at most n in all.
_HIGHS_DUAL_TOL = 1e-7


def _budgets(weights: np.ndarray) -> tuple[float, float]:
    """Derived rounding bounds on (w.g, g) between two solvers of the LP.

    Every vertex of the LP is a vector of shortest distances from the anchor
    of the dual flow graph: each g_v is the length of a path of at most n
    arcs whose partial sums are themselves distances, so lie in [0, 1].
    Each addition rounds by at most u, so a vertex summed along paths is
    within n u of the real one, entry by entry.  With W = sum |w|:

    - w.g moves by at most n u W through the entries, and the n-term dot
      product rounds by at most n u W more: 2 n u W a solver, 4 n u W
      between two.  The flow's cost (its dual objective, an fsum of
      products) is within the same 2 n u W of the optimum, plus 2 u W.
    - HiGHS's second solve fixes a block of entries that move together
      through the row w.g = opt, dividing by the block's sum of w.  The
      optimum, the other entries and the dot product each carry up to
      n u W, so the block is within 3 n u W / |sum| more.  On a
      nondecreasing g a block is a run of grid points, so the smallest
      nonzero |sum of w over a run| bounds the divisor: n u (2 + 3 W / m).
    """
    n = weights.size
    total = float(np.abs(weights).sum())
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    runs = np.abs(prefix[None, :] - prefix[:, None])
    runs = runs[runs > 0.0]
    kappa = total / float(runs.min()) if runs.size else 0.0
    return (4 * n + 2) * _U * total, n * _U * (2.0 + 3.0 * kappa)


def _check_flow_solve(pop: Population, cost: CostFunction) -> None:
    weights = pop.pi * (2.0 * pop.h - 1.0)
    n = weights.size
    objective_bound, g_bound = _budgets(weights)
    top, flow_cost, _ = solvers._efficiency_flow(weights, cost.costs)
    # duality certificate, no HiGHS involved: the unsnapped w.g is the flow's cost
    assert abs(float(np.dot(weights, top)) - flow_cost) <= objective_bound
    x, details = solvers._efficiency_highs(weights, cost.costs)
    g = np.clip(top, 0.0, 1.0)
    gain = float(np.dot(weights, g)) - details["lp_objective"]
    assert -objective_bound <= gain <= n * _HIGHS_DUAL_TOL + objective_bound
    if gain <= objective_bound:  # the oracle reached the optimum: same face, same top
        assert np.max(np.abs(g - np.clip(x, 0.0, 1.0))) <= g_bound
    report = _quiet_best(solve_efficiency_lp, pop, cost)
    probs = report.classifier.probs
    assert np.all(probs[None, :] - probs[:, None] <= cost.costs), "covered exactly, not to tolerance"
    assert not _quiet_best(best_response, report.classifier, cost).moved.any()
    assert not np.signbit(probs).any()


class TestEfficiencyFlow:
    """The tabular LP's flow solver against two HiGHS solves, and on its own."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        scale=st.sampled_from([1.0, 0.05]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_highs_oracle(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        _check_flow_solve(random_population(rng, space), random_simple_cost(rng, space, scale))

    def test_matches_the_highs_oracle_at_the_size_cap(self):
        rng = np.random.default_rng(2029)
        space = random_space(rng, LP_MAX_POINTS)
        _check_flow_solve(random_population(rng, space), random_simple_cost(rng, space))

    def test_beats_an_oracle_that_stops_short(self):
        # w_2 = 6.1e-8 lies below HiGHS's dual feasibility tolerance, and
        # HiGHS settles 6.1e-8 short of the optimum that the flow finds
        rng = np.random.default_rng(4248)
        space = random_space(rng, int(rng.integers(1, 13)))
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        weights = pop.pi * (2.0 * pop.h - 1.0)
        top, _, _ = solvers._efficiency_flow(weights, cost.costs)
        _, details = solvers._efficiency_highs(weights, cost.costs)
        assert 5e-8 < float(np.dot(weights, top)) - details["lp_objective"] < 1e-7
        _check_flow_solve(pop, cost)

    @pytest.mark.parametrize(
        "case", ["weights zero", "weights negative", "costs at least one", "costs zero"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degenerate_draws(self, case, seed):
        rng = np.random.default_rng(seed)
        n = 7
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        if case == "weights zero":  # the whole box is optimal: its top is all ones
            pop = Population(space, pop.pi, np.full(n, 0.5))
        elif case == "weights negative":
            pop = Population(space, pop.pi, pop.h * 0.49)
        elif case == "costs at least one":  # no pair constraint binds
            cost = CostFunction(space, np.triu(cost.costs + 1.0, 1))
        else:  # every g_j - g_i <= 0: one common value
            cost = CostFunction(space, np.zeros((n, n)))
        weights = pop.pi * (2.0 * pop.h - 1.0)
        expect = {
            "weights zero": np.ones(n),
            "weights negative": np.zeros(n),
            "costs at least one": (weights >= 0.0).astype(float),
            "costs zero": np.full(n, float(weights.sum() >= 0.0)),
        }[case]
        top, _, _ = solvers._efficiency_flow(weights, cost.costs)
        assert np.clip(top, 0.0, 1.0).tolist() == expect.tolist()
        _check_flow_solve(pop, cost)

    def test_no_negative_zero(self):
        # zero-cost arcs make reverse arcs of length zero; none of them
        # turns into a -0.0 entry, even where the costs hold -0.0 themselves
        space = FeatureSpace([1.0, 2.0, 3.0, 4.0])
        pop = Population(space, [0.3, 0.3, 0.2, 0.2], [0.0, 0.1, 0.2, 0.9])
        costs = np.array(
            [[0.0, -0.0, 0.3, 0.9], [0.0, 0.0, -0.0, 0.6], [0.0, 0.0, 0.0, 0.6], [0.0] * 4]
        )
        report = solve_efficiency_lp(pop, CostFunction(space, costs))
        assert 0.0 in report.classifier.probs.tolist()
        assert not np.signbit(report.classifier.probs).any()


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
