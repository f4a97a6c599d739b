"""Domain type construction, validation, and the simple-cost axioms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    is_lipschitz,
    shift_cost,
    validate_simple_cost,
)
from stratclass import model
from stratclass.sampling import (
    random_dominating_pair,
    random_population,
    random_simple_cost,
    random_space,
)


class TestFeatureSpace:
    def test_basic(self):
        space = FeatureSpace([0.0, 1.5, 2.0])
        assert space.n == 3
        assert len(space) == 3
        assert space.matches(FeatureSpace([0.0, 1.5, 2.0]))
        assert not space.matches(FeatureSpace([0.0, 1.5]))
        assert not space.matches(FeatureSpace([0.0, 1.5, 2.5]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            FeatureSpace([1.0, 1.0])
        with pytest.raises(ValidationError):
            FeatureSpace([2.0, 1.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            FeatureSpace([])
        with pytest.raises(ValidationError):
            FeatureSpace([0.0, np.inf])

    def test_order_check_does_not_overflow(self):
        # the suite turns RuntimeWarning into errors; np.diff would overflow here
        assert FeatureSpace([-1e308, 1e308]).n == 2
        with pytest.raises(ValidationError, match="strictly increasing"):
            FeatureSpace([1e308, -1e308])

    def test_points_are_read_only(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValueError):
            space.points[0] = 5.0


class TestPopulation:
    def test_rejects_bad_mass(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="sum to 1"):
            Population(space, [0.5, 0.4], [0.0, 1.0])
        with pytest.raises(ValidationError, match="nonnegative"):
            Population(space, [-0.5, 1.5], [0.0, 1.0])

    def test_rejects_bad_h(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="lie in"):
            Population(space, [0.5, 0.5], [0.0, 1.5])

    def test_monotone_h_enforced_by_default(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="monotone"):
            Population(space, [0.5, 0.5], [1.0, 0.0])
        pop = Population(space, [0.5, 0.5], [1.0, 0.0], allow_nonmonotone_h=True)
        assert pop.h[0] == 1.0

    def test_shape_mismatch(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            Population(space, [1.0], [0.5, 0.5])


class TestCostFunction:
    def test_rejects_negative_and_downward_charges(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="negative"):
            CostFunction(space, [[0.0, -0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="weakly lower"):
            CostFunction(space, [[0.0, 0.5], [0.3, 0.0]])

    def test_downward_dust_is_canonicalised(self):
        space = FeatureSpace([0.0, 1.0])
        c = CostFunction(space, [[1e-15, 0.5], [-1e-15, 0.0]])
        assert c.costs[0, 0] == 0.0
        assert c.costs[1, 0] == 0.0

    def test_shift_cost_formula(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        c = shift_cost(space, [0.0, 0.3, 1.0])
        assert c.costs[0, 1] == pytest.approx(0.3, abs=0)
        assert c.costs[0, 2] == pytest.approx(1.0, abs=0)
        assert c.costs[1, 2] == pytest.approx(0.7)
        assert np.all(c.costs[np.tril_indices(3)] == 0.0)
        assert validate_simple_cost(c.costs, None) == []

    def test_shift_cost_requires_nondecreasing(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="nondecreasing"):
            shift_cost(space, [1.0, 0.0])


class TestSimpleCostAxioms:
    def test_negative_entry_flagged(self):
        out = validate_simple_cost(np.array([[0.0, 1.0], [-0.5, 0.0]]), None)
        assert any(v.axiom == 1 for v in out)

    def test_downward_charge_flagged(self):
        out = validate_simple_cost(np.array([[0.0, 1.0], [0.5, 0.0]]), None)
        assert any(v.axiom == 2 for v in out)

    def test_subadditivity_flagged(self):
        # 0 -> 2 direct costs 1.0 but the two hops cost 0.2 + 0.2.
        costs = np.array([[0.0, 0.2, 1.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        out = validate_simple_cost(costs, None)
        viols = [v for v in out if v.axiom == 3]
        assert viols and viols[0].indices == (0, 1, 2)

    def test_qualification_order_follows_h(self):
        # Grid-upward but h-downward: free under the grid order, a charged
        # downward move once h says the destination is less qualified.
        costs = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert validate_simple_cost(costs, None) == []
        out = validate_simple_cost(costs, np.array([1.0, 0.0]))
        assert any(v.axiom == 2 for v in out)

    def test_flat_h_ties_break_by_grid_position(self):
        # Equal h falls back to grid order, so the same matrix stays simple.
        costs = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert validate_simple_cost(costs, np.array([0.5, 0.5])) == []

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_sampled_costs_are_simple(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        assert validate_simple_cost(cost.costs, pop.h) == []

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_dominating_pairs_order_and_stay_simple(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        high, low = random_dominating_pair(rng, space)
        assert np.all(high.costs >= low.costs)
        assert validate_simple_cost(high.costs, None) == []
        assert validate_simple_cost(low.costs, None) == []


class TestClassifier:
    def test_threshold_variants(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        at = Classifier.threshold(space, 1.0)
        above = Classifier.threshold(space, 1.0, strict=True)
        assert at.probs.tolist() == [0.0, 1.0, 1.0]
        assert above.probs.tolist() == [0.0, 0.0, 1.0]
        assert at.is_deterministic and above.is_deterministic

    def test_constant_and_determinism_flag(self):
        space = FeatureSpace([0.0, 1.0])
        assert Classifier.constant(space, 1.0).is_deterministic
        assert not Classifier.constant(space, 0.25).is_deterministic

    def test_rejects_out_of_range(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            Classifier(space, [0.0, 1.5])

    def test_is_lipschitz(self, twopoint):
        pop, cost, clf = twopoint
        assert is_lipschitz(clf, cost)
        assert not is_lipschitz(Classifier(pop.space, [0.0, 1.0]), cost)


class TestNoiseKernel:
    def test_rows_must_be_stochastic(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="sums to"):
            NoiseKernel(space, [[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="nonnegative"):
            NoiseKernel(space, [[1.5, -0.5], [0.0, 1.0]])

    def test_identity(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        k = NoiseKernel.identity(space)
        assert np.array_equal(k.rows, np.eye(3))

    def test_gaussian_zero_sigma_is_identity(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        k = NoiseKernel.gaussian(space, 0.0)
        assert np.array_equal(k.rows, np.eye(3))

    def test_gaussian_rows_close_exactly(self):
        space = FeatureSpace(np.linspace(-2.0, 2.0, 9))
        k = NoiseKernel.gaussian(space, 0.7)
        assert np.allclose(k.rows.sum(axis=1), 1.0, atol=1e-14, rtol=0)
        # Symmetric grid, centred noise: the middle row is symmetric.
        mid = k.rows[4]
        assert mid.tolist() == pytest.approx(mid[::-1].tolist(), abs=1e-15)

    def test_gaussian_rejects_negative_sigma(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            NoiseKernel.gaussian(space, -1.0)

    @pytest.mark.parametrize("points", [[1.0e308, 1.7e308], [-1.7e308, 1.6e308, 1.7e308]])
    def test_gaussian_grid_near_the_float_maximum(self, points):
        # a unit sigma cannot blur points ~1e307 apart; an overflowing
        # midpoint would put both first cells at +inf
        k = NoiseKernel.gaussian(FeatureSpace(points), 1.0)
        assert np.array_equal(k.rows, np.eye(len(points)))

    def test_gaussian_refused_before_any_n_by_n_allocation(self, monkeypatch):
        class PastGuard(Exception):
            pass

        def stop(points):
            raise PastGuard

        monkeypatch.setattr(model, "_cell_edges", stop)
        n = math.isqrt(model.DENSE_BYTES_LIMIT // 8)  # the largest kernel that fits
        with pytest.raises(PastGuard):
            NoiseKernel.gaussian(FeatureSpace(np.arange(float(n))), 1.0)
        with pytest.raises(ValidationError, match=rf"^n: {n + 1} points need .* GB"):
            NoiseKernel.gaussian(FeatureSpace(np.arange(n + 1.0)), 1.0)


class TestSubpopulationScenario:
    def test_default_labels_and_k(self):
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
        scen = SubpopulationScenario(pop=pop, shares=np.array([0.25, 0.75]), cost_fns=(cost, cost))
        assert scen.k == 2
        assert scen.labels == ("A", "B")
        assert scen.space is pop.space

    def test_share_validation(self):
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="sum to 1"):
            SubpopulationScenario(pop=pop, shares=np.array([0.5, 0.4]), cost_fns=(cost, cost))
        with pytest.raises(ValidationError, match="one cost function per share"):
            SubpopulationScenario(pop=pop, shares=np.array([1.0]), cost_fns=(cost, cost))

    def test_grid_mismatch_rejected(self):
        space = FeatureSpace([0.0, 1.0])
        other = FeatureSpace([0.0, 2.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(other, [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="share the feature grid"):
            SubpopulationScenario(pop=pop, shares=np.array([1.0]), cost_fns=(cost,))
