"""Pooled mass, unilateral deviations, and the equilibrium audit."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    KnifeEdgeWarning,
    Population,
    best_deviation,
    derandomize,
    is_equilibrium,
    pooled_mass,
    solve_deterministic,
    stability_check,
    utility,
)
from stratclass.sampling import (
    random_classifier,
    random_population,
    random_simple_cost,
    random_space,
)


def _quiet(fun, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KnifeEdgeWarning)
        return fun(*args, **kwargs)


class TestPooledMass:
    def test_twopoint_nobody_moves(self, twopoint):
        pop, cost, clf = twopoint
        mass = _quiet(pooled_mass, clf, pop, cost)
        assert mass.tolist() == [-0.5, 0.5]

    def test_threepoint_pools_at_the_top(self, threepoint):
        pop, cost, clf = threepoint
        mass = _quiet(pooled_mass, clf, pop, cost)
        assert mass.tolist() == pytest.approx([-1.0 / 3.0, 0.0, 2.0 / 3.0], abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_mass_is_conserved(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        mass = _quiet(pooled_mass, f, pop, cost)
        total = float(np.dot(pop.pi, 2.0 * pop.h - 1.0))
        assert abs(float(mass.sum()) - total) <= 1e-12


class TestBestDeviation:
    def test_twopoint_gain(self, twopoint):
        pop, cost, clf = twopoint
        dev = _quiet(best_deviation, clf, pop, cost)
        # Dropping the bottom point's acceptance from 0.5 to 0 sheds the
        # negative mass sitting there.
        assert abs(dev.gain - 0.25) <= 1e-12
        assert dev.g.probs.tolist() == [0.0, 1.0]

    def test_threepoint_gain(self, threepoint):
        pop, cost, clf = threepoint
        dev = _quiet(best_deviation, clf, pop, cost)
        assert abs(dev.gain - 1.0 / 30.0) <= 1e-12
        assert dev.g.probs.tolist() == [0.0, 0.0, 1.0]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_gain_is_nonnegative_and_zero_at_equilibrium(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        f = random_classifier(rng, space)
        dev = _quiet(best_deviation, f, pop, cost)
        assert dev.gain >= 0.0
        if _quiet(is_equilibrium, f, pop, cost):
            # Every coordinate is boundary-aligned or carries |mass| <= tol.
            assert dev.gain <= n * 1e-9


class TestIsEquilibrium:
    def test_examples_are_unstable(self, twopoint, threepoint):
        for pop, cost, clf in (twopoint, threepoint):
            assert not _quiet(is_equilibrium, clf, pop, cost)

    def test_boundary_semantics(self):
        # Positive mass on an accept-1 point and negative mass on a
        # reject-0 point cannot be exploited further.
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(space, [[0.0, 2.0], [0.0, 0.0]])
        clf = Classifier(space, [0.0, 1.0])
        assert _quiet(is_equilibrium, clf, pop, cost)
        # Interior acceptance on the same signed mass is exploitable.
        assert not _quiet(is_equilibrium, Classifier(space, [0.0, 0.9]), pop, cost)


class TestDerandomize:
    def test_keeps_only_certain_acceptances(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        f = Classifier(space, [0.3, 1.0, 0.999])
        d = derandomize(f)
        assert d.probs.tolist() == [0.0, 1.0, 0.0]

    def test_one_minus_ulp_is_not_one(self):
        space = FeatureSpace([0.0, 1.0])
        below = float(np.nextafter(1.0, 0.0))
        d = derandomize(Classifier(space, [below, 1.0]))
        assert d.probs.tolist() == [0.0, 1.0]


class TestStabilityCheck:
    def test_unstable_superior_classifier_is_not_a_violation(self, twopoint):
        pop, cost, clf = twopoint
        report = _quiet(stability_check, clf, pop, cost)
        assert report.u_f == 0.75
        assert abs(report.u_det_star - 0.5) <= 1e-12
        assert not report.equilibrium
        assert report.violations == ()
        assert report.u_derand is None

    def test_equilibrium_report(self, twopoint):
        pop, cost, _ = twopoint
        clf = Classifier(pop.space, [0.0, 1.0])
        report = _quiet(stability_check, clf, pop, cost)
        assert report.equilibrium
        assert report.violations == ()
        assert report.u_derand == report.u_f == 0.5

    def test_superior_classifiers_are_never_stable(self):
        from stratclass import solve_efficiency_lp

        rng = np.random.default_rng(97)
        positives = 0
        for i in range(60):
            space = random_space(rng, int(rng.integers(2, 8)))
            pop = random_population(rng, space)
            cost = random_simple_cost(rng, space)
            if i % 2 == 0:
                f = random_classifier(rng, space)
            else:
                # Cost-covered optima routinely beat the deterministic
                # optimum, keeping the implication from going vacuous.
                f = _quiet(solve_efficiency_lp, pop, cost).classifier
            report = _quiet(stability_check, f, pop, cost)
            assert report.violations == ()
            if report.u_f > report.u_det_star + 1e-9:
                positives += 1
                assert not report.equilibrium
        assert positives > 0, "sweep never exercised the implication"
