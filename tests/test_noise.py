"""The noisy channel: effective acceptance, policies, sweeps, reductions."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    KnifeEdgeWarning,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    best_response,
    effective_acceptance,
    efficiency,
    noisy_best_response,
    noisy_efficiency,
    noisy_strategy_cost,
    noisy_utility,
    solve_deterministic_noisy,
    strategy_cost,
    subpop_accuracies,
    threshold_sweep,
    utility,
)
from stratclass.sampling import (
    random_classifier,
    random_kernel,
    random_population,
    random_simple_cost,
    random_space,
)

from conftest import single_group


def _quiet(fun, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KnifeEdgeWarning)
        return fun(*args, **kwargs)


class TestEffectiveAcceptance:
    def test_noise_example_curve(self, noisepoint):
        pop, kernel, cost, clf = noisepoint
        q = effective_acceptance(clf, kernel)
        assert q.tolist() == [0.5, 1.0]

    def test_no_kernel_returns_probs(self, twopoint):
        _, _, clf = twopoint
        q = effective_acceptance(clf, None)
        assert np.array_equal(q, clf.probs)

    def test_identity_kernel_is_exact(self):
        rng = np.random.default_rng(3)
        space = random_space(rng, 7)
        f = random_classifier(rng, space)
        q = effective_acceptance(f, NoiseKernel.identity(space))
        assert np.array_equal(q, f.probs)


class TestNoiseExampleValues:
    def test_headline_numbers(self, noisepoint):
        pop, kernel, cost, clf = noisepoint
        with pytest.warns(KnifeEdgeWarning):
            br = noisy_best_response(clf, kernel, cost)
        assert not br.moved.any()
        assert _quiet(noisy_utility, clf, pop, kernel, cost) == 0.75
        assert _quiet(noisy_strategy_cost, clf, pop, kernel, cost) == 0.0
        assert _quiet(noisy_efficiency, clf, pop, kernel, cost) == 0.75

    def test_accept_everyone_baseline(self, noisepoint):
        pop, kernel, cost, _ = noisepoint
        clf = Classifier.constant(pop.space, 1.0)
        assert _quiet(noisy_utility, clf, pop, kernel, cost) == 0.5

    def test_solver_picks_the_strict_top_threshold(self, noisepoint):
        pop, kernel, cost, _ = noisepoint
        scen = single_group(pop, cost, kernel)
        report = _quiet(solve_deterministic_noisy, scen)
        assert report.objective == 0.75
        assert report.classifier.probs.tolist() == [0.0, 1.0]


class TestDeterministicOnlyPolicy:
    def test_fractional_classifier_rejected_through_noise(self, noisepoint):
        pop, kernel, cost, _ = noisepoint
        frac = Classifier(pop.space, [0.5, 1.0])
        with pytest.raises(ValidationError, match="deterministic"):
            noisy_utility(frac, pop, kernel, cost)
        with pytest.raises(ValidationError, match="deterministic"):
            noisy_best_response(frac, kernel, cost)

    def test_override_flag(self, noisepoint):
        pop, kernel, cost, _ = noisepoint
        frac = Classifier(pop.space, [0.5, 1.0])
        value = _quiet(noisy_utility, frac, pop, kernel, cost, allow_randomized=True)
        assert 0.0 <= value <= 1.0

    def test_no_kernel_means_no_policy(self, twopoint):
        pop, cost, clf = twopoint
        assert _quiet(noisy_utility, clf, pop, None, cost) == 0.75


class TestIdentityReduction:
    def test_bitwise_equal_to_noiseless(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 10)))
            pop = random_population(rng, space)
            cost = random_simple_cost(rng, space)
            f = random_classifier(rng, space)
            ident = NoiseKernel.identity(space)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KnifeEdgeWarning)
                assert noisy_utility(f, pop, ident, cost, allow_randomized=True) == utility(f, pop, cost)
                assert noisy_strategy_cost(f, pop, ident, cost, allow_randomized=True) == strategy_cost(f, pop, cost)
                assert noisy_efficiency(f, pop, ident, cost, allow_randomized=True) == efficiency(f, pop, cost)
                nbr = noisy_best_response(f, ident, cost, allow_randomized=True)
                br = best_response(f, cost)
            assert np.array_equal(nbr.target, br.target)
            assert np.array_equal(nbr.moved, br.moved)


class TestSubpopAccuracies:
    @pytest.fixture()
    def two_group(self):
        space = FeatureSpace([-1.0, 0.0, 1.0])
        pop = Population(space, [0.25, 0.5, 0.25], [0.2, 0.5, 0.8])
        dear = CostFunction(space, [[0.0, 0.8, 1.6], [0.0, 0.0, 0.8], [0.0, 0.0, 0.0]])
        cheap = CostFunction(space, [[0.0, 0.4, 0.8], [0.0, 0.0, 0.4], [0.0, 0.0, 0.0]])
        return SubpopulationScenario(
            pop=pop, shares=np.array([0.25, 0.75]), cost_fns=(dear, cheap)
        )

    def test_group_values_by_hand(self, two_group):
        # Accept only the top point: the dear group's middle point pays 0.8
        # for it, the cheap group's bottom and middle points both reach it.
        clf = Classifier.threshold(two_group.space, 0.5)
        rep = _quiet(subpop_accuracies, clf, two_group)
        assert rep.labels == ("A", "B")
        assert rep.utilities[0] == pytest.approx(0.65, abs=1e-15)
        assert rep.utilities[1] == pytest.approx(0.5, abs=1e-15)
        assert rep.gap == pytest.approx(0.15, abs=1e-15)
        assert rep.utility == pytest.approx(0.25 * 0.65 + 0.75 * 0.5, abs=1e-15)
        # Strategy spend: A's middle point (h = 0.5, mass 0.5) pays 0.8;
        # B's bottom (h = 0.2, mass 0.25) pays 0.8 and middle pays 0.4.
        assert rep.costs[0] == pytest.approx(0.5 * 0.5 * 0.8, abs=1e-15)
        assert rep.costs[1] == pytest.approx(0.25 * 0.2 * 0.8 + 0.5 * 0.5 * 0.4, abs=1e-15)
        assert rep.efficiency == pytest.approx(rep.utility - rep.cost, abs=1e-15)

    def test_single_group_has_no_gap(self, twopoint):
        pop, cost, clf = twopoint
        rep = _quiet(subpop_accuracies, clf, single_group(pop, cost))
        assert rep.gap == 0.0
        assert rep.utility == 0.75


class TestThresholdSweep:
    def test_candidates_cover_every_threshold_set(self, twopoint):
        pop, cost, _ = twopoint
        sweep = _quiet(threshold_sweep, single_group(pop, cost))
        masks = sorted(tuple(p.probs.tolist()) for p in (
            Classifier.threshold(pop.space, pt.tau, strict=pt.strict) for pt in sweep
        ))
        assert masks == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_points_match_direct_evaluation(self, twopoint):
        pop, cost, _ = twopoint
        scen = single_group(pop, cost)
        for pt in _quiet(threshold_sweep, scen):
            clf = Classifier.threshold(pop.space, pt.tau, strict=pt.strict)
            rep = _quiet(subpop_accuracies, clf, scen)
            assert pt.utility == rep.utility
            assert pt.cost == rep.cost
            assert pt.efficiency == rep.efficiency

    def test_fast_path_matches_generic_path_bitwise(self):
        # The identity kernel forces the generic evaluation of the same
        # game; every sweep number must agree bit for bit with the
        # kernel-free fast path.
        rng = np.random.default_rng(8)
        for _ in range(5):
            space = random_space(rng, 12)
            pop = random_population(rng, space)
            cost = random_simple_cost(rng, space)
            fast = single_group(pop, cost, kernel=None)
            slow = single_group(pop, cost, kernel=NoiseKernel.identity(space))
            pts_fast = _quiet(threshold_sweep, fast)
            pts_slow = _quiet(threshold_sweep, slow)
            assert len(pts_fast) == len(pts_slow)
            for a, b in zip(pts_fast, pts_slow):
                assert (a.tau, a.strict) == (b.tau, b.strict)
                assert a.utility == b.utility
                assert a.cost == b.cost
                assert a.efficiency == b.efficiency
                assert a.utilities == b.utilities
                assert a.gap == b.gap

    def test_solver_returns_the_sweep_argmax(self, twopoint):
        pop, cost, _ = twopoint
        scen = single_group(pop, cost)
        sweep = _quiet(threshold_sweep, scen)
        best = max(sweep, key=lambda p: p.utility)
        report = _quiet(solve_deterministic_noisy, scen)
        assert report.objective == best.utility
