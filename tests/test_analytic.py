"""Gaussian closed forms and the projection onto a finite grid."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from stratclass import analytic, model
from stratclass import (
    GaussianInstance,
    RegimeWarning,
    UnimodalityWarning,
    ValidationError,
    compare_noise_benefit,
    discretize_instance,
    noiseless_optimal_tau,
    noiseless_overall_utility,
    noiseless_subpop_utility,
    noisy_fair_utility,
    noise_benefit_instance,
    threshold_sweep,
    unfair_instance,
)

ROOT_2PI = math.sqrt(2.0 * math.pi)


class TestGaussianInstance:
    def test_share_default_and_validation(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        assert inst.s_b == 0.75
        with pytest.raises(ValidationError, match="sum to 1"):
            GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, s_b=0.5)
        with pytest.raises(ValidationError, match="positive"):
            GaussianInstance(t=0.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        with pytest.raises(ValidationError, match=r"shares must lie in \[0, 1\]"):
            GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=1.5)
        with pytest.raises(ValidationError, match="sigma: must be nonnegative"):
            GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=-1.0)

    def test_ramp_must_dwarf_the_spread(self):
        with pytest.raises(ValidationError, match="d >= 8 max"):
            GaussianInstance(t=2.0, d=10.0, sigma_a=0.5, sigma_b=1.0, s_a=0.5)
        with pytest.raises(ValidationError, match="d >= 8 max"):
            GaussianInstance(t=1.0, d=10.0, sigma_a=0.5, sigma_b=1.0, s_a=0.5, sigma=2.0)

    def test_regime_boundary_is_inclusive(self):
        k = 0.25
        on = GaussianInstance(
            t=k * ROOT_2PI, d=100.0, sigma_a=0.5, sigma_b=0.5 + k, s_a=0.5
        )
        assert on.in_regime
        off = GaussianInstance(
            t=k * ROOT_2PI, d=100.0, sigma_a=0.5, sigma_b=0.5 + k * 1.01, s_a=0.5
        )
        assert not off.in_regime


class TestClosedForms:
    @pytest.fixture()
    def inst(self):
        return GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)

    def test_subpop_peak_location_and_height(self, inst):
        for which, scale in (("A", inst.sigma_a), ("B", inst.sigma_b)):
            peak = ROOT_2PI * scale
            top = noiseless_subpop_utility(peak, inst, which)
            assert top == pytest.approx(0.5 + inst.t / (ROOT_2PI * inst.d), abs=1e-15)
            # One t to either side the bump has decayed by exactly exp(-1/2).
            off = noiseless_subpop_utility(peak + inst.t, inst, which)
            assert (off - 0.5) == pytest.approx((top - 0.5) * math.exp(-0.5), rel=1e-12)

    def test_overall_is_the_share_mix(self, inst):
        taus = np.linspace(-1.0, 4.0, 7)
        mix = inst.s_a * noiseless_subpop_utility(taus, inst, "A") + inst.s_b * (
            noiseless_subpop_utility(taus, inst, "B")
        )
        assert np.array_equal(noiseless_overall_utility(taus, inst), mix)

    def test_array_and_scalar_forms_agree(self, inst):
        vals = noiseless_subpop_utility(np.array([0.0, 1.0]), inst, "A")
        assert vals[0] == noiseless_subpop_utility(0.0, inst, "A")
        assert isinstance(noiseless_subpop_utility(0.0, inst, "A"), float)

    def test_unknown_group_rejected(self, inst):
        with pytest.raises(ValidationError, match="expected 'A' or 'B'"):
            noiseless_subpop_utility(0.0, inst, "C")

    @pytest.mark.parametrize("which", ["a", "b", "0", "1", 0, 1])
    def test_group_is_named_exactly(self, inst, which):
        with pytest.raises(ValidationError, match="expected 'A' or 'B'"):
            noiseless_subpop_utility(0.0, inst, which)

    def test_optimal_tau_degenerate_cases(self):
        same = GaussianInstance(t=1.0, d=100.0, sigma_a=0.7, sigma_b=0.7, s_a=0.3)
        assert noiseless_optimal_tau(same) == ROOT_2PI * 0.7
        halves = GaussianInstance(t=4.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.5)
        assert noiseless_optimal_tau(halves) == ROOT_2PI * 0.75

    def test_optimal_tau_interior_maximum(self, inst):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            tau = noiseless_optimal_tau(inst)
        lo, hi = ROOT_2PI * inst.sigma_a, ROOT_2PI * inst.sigma_b
        assert lo < tau < hi
        at = noiseless_overall_utility(tau, inst)
        # Step large enough that the quadratic drop beats float noise on a
        # bump of height t/(sqrt(2 pi) d) ~ 4e-3.
        step = 1e-4
        assert at >= noiseless_overall_utility(tau - step, inst)
        assert at >= noiseless_overall_utility(tau + step, inst)

    def test_optimal_tau_warns_outside_regime(self, inst):
        # sqrt(2 pi) |sigma_a - sigma_b| is about 1.25 > t = 1 here.
        assert not inst.in_regime
        with pytest.warns(RegimeWarning):
            noiseless_optimal_tau(inst)
        # further out the bracket holds two interior maxima
        bimodal = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.5, s_a=0.4)
        with pytest.warns(UnimodalityWarning, match="looks multimodal on the bracket"):
            noiseless_optimal_tau(bimodal)

    def test_noisy_fair_value_and_regime_warning(self):
        quiet = GaussianInstance(
            t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0
        )
        expected = quiet.t**2 / (
            math.sqrt(2.0 * math.pi * (quiet.sigma**2 + quiet.t**2)) * quiet.d
        ) + 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            assert noisy_fair_utility(quiet) == expected
        loud = GaussianInstance(
            t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=0.5
        )
        with pytest.warns(RegimeWarning, match="below the larger cost scale"):
            noisy_fair_utility(loud)

    def test_noise_benefit_needs_equal_shares(self):
        inst = GaussianInstance(
            t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0
        )
        with pytest.raises(ValidationError, match="equal shares"):
            compare_noise_benefit(inst)

    def test_noise_benefit_headline(self, benefit_inst):
        nb = compare_noise_benefit(benefit_inst)
        assert nb.noise_wins
        assert nb.u_noisy_star > nb.u_noiseless_star > 0.5


class TestDiscretize:
    def test_grid_shape(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        disc = discretize_instance(inst, n=201)
        pts = disc.scenario.space.points
        assert pts.size == 201
        assert pts[100] == 0.0
        assert np.array_equal(pts, -pts[::-1])
        assert disc.half_width == 8.0 * inst.t
        assert disc.grid_step == pytest.approx(pts[1] - pts[0], abs=0)

    def test_rejects_bad_n(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        with pytest.raises(ValidationError, match="odd"):
            discretize_instance(inst, n=200)
        with pytest.raises(ValidationError, match="odd"):
            discretize_instance(inst, n=101)

    def test_population_is_cell_integrated_normal(self):
        inst = GaussianInstance(t=2.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        disc = discretize_instance(inst, n=201)
        pts = disc.scenario.space.points
        pi = disc.scenario.pop.pi
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        mids = (pts[1:] + pts[:-1]) / 2.0
        # Interior cell: the mass between neighbouring midpoints.
        k = 57
        expected = ndtr(mids[k] / inst.t) - ndtr(mids[k - 1] / inst.t)
        assert pi[k] == pytest.approx(expected, rel=1e-12)

    def test_qualification_is_the_clamped_ramp(self):
        inst = GaussianInstance(t=1.0, d=8.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0)
        disc = discretize_instance(inst, n=201)
        pts = disc.scenario.space.points
        h = disc.scenario.pop.h
        assert np.array_equal(h, np.clip(pts / (2.0 * inst.d) + 0.5, 0.0, 1.0))
        assert h[0] == 0.0 and h[-1] == 1.0  # the wide grid hits the clamp

    def test_costs_use_the_linear_family(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        disc = discretize_instance(inst, n=201)
        pts = disc.scenario.space.points
        ca = disc.scenario.cost_fns[0].costs
        i, j = 40, 160
        assert ca[i, j] == pytest.approx((pts[j] - pts[i]) / (ROOT_2PI * inst.sigma_a), rel=1e-15)
        assert ca[j, i] == 0.0

    def test_kernel_only_when_noisy(self):
        free = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        noisy = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0)
        assert discretize_instance(free, n=201).scenario.kernel is None
        disc = discretize_instance(noisy, n=201)
        assert disc.scenario.kernel is not None
        assert disc.half_width == 8.0 * math.hypot(1.0, 1.0)

    def test_budgets(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        disc = discretize_instance(inst, n=401)
        expected_budget = 2.0 * inst.t * math.exp(-(inst.d**2) / (2.0 * inst.t**2)) / (
            ROOT_2PI * inst.d
        )
        assert disc.approx_budget == expected_budget
        assert disc.tolerance == pytest.approx(
            (2.0 / 401) * (disc.half_width / inst.d) + expected_budget, rel=1e-15
        )

    def test_shares_and_labels(self):
        inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
        scen = discretize_instance(inst, n=201).scenario
        assert scen.shares.tolist() == [0.25, 0.75]
        assert scen.labels == ("A", "B")

    @pytest.mark.parametrize("n", [401, 801, 1601, 3201])
    @pytest.mark.parametrize(
        "inst",
        [unfair_instance(), dataclasses.replace(noise_benefit_instance(), sigma=0.0)],
        ids=["unfair", "noise-benefit"],
    )
    def test_noiseless_sweep_within_budget(self, inst, n):
        # the simulated sweep tracks the closed form within the derived
        # budget at every grid size, not only at the n = 801 of thm3
        disc = discretize_instance(inst, n=n)
        sweep = threshold_sweep(disc.scenario)
        taus = np.array([p.tau for p in sweep])
        sim = np.array([p.utility for p in sweep])
        assert np.max(np.abs(sim - noiseless_overall_utility(taus, inst))) <= disc.tolerance


class TestSizeGuard:
    """Sizes whose dense matrices exceed the limit are refused before allocation."""

    FREE = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
    NOISY = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0)

    @pytest.fixture()
    def stop_after_guard(self, monkeypatch):
        """Raise at the first n x n allocation, so a passing size costs nothing."""

        class PastGuard(Exception):
            pass

        def stop(*args, **kwargs):
            raise PastGuard

        monkeypatch.setattr(analytic, "shift_cost", stop)
        return PastGuard

    @pytest.mark.parametrize("inst", [FREE, NOISY])
    def test_huge_grid_refused(self, inst):
        with pytest.raises(ValidationError, match=r"n: 20001 points need .* GB"):
            discretize_instance(inst, n=20001)

    @pytest.mark.parametrize("inst, matrices", [(FREE, 2), (NOISY, 3)])
    def test_boundary(self, stop_after_guard, inst, matrices):
        # 8 bytes per entry of each kept n x n matrix: two costs, plus the kernel
        n = 201
        while 8 * (n + 2) ** 2 * matrices <= model.DENSE_BYTES_LIMIT:
            n += 2
        with pytest.raises(stop_after_guard):
            discretize_instance(inst, n=n)
        with pytest.raises(ValidationError, match="GB"):
            discretize_instance(inst, n=n + 2)

    def test_noisy_6401_fits(self, stop_after_guard):
        with pytest.raises(stop_after_guard):
            discretize_instance(self.NOISY, n=6401)
