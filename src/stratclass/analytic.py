"""Closed-form accuracy results for the Gaussian benchmark family.

The benchmark instance: features are Normal(0, t); the qualification rate is
the linear ramp h(y) = y/(2d) + 1/2 clamped to [0, 1] with d much larger
than t; each group S prices a move upward at (y' - y)/(sqrt(2 pi) sigma_S);
observation noise, when present, is additive Normal(0, sigma).

Under a threshold at tau, group S's accuracy has a closed form (exact up to
a truncation term controlled by d): an exponential bump of height
t/(sqrt(2 pi) d) centred at sqrt(2 pi) sigma_S, sitting on the baseline 1/2.
With enough observation noise, the zero threshold accepts no strategic moves
at all and serves both groups identically.  This module evaluates those
closed forms and discretizes the continuous instance onto a finite grid so
the game engine can cross-check them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import (
    PROB_ATOL,
    CostFunction,
    FeatureSpace,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    _cell_edges,
    _require_dense_fits,
    shift_cost,
)

__all__ = [
    "GaussianInstance",
    "NoiseBenefit",
    "DiscretizedInstance",
    "RegimeWarning",
    "UnimodalityWarning",
    "noiseless_subpop_utility",
    "noiseless_overall_utility",
    "noiseless_optimal_tau",
    "noisy_fair_utility",
    "compare_noise_benefit",
    "discretize_instance",
]

_ROOT_2PI = math.sqrt(2.0 * math.pi)

# Half-width of the discretized grid in units of sqrt(t^2 + sigma^2).
_GRID_HALFWIDTH_MULT = 8.0

# Points of the coarse sweep that checks the optimum's bracket is unimodal.
_UNIMODALITY_SWEEP_POINTS = 512


class RegimeWarning(UserWarning):
    """A closed form was evaluated outside the regime that justifies it."""


class UnimodalityWarning(UserWarning):
    """The bracketed objective looks multimodal; the reported optimum may be local."""


@dataclass(frozen=True)
class GaussianInstance:
    """Parameters of one Gaussian benchmark instance.

    t: standard deviation of the feature distribution;
    d: half-width of the qualification ramp (d >= 8 max(t, sigma) enforced,
       the closed forms assume the ramp dwarfs the feature spread);
    sigma_a, sigma_b: manipulation cost scales of the two groups;
    s_a, s_b: population shares of the two groups;
    sigma: observation noise level, 0 for the noiseless channel.
    """

    t: float
    d: float
    sigma_a: float
    sigma_b: float
    s_a: float
    s_b: float | None = None
    sigma: float = 0.0

    def __post_init__(self):
        if self.s_b is None:
            object.__setattr__(self, "s_b", 1.0 - self.s_a)
        for name in ("t", "d", "sigma_a", "sigma_b"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name}: must be positive")
        if not (0.0 <= self.s_a <= 1.0 and 0.0 <= self.s_b <= 1.0):
            raise ValidationError("shares must lie in [0, 1]")
        if abs(self.s_a + self.s_b - 1.0) > PROB_ATOL:
            raise ValidationError("shares must sum to 1")
        if self.sigma < 0:
            raise ValidationError("sigma: must be nonnegative")
        if self.d < 8.0 * max(self.t, self.sigma):
            raise ValidationError(
                "d: the closed forms need d >= 8 max(t, sigma); "
                f"got d={self.d!r} with t={self.t!r}, sigma={self.sigma!r}"
            )

    @property
    def in_regime(self) -> bool:
        """Whether the cost scales are close enough for the optimality claims.

        Scaled to sqrt(2 pi) |sigma_a - sigma_b| <= t so that an instance
        built as t = k * sqrt(2 pi) with |sigma_a - sigma_b| = k lands
        exactly on the boundary and is accepted.
        """
        return _ROOT_2PI * abs(self.sigma_a - self.sigma_b) <= self.t


def _group_sigma(inst: GaussianInstance, which: str) -> float:
    if which == "A":
        return inst.sigma_a
    if which == "B":
        return inst.sigma_b
    raise ValidationError(f"which: expected 'A' or 'B', got {which!r}")


def noiseless_subpop_utility(tau, inst: GaussianInstance, which: str = "A"):
    """Group accuracy of a noiseless threshold at ``tau``, closed form.

    Peaks at tau = sqrt(2 pi) sigma_S with value t/(sqrt(2 pi) d) + 1/2 and
    decays to the baseline 1/2 as tau runs away in either direction.
    Accepts scalar or array ``tau``.
    """
    sigma_s = _group_sigma(inst, which)
    tau = np.asarray(tau, dtype=float)
    peak = _ROOT_2PI * sigma_s
    bump = (inst.t / (_ROOT_2PI * inst.d)) * np.exp(
        -((tau - peak) ** 2) / (2.0 * inst.t**2)
    )
    out = bump + 0.5
    return float(out) if out.ndim == 0 else out


def noiseless_overall_utility(tau, inst: GaussianInstance):
    """Share-weighted accuracy of a noiseless threshold at ``tau``."""
    return inst.s_a * noiseless_subpop_utility(tau, inst, "A") + inst.s_b * (
        noiseless_subpop_utility(tau, inst, "B")
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(fun, lo: float, hi: float, xatol: float) -> float:
    a, b = lo, hi
    width = b - a
    c = b - _INVPHI * width
    d = a + _INVPHI * width
    fc, fd = fun(c), fun(d)
    while width > xatol:
        if fc >= fd:
            b, d, fd = d, c, fc
            width = b - a
            c = b - _INVPHI * width
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            width = b - a
            d = a + _INVPHI * width
            fd = fun(d)
    return (a + b) / 2.0


def noiseless_optimal_tau(inst: GaussianInstance) -> float:
    """Accuracy-maximising noiseless threshold.

    The optimum lies strictly between the two group peaks (the overall
    accuracy rises into the bracket from both ends), so it is found by
    golden-section search there; with equal shares the midpoint of the peaks
    is returned analytically, and with equal cost scales the bracket
    degenerates to the common peak.  A coarse sweep first checks the bracket
    really is unimodal and warns if it is not; the optimality claim itself
    is only backed by theory inside the regime, so leaving the regime warns
    too.
    """
    if not inst.in_regime:
        warnings.warn(
            "cost scales differ by more than t/sqrt(2 pi); the optimum is still "
            "bracketed between the group peaks but the regime claims are void",
            RegimeWarning,
            stacklevel=2,
        )
    peak_a = _ROOT_2PI * inst.sigma_a
    peak_b = _ROOT_2PI * inst.sigma_b
    if inst.sigma_a == inst.sigma_b:
        return peak_a
    if inst.s_a == inst.s_b:
        return (peak_a + peak_b) / 2.0
    lo, hi = min(peak_a, peak_b), max(peak_a, peak_b)
    grid = np.linspace(lo, hi, _UNIMODALITY_SWEEP_POINTS)
    vals = noiseless_overall_utility(grid, inst)
    interior_max = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    if int(interior_max.sum()) > 1:
        warnings.warn(
            "overall accuracy looks multimodal on the bracket; "
            "the reported optimum may only be local",
            UnimodalityWarning,
            stacklevel=2,
        )
    xatol = 1e-10 * _ROOT_2PI * max(inst.sigma_a, inst.sigma_b)
    return _golden_section_max(
        lambda x: noiseless_overall_utility(x, inst), lo, hi, xatol
    )


def noisy_fair_utility(inst: GaussianInstance) -> float:
    """Accuracy of the zero threshold through the noisy channel, closed form.

    When the noise level covers both cost scales (sigma >= max cost scale),
    no contestant in either group can profit from moving, both groups are
    served identically, and the accuracy is t^2/(sqrt(2 pi (sigma^2 + t^2)) d)
    plus the 1/2 baseline.  Below that noise level the value is still
    computable but the fairness and no-move claims are void, so it warns.
    """
    if inst.sigma < max(inst.sigma_a, inst.sigma_b):
        warnings.warn(
            "noise level is below the larger cost scale; the no-move and "
            "fairness guarantees behind this closed form do not apply",
            RegimeWarning,
            stacklevel=2,
        )
    var = inst.sigma**2 + inst.t**2
    return inst.t**2 / (math.sqrt(2.0 * math.pi * var) * inst.d) + 0.5


@dataclass(frozen=True)
class NoiseBenefit:
    """Noiseless-vs-noisy accuracy comparison at each channel's optimum."""

    u_noiseless_star: float
    u_noisy_star: float
    noise_wins: bool


def compare_noise_benefit(inst: GaussianInstance) -> NoiseBenefit:
    """Does observation noise help the institution on this instance?

    Requires equal shares, where the noiseless optimum is the midpoint of
    the group peaks and has a closed form; the noisy side is the fair zero
    threshold.  Noise wins when blurring the features costs less accuracy
    than strategic manipulation does.
    """
    if inst.s_a != inst.s_b:
        raise ValidationError("the closed-form comparison needs equal shares")
    half_gap = _ROOT_2PI * (inst.sigma_a - inst.sigma_b) / 2.0
    u_noiseless = (
        inst.t / (_ROOT_2PI * inst.d) * math.exp(-(half_gap**2) / (2.0 * inst.t**2))
        + 0.5
    )
    u_noisy = noisy_fair_utility(inst)
    return NoiseBenefit(
        u_noiseless_star=u_noiseless,
        u_noisy_star=u_noisy,
        noise_wins=u_noisy > u_noiseless,
    )


@dataclass(frozen=True, eq=False)
class DiscretizedInstance:
    """A Gaussian instance projected onto a finite grid, with error budgets.

    ``approx_budget`` bounds the gap between the clamped ramp actually used
    and the unclamped one behind the closed forms; ``tolerance`` adds the
    discretization term 2/n * (L/d) and is what simulation-vs-closed-form
    comparisons should use.
    """

    inst: GaussianInstance
    scenario: SubpopulationScenario
    approx_budget: float
    tolerance: float
    grid_step: float
    half_width: float


def _symmetric_grid(half_width: float, n: int) -> np.ndarray:
    half = np.linspace(0.0, half_width, (n + 1) // 2)
    return np.concatenate((-half[:0:-1], half))


def discretize_instance(inst: GaussianInstance, n: int = 401) -> DiscretizedInstance:
    """Project the continuous instance onto an odd symmetric grid.

    The grid spans [-L, L] with L = 8 sqrt(t^2 + sigma^2)
    (wide enough that the truncated tail mass is negligible), contains 0
    exactly, and discretizes the feature density by integrating it over the
    cells between neighbouring midpoints.  Group costs use the linear family
    and the kernel integrates the observation noise the same way.  Sizes
    whose dense matrices would exceed ``DENSE_BYTES_LIMIT`` are refused
    before anything is allocated.
    """
    if n < 201 or n % 2 == 0:
        raise ValidationError("n: need an odd grid size of at least 201")
    _require_dense_fits(n, 3 if inst.sigma > 0 else 2)
    half_width = _GRID_HALFWIDTH_MULT * math.hypot(inst.t, inst.sigma)
    points = _symmetric_grid(half_width, n)
    space = FeatureSpace(points)

    pi = np.diff(ndtr(_cell_edges(points) / inst.t))
    pi = pi / pi.sum()
    h = np.clip(points / (2.0 * inst.d) + 0.5, 0.0, 1.0)
    pop = Population(space, pi, h)

    cost_a = shift_cost(space, points / (_ROOT_2PI * inst.sigma_a))
    cost_b = shift_cost(space, points / (_ROOT_2PI * inst.sigma_b))
    scenario = SubpopulationScenario(
        pop=pop,
        shares=np.array([inst.s_a, inst.s_b]),
        cost_fns=(cost_a, cost_b),
        kernel=NoiseKernel.gaussian(space, inst.sigma),
        labels=("A", "B"),
    )
    budget = (
        2.0
        * inst.t
        * math.exp(-(inst.d**2) / (2.0 * inst.t**2))
        / (_ROOT_2PI * inst.d)
    )
    tolerance = (2.0 / n) * (half_width / inst.d) + budget
    return DiscretizedInstance(
        inst=inst,
        scenario=scenario,
        approx_budget=budget,
        tolerance=tolerance,
        grid_step=float(points[1] - points[0]),
        half_width=half_width,
    )
