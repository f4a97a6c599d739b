"""Best responses and the induced payoffs of the classification game.

The institution publishes a classifier ``f``; each contestant at grid point x
then moves to whichever point maximises acceptance probability net of the
manipulation cost, staying put unless a move is a strict improvement.  The
institution's utility is the accuracy it collects after everyone has moved,
and the cost of strategy is the manipulation spend of the qualified mass.
``_target_indices`` is the one generic best response and
:func:`subpop_accuracies` the one payoff computation; every other payoff, here
and in :mod:`stratclass.noise`, evaluates a one-group scenario with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    Classifier,
    CostFunction,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    _require_same_space,
    _single,
)

__all__ = [
    "BestResponse",
    "KnifeEdgeWarning",
    "SubpopReport",
    "best_response",
    "effective_acceptance",
    "subpop_accuracies",
    "utility",
    "strategy_cost",
    "efficiency",
    "KNIFE_EDGE_ATOL",
]

# Pairs whose gain sits this close to their cost are numerically knife-edge:
# the strict ">" in the best response can flip under one-ulp perturbations.
KNIFE_EDGE_ATOL = 1e-12


class KnifeEdgeWarning(UserWarning):
    """A gain ties its cost to within KNIFE_EDGE_ATOL; tie-break is in play."""


@dataclass(frozen=True, eq=False)
class BestResponse:
    """Where each grid point moves under a published classifier."""

    target: np.ndarray  # target[i] = index the contestant at i reports
    moved: np.ndarray  # boolean, target[i] != i

    def __post_init__(self):
        for name in ("target", "moved"):
            arr = getattr(self, name)
            arr = np.asarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _target_indices(values: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Best-response targets for acceptance values ``values`` and cost matrix.

    A move i -> j is available iff values[j] - values[i] exceeds
    costs[i, j] by more than KNIFE_EDGE_ATOL.  A gain that merely ties its
    cost must stay put, and a float pipeline cannot hold that line with an
    exact ">": kernel arithmetic wobbles saturated acceptance values by an
    ulp, which would turn cost-free sideways moves into phantom strict
    improvements.  So the comparison demands a margin no wider than the
    knife-edge band already flagged as untrustworthy; within the band the
    contestant stays and a KnifeEdgeWarning fires.  Among available moves
    (plus staying put) the contestant picks the highest value; ties go to
    the smallest grid index.  Because costs are nonnegative, any available
    move strictly beats staying, so the stay option only wins when no move
    is available.  ``values`` may also be a batch of shape ``(..., n)``.
    """
    q = values
    idx = np.arange(q.shape[-1])
    gains = q[..., None, :] - q[..., :, None]
    mask = gains > costs + KNIFE_EDGE_ATOL
    mask[..., idx, idx] = False

    near = (gains > 0) & (np.abs(gains - costs) < KNIFE_EDGE_ATOL)
    near[..., idx, idx] = False
    if np.any(near):
        i, j = [int(v[0]) for v in np.nonzero(near)[-2:]]
        warnings.warn(
            f"gain ties cost to within {KNIFE_EDGE_ATOL:g} for move {i} -> {j}; "
            "contestants inside this band stay put, but the outcome is "
            "sensitive to rounding",
            KnifeEdgeWarning,
            stacklevel=3,
        )

    cand = np.where(mask, q[..., None, :], -np.inf)
    best = cand.max(axis=-1)
    top = np.maximum(q, best)
    attain = cand == top[..., None]
    attain[..., idx, idx] |= q == top
    return attain.argmax(axis=-1)


def _check_noisy_classifier(
    f: Classifier, kernel: NoiseKernel | None, allow_randomized: bool
) -> None:
    # The deterministic-only policy belongs to the genuinely noisy game;
    # with no kernel these functions are the noiseless game, where
    # randomized classifiers are the whole point.
    if kernel is not None and not allow_randomized and not f.is_deterministic:
        raise ValidationError(
            "the noisy pipeline expects a deterministic classifier "
            "(pass allow_randomized=True to override)"
        )


def effective_acceptance(f: Classifier, kernel: NoiseKernel | None) -> np.ndarray:
    """Acceptance probability each signal faces once noise is applied.

    With no kernel this is ``f.probs`` itself; the identity kernel produces
    the same bits, so the noiseless game is the exact special case.
    """
    if kernel is None:
        return f.probs
    _require_same_space(f, kernel)
    return kernel.rows @ f.probs


def _respond(
    f: Classifier, kernel: NoiseKernel | None, c: CostFunction, allow_randomized: bool
) -> BestResponse:
    """Strict-improvement moves against the effective acceptance curve."""
    _check_noisy_classifier(f, kernel, allow_randomized)
    _require_same_space(f, c)
    target = _target_indices(effective_acceptance(f, kernel), c.costs)
    return BestResponse(target=target, moved=target != np.arange(f.space.n))


def best_response(f: Classifier, c: CostFunction) -> BestResponse:
    """Each point's strict-improvement move under classifier ``f``."""
    return _respond(f, None, c, True)


def _accuracy(pi: np.ndarray, h: np.ndarray, accepted: np.ndarray) -> float:
    """Expected accuracy when point i is accepted with probability accepted[i]."""
    return float(np.dot(pi, accepted * (2.0 * h - 1.0) + (1.0 - h)))


def _strategy_cost(
    pi: np.ndarray, h: np.ndarray, costs: np.ndarray, target: np.ndarray
) -> float:
    """Manipulation spend of the qualified mass under targets ``target``."""
    n = pi.size
    return float(np.dot(pi * h, costs[np.arange(n), target]))


@dataclass(frozen=True, eq=False)
class SubpopReport:
    """Per-group accuracy and manipulation spend under one classifier."""

    labels: tuple[str, ...]
    utilities: tuple[float, ...]
    costs: tuple[float, ...]
    utility: float  # share-weighted overall accuracy
    cost: float  # share-weighted overall manipulation spend
    gap: float  # spread between best- and worst-served group

    @property
    def efficiency(self) -> float:
        return self.utility - self.cost


def _subpop_report(
    scenario: SubpopulationScenario, q: np.ndarray, targets: list[np.ndarray]
) -> SubpopReport:
    """Reduce each group's targets against acceptance ``q`` to its payoffs."""
    pop = scenario.pop
    us = [_accuracy(pop.pi, pop.h, q[t]) for t in targets]
    ks = [
        _strategy_cost(pop.pi, pop.h, fn.costs, t)
        for fn, t in zip(scenario.cost_fns, targets)
    ]
    us_arr = np.array(us)
    ks_arr = np.array(ks)
    return SubpopReport(
        labels=scenario.labels,
        utilities=tuple(us),
        costs=tuple(ks),
        utility=float(np.dot(scenario.shares, us_arr)),
        cost=float(np.dot(scenario.shares, ks_arr)),
        gap=float(us_arr.max() - us_arr.min()),
    )


def subpop_accuracies(
    f: Classifier,
    scenario: SubpopulationScenario,
    allow_randomized: bool = False,
) -> SubpopReport:
    """Evaluate a classifier group by group on a subpopulation scenario."""
    _check_noisy_classifier(f, scenario.kernel, allow_randomized)
    _require_same_space(scenario.pop, f)
    q = effective_acceptance(f, scenario.kernel)
    targets = [_target_indices(q, fn.costs) for fn in scenario.cost_fns]
    return _subpop_report(scenario, q, targets)


def utility(f: Classifier, pop: Population, c: CostFunction) -> float:
    """Institution's expected accuracy after contestants best-respond."""
    return subpop_accuracies(f, _single(pop, c)).utility


def strategy_cost(f: Classifier, pop: Population, c: CostFunction) -> float:
    """Expected manipulation cost paid by qualified contestants."""
    return subpop_accuracies(f, _single(pop, c)).cost


def efficiency(
    f: Classifier, pop: Population, c: CostFunction, beta: float = 1.0
) -> float:
    """Utility minus ``beta`` times the cost of strategy, in one pass."""
    rep = subpop_accuracies(f, _single(pop, c))
    return rep.utility - beta * rep.cost
