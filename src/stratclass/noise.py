"""The game observed through a noisy feature channel, and threshold scans.

With a noise kernel in play, a contestant who reports signal x is observed at
x' with probability ``rows[x, x']``, so the published classifier ``f`` acts
on contestants through its effective acceptance curve q = rows @ f.
Contestants best-respond to q exactly as they would to a classifier.

The evaluation itself lives in :mod:`stratclass.game`; the ``noisy_*``
payoffs are one-group wrappers over it.  :func:`threshold_sweep` evaluates
every threshold cut of a subpopulation scenario with the same per-group
reduction, and :func:`solve_deterministic_noisy` is the one scan for the best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    KNIFE_EDGE_ATOL,
    BestResponse,
    SubpopReport,
    _respond,
    _subpop_report,
    _target_indices,
    effective_acceptance,
    subpop_accuracies,
)
from .model import (
    Classifier,
    CostFunction,
    NoiseKernel,
    Population,
    SolveReport,
    SubpopulationScenario,
    _single,
)

__all__ = [
    "SubpopReport",
    "SweepPoint",
    "effective_acceptance",
    "noisy_best_response",
    "noisy_utility",
    "noisy_strategy_cost",
    "noisy_efficiency",
    "subpop_accuracies",
    "threshold_sweep",
    "solve_deterministic_noisy",
]


def noisy_best_response(
    f: Classifier,
    kernel: NoiseKernel | None,
    c: CostFunction,
    allow_randomized: bool = False,
) -> BestResponse:
    """Strict-improvement moves against the effective acceptance curve."""
    return _respond(f, kernel, c, allow_randomized)


def noisy_utility(
    f: Classifier,
    pop: Population,
    kernel: NoiseKernel | None,
    c: CostFunction,
    allow_randomized: bool = False,
) -> float:
    """Expected accuracy through the channel after contestants respond."""
    return subpop_accuracies(f, _single(pop, c, kernel), allow_randomized).utility


def noisy_strategy_cost(
    f: Classifier,
    pop: Population,
    kernel: NoiseKernel | None,
    c: CostFunction,
    allow_randomized: bool = False,
) -> float:
    """Manipulation spend of the qualified mass through the channel."""
    return subpop_accuracies(f, _single(pop, c, kernel), allow_randomized).cost


def noisy_efficiency(
    f: Classifier,
    pop: Population,
    kernel: NoiseKernel | None,
    c: CostFunction,
    *,
    allow_randomized: bool = False,
) -> float:
    """Accuracy minus manipulation spend, through the channel."""
    return subpop_accuracies(f, _single(pop, c, kernel), allow_randomized).efficiency


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One threshold candidate's payoffs along a sweep."""

    tau: float
    strict: bool
    start: int  # first accepted grid index (n means all-reject)
    utility: float
    cost: float
    efficiency: float
    subpop_utilities: tuple[float, ...]
    subpop_costs: tuple[float, ...]
    gap: float


def _fast_path_ok(c: CostFunction) -> bool:
    """Whether :func:`_fast_threshold_targets` may answer for ``c``.

    The matrix test flags a separable pair only if a[j] - a[i] lies within
    KNIFE_EDGE_ATOL + eps of 1, and each bound of the sorted search errs by
    under 3 eps (1 + max|a|) / 2, so ``slack`` covers both.  A refused safe
    cost only takes the generic path, to the same targets and warnings.
    """
    a = c._a
    if a is None:
        rows_monotone = bool(np.all(np.diff(c.costs, axis=1) >= 0.0))
        return rows_monotone and not np.any(np.abs(c.costs - 1.0) < KNIFE_EDGE_ATOL)
    slack = 4.0 * np.finfo(float).eps * (1.0 + np.abs(a).max())
    with np.errstate(over="ignore"):  # an infinite bound only widens the window
        lo = np.searchsorted(a, a + (1.0 - KNIFE_EDGE_ATOL - slack))
        hi = np.searchsorted(a, a + (1.0 + KNIFE_EDGE_ATOL + slack), side="right")
    return not np.any(hi > lo)


def _fast_threshold_targets(c: CostFunction, start: int) -> np.ndarray:
    """Best response to a noiseless suffix classifier under monotone rows.

    Everyone below the threshold whose first accepted point costs under the
    unit gain (read through ``c.at``) jumps there; that point is the
    cheapest accepted one and the smallest index.  This matches the generic
    path when no cost lies within KNIFE_EDGE_ATOL of the unit gain, where it
    would warn.  A tabular cost is tested on its matrix; a separable cost has
    monotone rows by construction, and a sorted search on ``a`` looks for
    a[j] near a[i] + 1 (:func:`_fast_path_ok`).
    """
    target = np.arange(c.n)
    if 0 < start < c.n:
        # the same banded comparison _target_indices applies, with gain = 1.0
        movers = 1.0 > c.at(target[:start], start) + KNIFE_EDGE_ATOL
        target[:start][movers] = start
    return target


def threshold_sweep(scenario: SubpopulationScenario) -> tuple[SweepPoint, ...]:
    """Evaluate every threshold acceptance set on a scenario, bottom up.

    Returns one point per distinct acceptance suffix (n + 1 in all), from
    accept-all (``start`` = 0) up.  Each is labelled by the first (tau,
    strict) pair that produces it: ``(points[0], False)`` for accept-all and
    ``(points[start - 1], True)`` for every other cut.  Without noise, a
    cost that passes :func:`_fast_path_ok` (on its matrix if tabular, on
    ``a`` if separable) takes the fast path; the rest take the generic one.
    """
    space = scenario.space
    n = space.n
    kernel = scenario.kernel
    fast_ok = [kernel is None and _fast_path_ok(fn) for fn in scenario.cost_fns]

    out: list[SweepPoint] = []
    for start in range(n + 1):
        probs = np.zeros(n)
        probs[start:] = 1.0
        q = probs if kernel is None else kernel.rows @ probs
        targets = [
            _fast_threshold_targets(fn, start)
            if fast
            else _target_indices(q, fn)
            for fast, fn in zip(fast_ok, scenario.cost_fns)
        ]
        rep = _subpop_report(scenario, q, targets)
        out.append(
            SweepPoint(
                tau=float(space.points[max(start - 1, 0)]),
                strict=start > 0,
                start=start,
                utility=rep.utility,
                cost=rep.cost,
                efficiency=rep.efficiency,
                subpop_utilities=rep.utilities,
                subpop_costs=rep.costs,
                gap=rep.gap,
            )
        )
    return tuple(out)


def solve_deterministic_noisy(
    scenario: SubpopulationScenario, objective: str = "utility"
) -> SolveReport:
    """Best threshold on a (possibly noisy) subpopulation scenario.

    ``objective`` is ``"utility"`` or ``"efficiency"``.  Scans the sweep
    from the most permissive acceptance set down and keeps the first strict
    improvement, then re-evaluates the winner through
    :func:`subpop_accuracies` so the reported numbers match a standalone
    evaluation bit for bit.
    """
    if objective not in ("utility", "efficiency"):
        raise ValueError(f"objective must be 'utility' or 'efficiency', got {objective!r}")
    return _best_threshold(scenario, threshold_sweep(scenario), objective)


def _best_threshold(
    scenario: SubpopulationScenario, points: tuple[SweepPoint, ...], objective: str
) -> SolveReport:
    """The scan of :func:`solve_deterministic_noisy` over a sweep in hand."""
    best = points[0]
    for p in points[1:]:
        if getattr(p, objective) > getattr(best, objective):
            best = p
    clf = Classifier.threshold(scenario.space, best.tau, strict=best.strict)
    report = subpop_accuracies(clf, scenario)
    return SolveReport(
        classifier=clf,
        objective=getattr(report, objective),
        method="enumeration",
        tau=best.tau,
        strict=best.strict,
        details={"report": report},
    )
