"""Equilibrium analysis for the institution's side of the game.

Once contestants pool on their best-response targets, each target point y
carries a signed mass m(y): the accuracy gained per unit of acceptance
probability at y.  A classifier is an institution equilibrium iff no
unilateral change of any acceptance probability raises utility, which the
pooled mass characterises sign by sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import best_response, utility
from .model import Classifier, CostFunction, Population
from .solvers import solve_deterministic

__all__ = [
    "DeviationReport",
    "StabilityCheck",
    "pooled_mass",
    "best_deviation",
    "is_equilibrium",
    "derandomize",
    "stability_check",
]

# Pooled mass within this distance of zero counts as no profitable change.
_EQUILIBRIUM_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Most profitable unilateral change of the acceptance probabilities."""

    g: Classifier
    gain: float


@dataclass(frozen=True, eq=False)
class StabilityCheck:
    """Equilibrium audit of a classifier against its deterministic rival."""

    u_f: float
    u_det_star: float
    equilibrium: bool
    u_derand: float | None
    violations: tuple[str, ...]


def pooled_mass(f: Classifier, pop: Population, c: CostFunction) -> np.ndarray:
    """m(y) = sum of pi(x) (2 h(x) - 1) over contestants pooling at y, read-only."""
    br = best_response(f, c)
    mass = np.zeros(pop.n)
    np.add.at(mass, br.target, pop.pi * (2.0 * pop.h - 1.0))
    # The pooled mass redistributes the full signed accuracy mass; anything
    # else indicates a broken best response.
    total = float(np.dot(pop.pi, 2.0 * pop.h - 1.0))
    if abs(float(mass.sum()) - total) > 1e-12:
        raise RuntimeError(f"pooled mass sums to {float(mass.sum())!r}, expected {total!r}")
    mass.flags.writeable = False
    return mass


def best_deviation(f: Classifier, pop: Population, c: CostFunction) -> DeviationReport:
    """Best response of the institution to the contestants' current pooling.

    Holding the pooling fixed, utility is linear in the acceptance
    probabilities with coefficients m(y): push to 1 where m is positive, to
    0 where negative, leave alone where zero.  The gain is nonnegative and
    zero exactly at equilibrium.  (The pooling itself may shift once the new
    classifier is published; this is the one-step audit, not a fixed point.)
    """
    m = pooled_mass(f, pop, c)
    g = f.probs.copy()
    g[m > 0] = 1.0
    g[m < 0] = 0.0
    gain = float(np.dot(g - f.probs, m))
    return DeviationReport(g=Classifier(f.space, g), gain=gain)


def is_equilibrium(f: Classifier, pop: Population, c: CostFunction) -> bool:
    """No acceptance probability can be profitably changed, to within 1e-9.

    Interior probabilities require |m| <= 1e-9; at the boundaries only the
    inward direction is available, so f = 1 tolerates positive mass and
    f = 0 tolerates negative mass.  Boundary classification is exact: a
    probability one ulp inside counts as interior.
    """
    m = pooled_mass(f, pop, c)
    p = f.probs
    tol = _EQUILIBRIUM_ATOL
    ok_interior = np.abs(m) <= tol
    ok = np.where(p == 1.0, m >= -tol, np.where(p == 0.0, m <= tol, ok_interior))
    return bool(np.all(ok))


def derandomize(f: Classifier) -> Classifier:
    """Round every acceptance probability below one down to zero.

    At equilibrium the rounded-down classifier achieves the same utility:
    interior probabilities only ever sit on pooled mass zero, where the
    acceptance level is payoff-irrelevant.
    """
    return Classifier(f.space, (f.probs == 1.0).astype(float))


def stability_check(f: Classifier, pop: Population, c: CostFunction) -> StabilityCheck:
    """Audit ``f``: equilibrium status and the claims equilibria must satisfy.

    A classifier that outperforms the deterministic optimum is expected to
    exist; the claim is that no such classifier is ever an equilibrium, and
    that derandomising an equilibrium loses no utility.  Violations of
    either claim are reported as strings rather than raised.
    """
    u_f = utility(f, pop, c)
    det = solve_deterministic(pop, c)
    eq = is_equilibrium(f, pop, c)
    violations: list[str] = []
    u_derand: float | None = None
    if eq:
        if u_f > det.objective + 1e-12:
            violations.append(
                f"an equilibrium beats the deterministic optimum: {u_f!r} > {det.objective!r}"
            )
        u_derand = utility(derandomize(f), pop, c)
        if not u_derand >= u_f - 1e-9:
            violations.append(
                f"derandomisation loses utility at equilibrium: {u_derand!r} < {u_f!r}"
            )
    return StabilityCheck(
        u_f=u_f,
        u_det_star=det.objective,
        equilibrium=eq,
        u_derand=u_derand,
        violations=tuple(violations),
    )
