"""Optimisers for the institution's side of the game.

Four solvers, in increasing generality:

- ``solve_deterministic``: exhaustive search over threshold classifiers,
  which contain a utility-optimal deterministic classifier on a monotone
  population.
- ``project_lipschitz``: the cost-covering envelope of an arbitrary
  classifier; never worse on efficiency, and immune to gaming.
- ``solve_efficiency_lp``: exact linear program for the best cost-covering
  (hence best overall) randomised classifier.  Only it needs
  ``scipy.optimize`` and ``scipy.sparse``; they load on the first LP solve,
  so a process that solves no LP never imports them.  ``scipy.optimize``
  brings ``scipy.special`` with it, which otherwise loads only with
  ``model.ndtr``, on the first Gaussian grid or kernel.
- ``grid_oracle``: brute force over a discretised classifier space, used to
  cross-check the others at desk scale.
"""

from __future__ import annotations

import itertools

import numpy as np

from .game import _target_indices, efficiency
from .model import (
    Classifier,
    CostFunction,
    Population,
    SolveReport,
    ValidationError,
    _require_same_space,
    _single,
)
from .noise import solve_deterministic_noisy

__all__ = [
    "solve_deterministic",
    "project_lipschitz",
    "solve_efficiency_lp",
    "grid_oracle",
    "LP_MAX_POINTS",
    "ORACLE_MAX_POINTS",
    "ORACLE_MAX_RESOLUTION",
]

LP_MAX_POINTS = 200
ORACLE_MAX_POINTS = 5
ORACLE_MAX_RESOLUTION = 21
# Classifiers scored per batch in grid_oracle, to bound its temporaries.
_ORACLE_CHUNK = 50_000


def solve_deterministic(pop: Population, c: CostFunction) -> SolveReport:
    """Utility-maximising threshold classifier, found by enumeration.

    On a monotone population some threshold is utility-optimal among all
    deterministic classifiers.  Ties prefer the lowest threshold (the most
    permissive acceptance set), scanned bottom-up.  This is the one-group,
    noiseless :func:`solve_deterministic_noisy`, so an interior cut at index k
    is labelled ``(points[k - 1], strict=True)``, like the sweep.
    """
    return solve_deterministic_noisy(_single(pop, c))


def project_lipschitz(f: Classifier, c: CostFunction) -> Classifier:
    """Cost-covering envelope g(x) = max_y f(y) - c(x, y).

    The result never rewards any strategic move (so nobody moves under it),
    and its efficiency is at least that of ``f``.  Applying the
    projection twice returns the same classifier.
    """
    _require_same_space(f, c)
    g = (f.probs[None, :] - c.costs).max(axis=1)
    np.clip(g, 0.0, 1.0, out=g)
    return Classifier(f.space, g)


def _snap_lipschitz(g: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Nudge ``g`` down by ulps until every pairwise gain is covered exactly.

    LP vertices satisfy the cost constraints only to solver precision; a
    one-ulp overshoot would hand some contestant a strict (if microscopic)
    incentive to move, which can change the re-evaluated payoff by a whole
    jump.  This repair is exact in float arithmetic, not merely to tolerance.
    """
    g = g.copy()
    n = g.size
    for _ in range(64):
        gaps = g[None, :] - g[:, None]
        np.fill_diagonal(gaps, -np.inf)
        viol = np.argwhere(gaps > costs)
        if viol.size == 0:
            break
        for i, j in viol:
            cap = g[i] + costs[i, j]
            while cap - g[i] > costs[i, j]:
                cap = np.nextafter(cap, -np.inf)
            if g[j] > cap:
                g[j] = cap
        np.clip(g, 0.0, 1.0, out=g)
    else:
        raise RuntimeError("could not repair LP vertex to an exactly covered classifier")
    return g


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    :func:`solve_efficiency_lp` looks this name up at each call, so a
    wrapper set on the module sees every solve.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def solve_efficiency_lp(pop: Population, c: CostFunction) -> SolveReport:
    """Best cost-covering randomised classifier, by linear programming.

    Maximises expected accuracy over classifiers whose pairwise gains are all
    covered by the manipulation cost.  Under such a classifier nobody moves,
    so the objective equals both utility and efficiency; this is the global
    efficiency optimum over **all** classifiers, randomised or not.  For a
    weighted objective U - beta C use :func:`grid_oracle`.

    The optimum is often a face, not a point; a second solve picks the most
    accepting vertex of that face, mirroring the permissive tie-break of
    :func:`solve_deterministic`.  Should that solve fail, the first solve's
    vertex is kept and ``details["tie_break_success"]`` is False.
    """
    space = _require_same_space(pop, c)
    n = space.n
    if n > LP_MAX_POINTS:
        raise ValidationError(
            f"the efficiency linear program is capped at LP_MAX_POINTS = "
            f"{LP_MAX_POINTS} grid points; this scenario has {n}"
        )

    # Variables g[0..n-1]; maximise sum pi (2h - 1) g  subject to
    # g[j] - g[i] <= c[i, j] for all pairs, 0 <= g <= 1.  Constraints with
    # cost >= 1 can never bind and are pruned.
    weights = pop.pi * (2.0 * pop.h - 1.0)
    rows_i, rows_j = np.nonzero(c.costs < 1.0)
    keep = rows_i != rows_j
    rows_i, rows_j = rows_i[keep], rows_j[keep]
    m = rows_i.size
    if m:
        from scipy.sparse import csr_matrix

        data = np.empty(2 * m)
        data[0::2] = 1.0
        data[1::2] = -1.0
        indices = np.empty(2 * m, dtype=int)
        indices[0::2] = rows_j
        indices[1::2] = rows_i
        indptr = np.arange(0, 2 * m + 1, 2)
        a_ub = csr_matrix((data, indices, indptr), shape=(m, n))
        b_ub = c.costs[rows_i, rows_j]
    else:
        a_ub = None
        b_ub = None
    res = linprog(
        -weights, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n, method="highs"
    )
    if not res.success:
        raise RuntimeError(f"efficiency LP failed: {res.message}")
    # Tie-break pass: maximise total acceptance over the optimal face.
    tie = linprog(
        -np.ones(n),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=weights[None, :],
        b_eq=np.array([-res.fun]),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    x = tie.x if tie.success else res.x
    g = _snap_lipschitz(np.clip(x, 0.0, 1.0), c.costs)
    clf = Classifier(space, g)
    # Report the payoff the game actually assigns, not the raw LP objective.
    value = efficiency(clf, pop, c)
    return SolveReport(
        classifier=clf,
        objective=value,
        method="lp",
        details={
            "lp_objective": float(-res.fun + np.dot(pop.pi, 1.0 - pop.h)),
            "tie_break_success": bool(tie.success),
        },
    )


def grid_oracle(
    pop: Population,
    c: CostFunction,
    resolution: int = 10,
    beta: float = 1.0,
    monotone_only: bool = False,
) -> SolveReport:
    """Exhaustive search over classifiers on a probability grid.

    Enumerates every classifier whose acceptance probabilities are multiples
    of 1/resolution (optionally only the monotone ones) and returns the
    efficiency maximiser at the given beta.  Intentionally brute force: this
    is the ground truth the clever solvers are tested against.  Guarded to
    desk scale.
    """
    space = _require_same_space(pop, c)
    n = space.n
    if n > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle is capped at {ORACLE_MAX_POINTS} grid points (got {n})")
    if resolution < 1 or resolution > ORACLE_MAX_RESOLUTION:
        raise ValueError(f"resolution must be in 1..{ORACLE_MAX_RESOLUTION}")
    levels = np.linspace(0.0, 1.0, resolution + 1)

    def batches():
        if monotone_only:
            combos = itertools.combinations_with_replacement(range(resolution + 1), n)
            it = iter(combos)
            while True:
                block = list(itertools.islice(it, _ORACLE_CHUNK))
                if not block:
                    return
                yield levels[np.array(block, dtype=int)]
        else:
            total = (resolution + 1) ** n
            base = resolution + 1
            place = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
            for lo in range(0, total, _ORACLE_CHUNK):
                codes = np.arange(lo, min(lo + _ORACLE_CHUNK, total), dtype=np.int64)
                digits = (codes[:, None] // place[None, :]) % base
                yield levels[digits]

    pi, h, costs = pop.pi, pop.h, c.costs
    idx = np.arange(n)
    best_val = -np.inf
    best_probs: np.ndarray | None = None
    for probs in batches():
        target = _target_indices(probs, costs)
        accepted = np.take_along_axis(probs, target, axis=1)
        u = accepted @ (pi * (2.0 * h - 1.0)) + np.dot(pi, 1.0 - h)
        k = costs[idx[None, :], target] @ (pi * h)
        vals = u - beta * k
        b = int(np.argmax(vals))
        if vals[b] > best_val:
            best_val = float(vals[b])
            best_probs = probs[b].copy()
    clf = Classifier(space, best_probs)
    return SolveReport(
        classifier=clf,
        objective=best_val,
        method="grid_oracle",
        details={"resolution": resolution, "beta": beta, "monotone_only": monotone_only},
    )
