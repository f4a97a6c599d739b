"""Optimisers for the institution's side of the game.

Four solvers, in increasing generality:

- ``solve_deterministic``: exhaustive search over threshold classifiers,
  which contain a utility-optimal deterministic classifier on a monotone
  population.
- ``project_lipschitz``: the cost-covering envelope of an arbitrary
  classifier; never worse on efficiency, and immune to gaming.
- ``solve_efficiency_lp``: exact linear program for the best cost-covering
  (hence best overall) randomised classifier.  A tabular cost's LP is
  solved as its dual min-cost flow, in numpy.  Only a separable cost's LP
  calls HiGHS, so only it needs ``scipy.optimize`` and ``scipy.sparse``;
  they load on the first such solve, so a process that solves none never
  imports them.  ``scipy.optimize`` brings ``scipy.special`` with it, which
  otherwise loads only with ``model.ndtr``, on the first Gaussian grid or
  kernel.
- ``grid_oracle``: brute force over a discretised classifier space, used to
  cross-check the others at desk scale.
"""

from __future__ import annotations

import itertools
import math

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


def _snap_lipschitz(g: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, int]:
    """Nudge ``g`` down by ulps until every pairwise gain is covered exactly.

    LP vertices satisfy the cost constraints only to solver precision; a
    one-ulp overshoot would hand some contestant a strict (if microscopic)
    incentive to move, which can change the re-evaluated payoff by a whole
    jump.  This repair is exact in float arithmetic, not merely to tolerance.
    Returns the repaired copy and the number of passes that found a gap.
    """
    g = g.copy()
    for rounds in range(64):
        gaps = g[None, :] - g[:, None]
        np.fill_diagonal(gaps, -np.inf)
        viol = np.argwhere(gaps > costs)
        if viol.size == 0:
            return g, rounds
        for i, j in viol:
            cap = g[i] + costs[i, j]
            while cap - g[i] > costs[i, j]:
                cap = np.nextafter(cap, -np.inf)
            if g[j] > cap:
                g[j] = cap
        np.clip(g, 0.0, 1.0, out=g)
    raise RuntimeError("could not repair LP vertex to an exactly covered classifier")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Only a separable cost's LP calls it (twice a solve).
    :func:`solve_efficiency_lp` looks this name up at each call, so a
    wrapper set on the module sees every solve.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _efficiency_flow(weights: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Top of the efficiency LP's optimal face, through its dual min-cost flow.

    The LP max w.g s.t. g_j - g_i <= c_ij, 0 <= g <= 1 is dual to a flow on
    n + 1 nodes (Ahuja, Magnanti & Orlin, *Network Flows*, 1993).  Anchor 0
    has an arc 0 -> i of cost 1 (g_i <= 1) and an arc i -> 0 of cost 0
    (g_i >= 0); each pair has an arc i -> j of cost c_ij where c_ij < 1 (a
    dearer one never binds, since i -> 0 -> j costs 1).  Node i + 1 has
    supply -w_i.  Successive shortest paths ship the supplies: Dijkstra on
    reduced costs clamped at 0 (rounding leaves arcs of a used path a few
    ulps negative), then augment along the path to the nearest deficit.

    Every optimal g satisfies complementary slackness with the optimal flow,
    so the optimal face is the set of potentials feasible on the final
    residual graph: a lattice whose top is the vector of shortest distances
    from the anchor.  One synchronous Bellman-Ford computes it as the
    shortest walks of at most n arcs, which ends even where rounding leaves
    a zero-length cycle (every downward arc costs 0) an ulp negative.

    The supplies are floats, so each is an integer multiple of 2**-k for
    the largest k among them.  Excesses and flows are kept as those integers
    (Python ints), so every augmentation is exact: no flow is left an ulp
    above zero to pin a constraint that should be slack, and the tolerance
    on leftover supply that the supplies allow is exactly zero.

    Returns the unclipped top g, the flow's cost (the LP's optimal w.g by
    duality) and the number of augmentations.
    """
    n = weights.size
    size = n + 1
    length = np.full((size, size), np.inf)
    length[0, 1:] = 1.0
    length[1:, 0] = 0.0
    length[1:, 1:] = np.where(costs < 1.0, costs, np.inf)
    np.fill_diagonal(length, np.inf)
    # residual[u, v]: the cheaper residual arc u -> v.  Cancelling flow on
    # v -> u costs -length[v, u] <= 0 <= length[u, v], so it wins while the
    # flow lasts (0.0 - x keeps a zero-cost arc's reverse at +0.0).
    residual = length.copy()
    fractions = [x.as_integer_ratio() for x in (-weights).tolist()]
    unit = max((d for _, d in fractions), default=1)
    excess = [0] + [num * (unit // den) for num, den in fractions]
    excess[0] = -sum(excess)
    flow = [[0] * size for _ in range(size)]
    potential = np.zeros(size)
    nodes = np.arange(size)
    augmentations = 0
    while True:
        source = next((v for v in range(size) if excess[v] > 0), None)
        if source is None:
            break
        deficit = np.array([e < 0 for e in excess])
        reduced = residual + potential[:, None] - potential[None, :]
        np.maximum(reduced, 0.0, out=reduced)
        key = np.full(size, np.inf)
        key[source] = 0.0
        pred = np.full(size, -1)
        step = np.full(size, np.inf)
        # Dijkstra that settles every node at the current least key at once:
        # zero reduced costs, common along earlier paths, make many ties.
        while True:
            d = key.min()
            batch = np.flatnonzero(key == d)
            hit = batch[deficit[batch]]
            if hit.size:
                break
            step[batch] = d
            key[batch] = np.inf
            reduced[:, batch] = np.inf
            block = reduced[batch] + d
            via = block.argmin(axis=0)
            cand = block[via, nodes]
            better = cand < key
            key[better] = cand[better]
            pred[better] = batch[via[better]]
        u = int(hit[0])
        # settled nodes move by their distance, the rest by d: reduced costs stay >= 0
        potential += np.minimum(step, d)
        path = []
        v = u
        while v != source:
            path.append((int(pred[v]), v))
            v = path[-1][0]
        delta = min(excess[source], -excess[u])
        for a, b in path:
            if flow[b][a]:
                delta = min(delta, flow[b][a])
        for a, b in path:
            if flow[b][a]:
                flow[b][a] -= delta
                if not flow[b][a]:
                    residual[a, b] = length[a, b]
            else:
                if not flow[a][b]:
                    residual[b, a] = 0.0 - length[a, b]
                flow[a][b] += delta
        excess[source] -= delta
        excess[u] += delta
        augmentations += 1
    cost = math.fsum(
        x / unit * length[a, b] for a, row in enumerate(flow) for b, x in enumerate(row) if x
    )
    # no walk re-enters the anchor, so its distance stays 0
    residual[:, 0] = np.inf
    top = residual[0].copy()
    top[0] = 0.0
    for _ in range(n - 1):
        nxt = np.minimum(top, (top[:, None] + residual).min(axis=0))
        if np.array_equal(nxt, top):
            break
        top = nxt
    return top[1:], cost, augmentations


def solve_efficiency_lp(pop: Population, c: CostFunction) -> SolveReport:
    """Best cost-covering randomised classifier, by linear programming.

    Maximises expected accuracy over classifiers whose pairwise gains are all
    covered by the manipulation cost.  Under such a classifier nobody moves,
    so the objective equals both utility and efficiency; this is the global
    efficiency optimum over **all** classifiers, randomised or not.  For a
    weighted objective U - beta C use :func:`grid_oracle`.

    The optimum is often a face, not a point; the solver returns its most
    accepting vertex (its top), mirroring the permissive tie-break of
    :func:`solve_deterministic`.  The cost's representation picks the
    solver:

    - a tabular cost runs :func:`_efficiency_flow`, the LP's dual min-cost
      flow, whose top is exact up to path-sum rounding; ``details`` holds
      its ``augmentations``.
    - a separable cost (:func:`shift_cost`) runs HiGHS through
      :func:`linprog`, twice: the second solve picks the top of the first
      one's face.  Should it fail, the first vertex is kept.  ``details``
      holds ``lp_objective`` and ``tie_break_success``.

    Either vertex is repaired by :func:`_snap_lipschitz`, whose passes
    ``details["snap_rounds"]`` counts.
    """
    space = _require_same_space(pop, c)
    n = space.n
    if n > LP_MAX_POINTS:
        raise ValidationError(
            f"the efficiency linear program is capped at LP_MAX_POINTS = "
            f"{LP_MAX_POINTS} grid points; this scenario has {n}"
        )
    weights = pop.pi * (2.0 * pop.h - 1.0)
    if c._a is None:
        top, _, augmentations = _efficiency_flow(weights, c.costs)
        details = {"augmentations": augmentations}
    else:
        top, details = _efficiency_highs(weights, c.costs)
        details["lp_objective"] += float(np.dot(pop.pi, 1.0 - pop.h))
    g, details["snap_rounds"] = _snap_lipschitz(np.clip(top, 0.0, 1.0), c.costs)
    clf = Classifier(space, g)
    # Report the payoff the game actually assigns, not the raw LP objective.
    value = efficiency(clf, pop, c)
    return SolveReport(classifier=clf, objective=value, method="lp", details=details)


def _efficiency_highs(weights: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, dict]:
    """The LP's top vertex by two HiGHS solves, and their ``details``."""
    n = weights.size
    # Constraints with cost >= 1 can never bind and are pruned.
    rows_i, rows_j = np.nonzero(costs < 1.0)
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
        b_ub = costs[rows_i, rows_j]
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
    details = {"lp_objective": float(-res.fun), "tie_break_success": bool(tie.success)}
    return (tie.x if tie.success else res.x), details


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
