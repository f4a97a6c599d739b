"""The game observed through a noisy feature channel, and threshold scans.

With a noise kernel in play, a contestant who reports signal x is observed at
x' with probability ``rows[x, x']``, so the published classifier ``f`` acts
on contestants through its effective acceptance curve q = rows @ f.
Contestants best-respond to q exactly as they would to a classifier.

The evaluation itself lives in :mod:`stratclass.game`; the ``noisy_*``
payoffs are one-group wrappers over it.  :func:`threshold_sweep` evaluates
every threshold cut of a subpopulation scenario, and
:func:`solve_deterministic_noisy` is the one scan for the best.  A sweep
builds one per-group reduction (:class:`~stratclass.game._Payoffs`: w = 2h - 1,
v = 1 - h, pi h and a buffer per group) and reduces every cut through it, each
group's accuracy and spend one dot product a cut.  Without noise and under
monotone costs the fast path finds each cut's movers as one index range and
rewrites only what changed in reused buffers; with noise every cut still
takes its own best responses.

A noisy sweep does not take one matvec per cut.  It reads each cut's curve
off one cumulative sum over the kernel's columns, and keeps a best response
to that curve only when it certifies that the matvec's curve gives the same
targets; only a separable cost certifies, so a sweep with a tabular group
takes the matvec at every cut.  The cost-free downward half of those best
responses is computed once per block of cuts and shared by the groups.  The
best threshold for either objective and every point that falls back are bit
for bit what the matvec scan gives.  :func:`threshold_sweep` derives the
certificate's slack, the utility error bound and the grid size from which
every cut falls back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    KNIFE_EDGE_ATOL,
    _UNIT,
    BestResponse,
    SubpopReport,
    _accuracy,
    _downward,
    _Payoffs,
    _respond,
    _strategy_cost,
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
    "SweepPoint",
    "noisy_best_response",
    "noisy_utility",
    "noisy_strategy_cost",
    "noisy_efficiency",
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
class SweepPoint(SubpopReport):
    """One threshold candidate along a sweep: its cut's :class:`SubpopReport`, and the cut."""

    tau: float
    strict: bool
    start: int  # first accepted grid index (n means all-reject)


def _fast_path_ok(c: CostFunction) -> bool:
    """Whether :func:`_fast_threshold_targets` may answer for ``c``.

    A tabular cost needs nondecreasing rows, columns nonincreasing going
    down (the upper triangle's, since the rest is +0.0), and no entry within
    KNIFE_EDGE_ATOL of the unit gain.  A separable cost has both monotone
    rows and columns by construction; the matrix test flags it only if
    a[j] - a[i] lies within KNIFE_EDGE_ATOL + eps of 1, and each bound of
    the sorted search errs by under 3 eps (1 + max|a|) / 2, so ``slack``
    covers both; ``a`` is nondecreasing, so max|a| sits at one of its ends.
    A refused safe cost only takes the generic path, to the same targets
    and warnings.
    """
    a = c._a
    if a is None:
        costs = c.costs
        monotone = np.all(np.diff(costs, axis=1) >= 0.0) and np.all(np.diff(costs, axis=0) <= 0.0)
        return bool(monotone) and not np.any(np.abs(costs - 1.0) < KNIFE_EDGE_ATOL)
    slack = 4.0 * np.finfo(float).eps * (1.0 + max(-a[0], a[-1]))
    with np.errstate(over="ignore"):  # an infinite bound only widens the window
        lo = np.searchsorted(a, a + (1.0 - KNIFE_EDGE_ATOL - slack))
        hi = np.searchsorted(a, a + (1.0 + KNIFE_EDGE_ATOL + slack), side="right")
    return not np.any(hi > lo)


def _first_movers(c: CostFunction) -> list[int]:
    """first[s], the first contestant who jumps to cut s, for s = 0..n.

    Contestant i < s jumps to a noiseless suffix classifier with first
    accepted index s iff 1.0 > fl(c(i, s) + KNIFE_EDGE_ATOL), the banded
    comparison :func:`~stratclass.game._target_indices` applies with gain
    1.0.  Under :func:`_fast_path_ok` c(i, s) is nonincreasing in i, and so
    is its rounded sum, so the jumpers are the range [first[s], s); first[s]
    = s when nobody jumps, as at cuts 0 and n.  All cuts are bisected at
    once through ``c.at``, O(n log n) for a separable or a tabular cost.
    Rows nondecreasing make first nondecreasing in s.
    """
    n = c.n
    cut = np.arange(1, n)
    lo = np.zeros(n - 1, dtype=np.intp)
    hi = cut.copy()  # c(s, s) = +0.0 jumps, so the test holds at hi throughout
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        jumps = 1.0 > c.at(mid, cut) + KNIFE_EDGE_ATOL
        hi = np.where(jumps, mid, hi)
        lo = np.where(jumps, lo, mid + 1)
    return [0, *hi.tolist(), n]


def _fast_threshold_targets(
    c: CostFunction, first: list[int], start: int
) -> tuple[int, np.ndarray]:
    """Who jumps to a noiseless suffix classifier under monotone costs, at what cost.

    Returns ``first[start]`` from :func:`_first_movers` and the costs
    ``c.at(slice(first[start], start), start)`` of the contestants in
    [first[start], start); each of them jumps to ``start``, the cheapest
    accepted point and the smallest index, and everyone else stays.  This
    matches the generic path when no cost lies within KNIFE_EDGE_ATOL of
    the unit gain, where it would warn (:func:`_fast_path_ok`).
    """
    low = first[start]
    if low == start:
        return low, _NO_COSTS
    return low, c.at(slice(low, start), start)


_NO_COSTS = np.zeros(0)

# cuts whose cheap curves are built together; one block holds n x 64 floats
_CUT_BLOCK = 64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the bound of a k-term float sum."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _cut_point(
    payoffs: _Payoffs, taus: list[float], start: int, us: list[float], ks: list[float]
) -> SweepPoint:
    return SweepPoint(*payoffs.totals(us, ks), taus[max(start - 1, 0)], start > 0, start)


def threshold_sweep(scenario: SubpopulationScenario) -> tuple[SweepPoint, ...]:
    """Evaluate every threshold acceptance set on a scenario, bottom up.

    Returns one point per distinct acceptance suffix (n + 1 in all), from
    accept-all (``start`` = 0) up.  Each is labelled by the first (tau,
    strict) pair that produces it: ``(points[0], False)`` for accept-all and
    ``(points[start - 1], True)`` for every other cut.  One
    :class:`~stratclass.game._Payoffs` is built for the sweep, and every
    cut's groups are reduced through it; each point is bit for bit what
    :func:`subpop_accuracies` gives at that cut, up to the noisy scan's
    rounding stated below.  Without noise, a cost that passes
    :func:`_fast_path_ok` takes the fast path: a tabular one needs
    nondecreasing rows and upper-triangle columns nonincreasing going down,
    which a separable one has by construction, and neither may hold an
    entry within KNIFE_EDGE_ATOL of the unit gain.  Then the movers of cut
    s are one index range [first[s], s), ``first`` bisected once per group
    (:func:`_first_movers`); :func:`_fast_threshold_targets` gives the
    cut's first mover and the range's costs, and :func:`_noiseless_sweep`
    rewrites only the changed ranges of the group's reused x and k buffers,
    with no target array or report per cut.  The rest take the generic
    best response on the cut's suffix classifier.

    With noise, cut s faces q = rows @ p, p the indicator of indices >= s,
    and :func:`_noisy_sweep` reads every cut's curve off one cumulative sum
    over the kernel's columns instead.  Exact, that is bit-identical to
    q = rows @ p and its best responses, are the points of every cut that
    falls back and of every certified cut within 2 Delta of the best utility
    or efficiency; so the best point for either objective, ties included, is
    the one the matvec-per-cut scan finds.  Any other point may differ from
    it in the last bits of its utilities and efficiency, never in its costs.
    A knife-edge warning from a noisy sweep names a pair of the curve it
    decided on, q~ for a certified cut.

    Cuts are visited from the top, in blocks of ``_CUT_BLOCK``: the curve of
    cut s is q~ = q~(s + 1) + rows[:, s], q~(n) = 0, and one reverse
    cumulative sum per block gives them all in O(n^2) for the sweep, never
    holding an n x (n + 1) table.  One call of
    :func:`~stratclass.game._downward` per block gives every curve's
    downward analysis, which reads no cost, and each group's best response
    to q~ takes its curve's row, so it decides only the upward moves.  Each
    is asked to certify itself with ``slack`` (the predicate, which covers
    separable costs only, is stated in :func:`_target_indices`); the cut
    keeps those targets if every group's does, and otherwise computes q by
    the matvec and answers the groups that did not certify on it, one more
    best response each.  A sweep with a tabular group asks for no certificate,
    so every cut takes the matvec.  Downward moves are never certified: a
    cut whose curve has one available or within slack takes the matvec.  A
    stochastically monotone kernel, as the Gaussian one is, makes every
    cut's q nondecreasing, so there only an upward decision or pick within
    slack sends a cut to the matvec.  Last, every certified cut whose
    utility or efficiency lies within 2 Delta of the best is evaluated again
    on q with the targets it holds.

    Notation: u = eps / 2, gamma_k = k u / (1 - k u), S the largest computed
    row sum of the (nonnegative) kernel, r_i the exact sum of row i.

    delta bounds |q~_i - q_i|.  Both are sums of the same terms rows[i, j],
    j >= s: the products with the 0/1 entries of p are exact, and a float
    sum of k <= n terms in any order (blocked, pairwise, FMA) errs by at
    most gamma_n times the sum of their magnitudes (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3-4), which is at most r_i.
    The computed row sum is at least r_i (1 - gamma_n), so
    |q~_i - q_i| <= 2 gamma_n r_i <= 2 gamma_n S / (1 - gamma_n)
    <= 2 gamma_{n+1} S = delta.

    slack = 2 delta + 8uS bounds how far a decision can move.  Every entry
    of q~ and q is at most S (1 + 2 gamma_{n+1}), so a computed gain
    fl(q~_j - q~_i) lies within 2 delta + 2u (2S)(1 + 2 gamma_{n+1}) <
    2 delta + 5uS of fl(q_j - q_i); the rest of 8uS covers the rounding of
    the margin that is tested against slack.  A pair whose margin on q~
    clears slack thus has the same available-or-not answer on q, and an
    available move that trails the pick by more than slack on q~ trails it
    on q too, as q_pick - q_j >= fl(q~_pick - q~_j)(1 - u) - 2 delta > 0.
    So a certified group's targets are the ones q gives: its strategy costs
    are bit-identical, and only the accuracies read q~ at the targets.

    Delta bounds the utility that moves with them.  Group g's accuracy is
    fl(sum_i pi_i fl(fl(q[t_i] w_i) + v_i)), w = 2h - 1 and v = 1 - h read
    as the same floats on both curves, |w|, |v| <= 1.  In exact arithmetic
    the two sums differ by at most P delta, P the mass of pi; the two
    roundings add at most 2 gamma_{n+2} P (2S + 1) (the products and sums
    above, q <= 2S).  The share-weighted sum over G groups adds
    2 gamma_{G+1} P (2S + 1) more, the extra index absorbing second-order
    terms, and the shares weigh it all by their mass M:

        Delta_U = M (P delta + 2 (gamma_{n+2} + gamma_{G+1}) P (2S + 1)).

    The efficiency is fl(U - K) with the same K on both curves, so
    Delta_E = Delta_U + 3u (|E| + Delta_U) over the largest |E| of the sweep.
    Every cut b satisfies |V~_b - V_b| <= Delta, so with V~* the best held
    value the exact optimum V* >= V~* - Delta; a cut held below V~* - 2
    Delta has V < V~* - Delta <= V* and cannot tie the optimum, and its held
    value stays below V* too.  The exact ones among the rest carry every
    maximum, so the first maximum of the returned points is the exact one.
    Each window test is widened by u |V~*| for its own rounding.

    slack reaches KNIFE_EDGE_ATOL at n = 2249 for S = 1, where
    4 gamma_{n+1} + 8u first reaches 1e-12.  Cost-free sideways pairs
    between saturated values, whose margins sit KNIFE_EDGE_ATOL below their
    threshold, then make nearly every cut fall back, so from there on each
    cut takes the matvec at once: correct, but no faster than before.
    """
    payoffs = _Payoffs(scenario)
    taus = scenario.space.points.tolist()
    sweep = _noiseless_sweep if scenario.kernel is None else _noisy_sweep
    return sweep(scenario, payoffs, taus)


def _noiseless_sweep(
    scenario: SubpopulationScenario, payoffs: _Payoffs, taus: list[float]
) -> tuple[SweepPoint, ...]:
    """The noiseless branch of :func:`threshold_sweep`.

    At cut s everyone at or above s is accepted and stays, and a fast-path
    group's movers are the range [first[s], s) (:func:`_first_movers`), who
    are accepted too; so its x is v below first[s] and w + v from there up,
    and its k is c(i, s) on the range and zero elsewhere.  As first only
    rises with s, a cut rewrites x on [first[s - 1], first[s]) and k on
    [first[s - 1], s), and both are reduced as
    :class:`~stratclass.game._Payoffs` does, each a dot over the full
    length-n vector: the same floats, since 1 * w is exact and 0 * w + v is
    v.  The accuracy is reused while first, and so x, stays put, and an
    empty range spends +0.0, as in :meth:`~stratclass.game._Payoffs.group`.
    """
    n = scenario.space.n
    fns = scenario.cost_fns
    firsts = [_first_movers(fn) if _fast_path_ok(fn) else None for fn in fns]
    pi, pih, v = payoffs.pi, payoffs.pih, payoffs.v
    wv = payoffs.w + v
    ks = [np.zeros(n) for _ in fns]
    lows = [0 for _ in fns]  # each fast group's first mover at the last cut
    accs = [0.0 for _ in fns]
    for g, first in enumerate(firsts):
        if first is not None:
            payoffs.x[g][:] = wv  # cut 0 accepts everyone
            accs[g] = _accuracy(pi, payoffs.x[g])
    probs = np.ones(n)  # the cut's suffix classifier, for the generic path
    out = []
    for start in range(n + 1):
        if start:
            probs[start - 1] = 0.0
        us, costs = [], []
        for g, fn in enumerate(fns):
            if firsts[g] is None:
                u, c = payoffs.group(g, probs, _target_indices(probs, fn))
            else:
                x, k, last = payoffs.x[g], ks[g], lows[g]
                low, paid = _fast_threshold_targets(fn, firsts[g], start)
                if low != last:
                    x[last:low] = v[last:low]
                    accs[g] = _accuracy(pi, x)
                    k[last:low] = 0.0
                    lows[g] = low
                k[low:start] = paid
                u = accs[g]
                c = _strategy_cost(pih, k) if paid.size else 0.0
            us.append(u)
            costs.append(c)
        out.append(_cut_point(payoffs, taus, start, us, costs))
    return tuple(out)


def _noisy_sweep(
    scenario: SubpopulationScenario, payoffs: _Payoffs, taus: list[float]
) -> tuple[SweepPoint, ...]:
    """The noisy branch of :func:`threshold_sweep`; its bounds are derived there."""
    kernel = scenario.kernel
    rows = kernel.rows
    n = kernel.n
    fns = scenario.cost_fns
    size = float(rows.sum(axis=1).max())
    delta = 2.0 * _gamma(n + 1) * size
    slack = 2.0 * delta + 8.0 * _UNIT * size
    # only a separable cost certifies
    cheap = slack < KNIFE_EDGE_ATOL and all(fn._a is not None for fn in fns)

    points: list[SweepPoint] = [None] * (n + 1)  # type: ignore[list-item]
    stay = np.arange(n)
    # certified cut -> each group's movers and their targets, O(movers) memory
    held: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    probs = np.empty(n)

    def matvec(start: int) -> np.ndarray:
        probs[:start] = 0.0
        probs[start:] = 1.0
        return rows @ probs

    def evaluate(start: int, q: np.ndarray, targets: list[np.ndarray]) -> None:
        points[start] = _cut_point(payoffs, taus, start, *payoffs.groups(q, targets))

    def visit(start: int, approx: np.ndarray, down: tuple | None = None) -> None:
        targets = [_target_indices(approx, fn, slack, down) if cheap else None for fn in fns]
        if all(t is not None for t in targets):
            movers = [(t != stay).nonzero()[0] for t in targets]
            held[start] = [(moved, t[moved]) for moved, t in zip(movers, targets)]
            evaluate(start, approx, targets)
            return
        q = matvec(start)
        targets = [_target_indices(q, fn) if t is None else t for t, fn in zip(targets, fns)]
        evaluate(start, q, targets)

    tail = np.zeros(n)
    visit(n, tail)
    for hi in range(n, 0, -_CUT_BLOCK):
        lo = max(hi - _CUT_BLOCK, 0)
        acc = rows[:, lo:hi].T[::-1].copy()  # acc[k] is column hi - 1 - k
        acc[0] += tail
        np.cumsum(acc, axis=0, out=acc)
        # the cost-free downward analysis of each curve, shared by the groups
        downs = _downward(acc) if cheap else [None] * (hi - lo)
        for k in range(hi - lo):
            visit(hi - 1 - k, acc[k], downs[k])
        tail = acc[-1]
    if not held:
        return tuple(points)

    # masses of the shares and of pi, each rounded sum raised to a bound
    mass = float(scenario.shares.sum()) * (1.0 + _gamma(scenario.shares.size + 1))
    pi_mass = float(scenario.pop.pi.sum()) * (1.0 + _gamma(n + 1))
    roundings = _gamma(n + 2) + _gamma(scenario.shares.size + 1)
    err_u = mass * pi_mass * (delta + 2.0 * roundings * (2.0 * size + 1.0))
    err_e = err_u + 3.0 * _UNIT * (max(abs(p.efficiency) for p in points) + err_u)
    best_u = max(p.utility for p in points)
    best_e = max(p.efficiency for p in points)
    floor_u = best_u - 2.0 * err_u - _UNIT * abs(best_u)
    floor_e = best_e - 2.0 * err_e - _UNIT * abs(best_e)
    for start, moves in held.items():
        p = points[start]
        if p.utility >= floor_u or p.efficiency >= floor_e:
            targets = [stay.copy() for _ in moves]
            for t, (moved, dest) in zip(targets, moves):
                t[moved] = dest
            evaluate(start, matvec(start), targets)
    return tuple(points)


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
