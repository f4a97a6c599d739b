"""Best responses and the induced payoffs of the classification game.

The institution publishes a classifier ``f``; each contestant at grid point x
then moves to the most accepted point whose gain in acceptance exceeds the
manipulation cost, staying put when there is none.  Unlike the quasi-linear
rule of Hardt et al. (arXiv 1506.06980), this does not maximise acceptance
net of the cost.  The institution's utility is the accuracy it collects after
everyone has moved, and the cost of strategy is the manipulation spend of the
qualified mass.
``_target_indices`` is the one best response and :func:`subpop_accuracies`
the one payoff computation; every other payoff, here and in
:mod:`stratclass.noise`, evaluates a one-group scenario with it.  For a
separable cost, as :func:`~stratclass.model.shift_cost` builds, the best
response certifies in O(n) which contestants cannot move upward and decides
only the rest on the generic comparison, with the same targets and warnings.
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
    _block_rows,
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
_UNIT = np.finfo(float).eps / 2.0  # unit roundoff u
# one curve's row of _downward: largest drop, max|q|, first downward pair
_Down = tuple[float, float, tuple[int, int] | None]


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


def _target_indices(
    values: np.ndarray,
    costs: np.ndarray | CostFunction,
    slack: float | None = None,
    down: _Down | None = None,
) -> np.ndarray | None:
    """Best-response targets for acceptance values ``values`` and a cost.

    A move i -> j is available iff values[j] - values[i] exceeds
    costs[i, j] by more than KNIFE_EDGE_ATOL.  A gain that merely ties its
    cost must stay put, and a float pipeline cannot hold that line with an
    exact ">": kernel arithmetic wobbles saturated acceptance values by an
    ulp, which would turn cost-free sideways moves into phantom strict
    improvements.  So the comparison demands a margin no wider than the
    knife-edge band already flagged as untrustworthy; within the band the
    contestant stays and a KnifeEdgeWarning fires, naming the first such
    pair in row-major order.  Among available moves (plus staying put) the
    contestant picks the highest value; ties go to the smallest grid index.
    Because costs are nonnegative, any available move strictly beats
    staying, so the stay option only wins when no move is available.
    ``values`` may also be a batch of shape ``(..., n)``.

    ``costs`` may also be a CostFunction; a separable one brings its ``a``,
    with costs[i, j] = max(a[j] - a[i], 0).  For 1-D values ``a`` shrinks
    each row's candidates in O(n), and every move that remains is decided on
    the comparison above, with the same tie-break and its cost taken from a:

    - Downward (j < i).  These costs are exact zeros, and q[j] - q[i]
      rounds monotonically in q[j], so only the first maximum of q[:i] can
      win, and it is available iff the comparison holds there.
    - Upward (j > i).  With key = q - a, a pair that is available or
      knife-edge has exact gain minus cost above -KNIFE_EDGE_ATOL, less the
      rounding of the comparison.  Let u = eps/2, A = max|a|, Q = max|q|;
      A is read at a's two ends, as a is nondecreasing, and Q is the larger
      of max q and -min q.  Each float sum or difference errs by at most u
      times its magnitude.  The gain q[j] - q[i] and the cost a[j] - a[i]
      are then off by at most 2uQ and 2uA, the comparison adds at most
      u(costs[i, j] + 2 KNIFE_EDGE_ATOL) <= u(2A(1 + u) + 2 KNIFE_EDGE_ATOL),
      and the two keys at most 2u(Q + A).  So such a pair has key[j] - key[i] >
      -KNIFE_EDGE_ATOL - u(6A + 4Q + 2 KNIFE_EDGE_ATOL), up to terms in
      u**2.  The row's float floor, key[i] - KNIFE_EDGE_ATOL - m, lies
      within u(2Q + 2A + 2 KNIFE_EDGE_ATOL + m) of its exact value, and
      m = 8 eps (1 + A + Q) = 16u(1 + A + Q) exceeds the sum of both
      errors, u(8A + 6Q + 4 KNIFE_EDGE_ATOL), with room to spare.  So a
      row whose later keys all lie below its floor has no upward
      candidate; the other rows (none, when nobody moves) compare against
      the columns whose key reaches the lowest of their floors.  Each
      floor is at most its key, so when every key lies below the floor
      just before it, every key lies below every earlier floor: one pass
      then shows that no row may move, without the suffix maxima.

    Knife-edge pairs need a positive gain, so they sit in the rows that
    have a larger value earlier or in the upward block.  The downward half
    (the largest drop, max|q| and the first downward pair) reads no cost,
    and :func:`_downward` computes it for a block of curves at once: a
    threshold sweep passes each cut's row as ``down`` to every group's
    call, which then decides only the upward moves, and a call without one
    computes its own.  When the first row with a drop drops by less than
    the band, the first downward pair is that row and its first larger
    predecessor (proved there); only a curve whose first drop reaches the
    band searches the rows with a drop, in blocks, stopping at the first
    hit.  A downward pair precedes every upward pair of its row.

    Only a separable cost certifies or takes ``down``, on 1-D values;
    ``slack`` or ``down`` with any other call raises ValueError.  With
    ``slack`` the call returns None, and warns nothing, unless every
    decision clears its threshold by more than ``slack``.  With margin
    fl(values[j] - values[i]) - fl(costs[i, j] + KNIFE_EDGE_ATOL), every
    downward pair (j < i) has margin below -slack, so no downward move is
    available or near it; every upward pair has margin outside [-slack,
    slack]; and every available move but the pick has fl(values[pick] -
    values[j]) > slack.  A nondecreasing curve, which a stochastically
    monotone kernel such as the Gaussian one gives every threshold, has
    downward margins of at most -KNIFE_EDGE_ATOL.  The separable path reads
    the downward margins off the drops, each row's largest as rounding is
    monotone; for the same reason the largest drop of all answers the test
    for every row, and only a drop beyond the band builds downward targets.
    It lowers each row's floor by ``slack``, which the room in m covers as
    above, so a pair left out of the upward block has margin below -slack.
    """
    a = costs._a if isinstance(costs, CostFunction) else None
    if a is not None and values.ndim == 1:
        target, edge = _separable_targets(values, a, slack, down)
    elif slack is not None or down is not None:
        raise ValueError("only a separable cost's best response to one curve certifies")
    else:
        matrix = costs.costs if isinstance(costs, CostFunction) else costs
        target, edge = _generic_targets(values, matrix)
    if target is None:
        return None
    if edge is not None:
        i, j = edge
        warnings.warn(
            f"gain ties cost to within {KNIFE_EDGE_ATOL:g} for move {i} -> {j}; "
            "contestants inside this band stay put, but the outcome is "
            "sensitive to rounding",
            KnifeEdgeWarning,
            stacklevel=3,
        )
    return target


def _generic_targets(q: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Targets and first knife-edge pair, comparing every pair of points."""
    idx = np.arange(q.shape[-1])
    gains = q[..., None, :] - q[..., :, None]
    mask = gains > costs + KNIFE_EDGE_ATOL
    mask[..., idx, idx] = False
    near = (gains > 0) & (np.abs(gains - costs) < KNIFE_EDGE_ATOL)
    near[..., idx, idx] = False
    edge = None
    if np.any(near):
        edge = tuple(int(v[0]) for v in np.nonzero(near)[-2:])

    cand = np.where(mask, q[..., None, :], -np.inf)
    best = cand.max(axis=-1)
    return np.where(best > -np.inf, (cand == best[..., None]).argmax(axis=-1), idx), edge


def _downward(curves: np.ndarray) -> list[_Down]:
    """The cost-free half of the separable best response, per curve of a block.

    Every separable cost charges +0.0 for a downward move, so this half reads
    no cost, and one call on a ``(b, n)`` block of curves serves every
    separable group facing them.  For each curve q it returns

    - ``top``, the largest drop, drop[i] = max(q[:i]) - q[i] (-inf if n = 1);
    - ``size``, max|q|, the larger of max q and -min q;
    - ``pair``, the first downward knife-edge pair (i, j) in row-major
      order, j < i and 0 < q[j] - q[i] < KNIFE_EDGE_ATOL, or None.

    First-pair rule.  Let i be the first row whose drop is > 0; no earlier
    row has a larger value before it, so no earlier row holds a pair.  A
    float difference is positive iff its operands are ordered (underflow is
    gradual), and it rounds monotonically in each operand, so every j < i
    has fl(q[j] - q[i]) <= drop[i].  If drop[i] < KNIFE_EDGE_ATOL, every gain
    from an earlier larger value thus lies inside the band, and the first
    pair is (i, the first j with q[j] > q[i]), which lies before i.  Only
    when drop[i] reaches the band, so that a downward move is available or
    on the band's edge, does the pair take the doubling search over the rows
    with a drop; here its pair is None, and the best response searches only
    the curves it keeps.  The temporaries are a few arrays the block's size.
    """
    b, n = curves.shape
    run = np.maximum.accumulate(curves, axis=1)
    size = np.maximum(run[:, -1], -curves.min(axis=1))
    drop = run[:, :-1] - curves[:, 1:]  # the drops of rows 1 .. n - 1
    top = drop.max(axis=1, initial=-np.inf)
    pairs: list[tuple[int, int] | None] = [None] * b
    lit = (top > 0.0).nonzero()[0]
    if lit.size:
        # read on every curve, kept only where some drop is > 0
        first = (drop > 0.0).argmax(axis=1)
        every = np.arange(b)
        later = (curves > curves[every, first + 1][:, None]).argmax(axis=1)
        inside = drop[every, first] < KNIFE_EDGE_ATOL
        for r in lit.tolist():
            if inside[r]:
                pairs[r] = (int(first[r]) + 1, int(later[r]))
    return list(zip(top.tolist(), size.tolist(), pairs))


def _first_drop_pair(q: np.ndarray, drop: np.ndarray) -> tuple[int, int] | None:
    """The first downward knife-edge pair of q, ``drop`` its rows 1 .. n - 1.

    Blocks of the rows with a drop double in size up to the budget: an early
    hit is cheap, and a full scan takes log n blocks plus one per budget's
    worth of rows.
    """
    n = q.size
    idx = np.arange(n)
    flagged = (drop > 0.0).nonzero()[0] + 1
    s, size, most = 0, 1, _block_rows(n, 16)
    while s < flagged.size:
        block = flagged[s : s + size]
        s, size = s + size, min(2 * size, most)
        gains = q[: block[-1]] - q[block, None]
        # the costs here are exact zeros, so |gains - costs| is gains
        hit = (idx[: block[-1]] < block[:, None]) & (gains > 0) & (gains < KNIFE_EDGE_ATOL)
        if np.any(hit):
            r, j = [int(v[0]) for v in np.nonzero(hit)]
            return int(block[r]), j
    return None


def _separable_targets(
    q: np.ndarray,
    a: np.ndarray,
    slack: float | None = None,
    down: _Down | None = None,
) -> tuple[np.ndarray | None, tuple[int, int] | None]:
    """Targets and first knife-edge pair for costs built from ``a``.

    The candidate reductions, their rounding margin and the ``slack`` test
    are derived in :func:`_target_indices`.  ``down`` is q's row of
    :func:`_downward`, computed here when not given, and this function
    decides the upward moves.  The upward block runs in blocks of rows, so
    its temporaries stay within about ``_BLOCK_BYTES`` however large n is.
    """
    top, size, pair = _downward(q[None])[0] if down is None else down
    # rounding is monotone, so the largest drop answers for every row
    if slack is not None and top - KNIFE_EDGE_ATOL >= -slack:
        return None, None
    n = q.size
    idx = np.arange(n)
    target = idx.copy()
    beat = None  # the value of each row's free downward move, -inf if none
    if top > KNIFE_EDGE_ATOL:
        run = np.maximum.accumulate(q)
        below = np.concatenate(([-np.inf], run[:-1]))  # below[i] = max(q[:i])
        free = below - q > KNIFE_EDGE_ATOL
        # at[i] is the first index attaining below[i]
        rises = np.concatenate(([True], q[1:] > run[:-1]))
        at = np.concatenate(([0], np.maximum.accumulate(np.where(rises, idx, 0))[:-1]))
        target = np.where(free, at, idx)
        beat = np.where(free, below, -np.inf)

    key = q - a
    # max|a| is read at a's ends, as a is nondecreasing
    margin = 16.0 * _UNIT * (1.0 + max(-a[0], a[-1]) + size)
    floor = key - KNIFE_EDGE_ATOL - margin
    if slack is not None:
        floor -= slack

    edge = None
    # floor <= key, so if each key lies below the floor before it, every key
    # lies below every earlier floor, and no row has an upward candidate
    if not (key[1:] < floor[:-1]).all():
        above = np.maximum.accumulate(key[::-1])[::-1][1:]  # max(key[i+1:])
        rows = (above >= floor[:-1]).nonzero()[0]
        cols = ((key >= floor[rows].min()) & (idx > rows[0])).nonzero()[0]
        # the rows go in order, in blocks whose six or so float temporaries fit
        # the budget, so the first knife-edge pair is still the row-major first
        height = _block_rows(cols.size, 48)
        for lo in range(0, rows.size, height):
            block = rows[lo : lo + height]
            gains = q[cols] - q[block, None]
            c = np.maximum(a[cols] - a[block, None], 0.0)
            upward = cols > block[:, None]
            limit = c + KNIFE_EDGE_ATOL
            if slack is not None and np.any(upward & (np.abs(gains - limit) <= slack)):
                return None, None
            avail = upward & (gains > limit)
            cand = np.where(avail, q[cols], -np.inf)
            best = cand.max(axis=1)
            # an equal downward value has the smaller index
            wins = best > (-np.inf if beat is None else beat[block])
            pick = cols[(cand == best[:, None]).argmax(axis=1)]
            if slack is not None and np.any(
                (avail & (q[pick, None] - cand <= slack)).sum(axis=1) > 1
            ):
                return None, None
            target[block[wins]] = pick[wins]
            if edge is None:
                near = upward & (gains > 0) & (np.abs(gains - c) < KNIFE_EDGE_ATOL)
                if np.any(near):
                    r, k = [int(v[0]) for v in np.nonzero(near)]
                    edge = (int(block[r]), int(cols[k]))

    if pair is None and top > 0.0:  # the first drop reaches the band
        pair = _first_drop_pair(q, np.maximum.accumulate(q)[:-1] - q[1:])
    # within one row a downward pair precedes every upward one
    if pair is not None and (edge is None or pair[0] <= edge[0]):
        edge = pair
    return target, edge


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
    target = _target_indices(effective_acceptance(f, kernel), c)
    return BestResponse(target=target, moved=target != np.arange(f.space.n))


def best_response(f: Classifier, c: CostFunction) -> BestResponse:
    """Each point's strict-improvement move under classifier ``f``."""
    return _respond(f, None, c, True)


def _accuracy(pi: np.ndarray, x: np.ndarray) -> float:
    """Expected accuracy, x[i] = (acceptance at i's target) (2h_i - 1) + 1 - h_i."""
    return float(np.dot(pi, x))


def _strategy_cost(pih: np.ndarray, k: np.ndarray) -> float:
    """Manipulation spend of the qualified mass pi h, k[i] the cost of i's move."""
    return float(np.dot(pih, k))


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


class _Payoffs:
    """A scenario's payoff reduction, from invariants built once.

    Group g's accuracy is pi . x with x[i] = q[t_i] w_i + v_i, w = 2h - 1,
    v = 1 - h, and its spend is (pi h) . k with k[i] = c_g(i, t_i), for
    targets t and acceptance q.  Each is one ``np.dot`` over a vector of
    length n, in :func:`_accuracy` and :func:`_strategy_cost`; ``x`` holds
    one reused buffer per group, and ``us`` and ``ks`` hold the groups'
    payoffs that :meth:`totals` weighs, one entry per group.  Where nobody
    moves, :meth:`group` reads q in place and reports a spend of exactly
    +0.0, which is what the dot over the diagonal costs gives: every
    c_g(i, i) is +0.0 and pi h >= 0.  The noiseless threshold sweep writes
    x and k itself and takes the same dots.
    """

    __slots__ = ("pi", "w", "v", "pih", "shares", "labels", "fns", "stay", "x", "us", "ks")

    def __init__(self, scenario: SubpopulationScenario):
        pop = scenario.pop
        self.pi = pop.pi
        self.w = 2.0 * pop.h - 1.0
        self.v = 1.0 - pop.h
        self.pih = pop.pi * pop.h
        self.shares = scenario.shares
        self.labels = scenario.labels
        self.fns = scenario.cost_fns
        self.stay = np.arange(pop.space.n)
        self.x = [np.empty(pop.space.n) for _ in self.fns]
        self.us = np.empty(len(self.fns))
        self.ks = np.empty(len(self.fns))

    def group(self, g: int, q: np.ndarray, target: np.ndarray) -> tuple[float, float]:
        """Group g's accuracy and spend under ``target``, facing ``q``."""
        x = self.x[g]
        stays = (target == self.stay).all()
        np.multiply(q if stays else q[target], self.w, out=x)
        x += self.v
        if stays:
            # every c(i, i) is +0.0, so nobody moving pays exactly +0.0
            return _accuracy(self.pi, x), 0.0
        return _accuracy(self.pi, x), _strategy_cost(self.pih, self.fns[g].at(self.stay, target))

    def totals(self, us: list[float], ks: list[float]) -> tuple:
        """:class:`SubpopReport`'s fields, in order, from the groups' payoffs."""
        self.us[:] = us
        self.ks[:] = ks
        return (
            self.labels,
            tuple(us),
            tuple(ks),
            float(np.dot(self.shares, self.us)),
            float(np.dot(self.shares, self.ks)),
            max(us) - min(us),
        )

    def groups(self, q: np.ndarray, targets: list[np.ndarray]) -> tuple[list[float], list[float]]:
        """Each group's accuracy and spend under its targets, facing ``q``."""
        us, ks = [], []
        for g, t in enumerate(targets):
            u, k = self.group(g, q, t)
            us.append(u)
            ks.append(k)
        return us, ks

    def report(self, q: np.ndarray, targets: list[np.ndarray]) -> SubpopReport:
        """Reduce each group's targets against acceptance ``q`` to its payoffs."""
        return SubpopReport(*self.totals(*self.groups(q, targets)))


def subpop_accuracies(
    f: Classifier,
    scenario: SubpopulationScenario,
    allow_randomized: bool = False,
) -> SubpopReport:
    """Evaluate a classifier group by group on a subpopulation scenario."""
    _check_noisy_classifier(f, scenario.kernel, allow_randomized)
    _require_same_space(scenario.pop, f)
    q = effective_acceptance(f, scenario.kernel)
    targets = [_target_indices(q, fn) for fn in scenario.cost_fns]
    return _Payoffs(scenario).report(q, targets)


def utility(f: Classifier, pop: Population, c: CostFunction) -> float:
    """Institution's expected accuracy after contestants best-respond."""
    return subpop_accuracies(f, _single(pop, c)).utility


def strategy_cost(f: Classifier, pop: Population, c: CostFunction) -> float:
    """Expected manipulation cost paid by qualified contestants."""
    return subpop_accuracies(f, _single(pop, c)).cost


def efficiency(f: Classifier, pop: Population, c: CostFunction) -> float:
    """Utility minus the cost of strategy, in one pass."""
    return subpop_accuracies(f, _single(pop, c)).efficiency
