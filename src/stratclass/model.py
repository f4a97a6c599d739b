"""Core immutable domain types for one-dimensional strategic classification.

The model is a finite, strictly increasing grid of feature values.  A
population places probability mass ``pi`` on each grid point and assigns each
point a qualification rate ``h`` (the probability that a contestant sitting
there is truly qualified).  Contestants may misreport their feature by paying
a manipulation cost, so a cost function assigns a price to every ordered move
between grid points.  Classifiers map grid points to acceptance
probabilities, and noise kernels describe features observed through a noisy
channel.

All types are frozen dataclasses holding read-only numpy arrays.  They are
safe to share freely across threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr

__all__ = [
    "ValidationError",
    "CostViolation",
    "FeatureSpace",
    "Population",
    "CostFunction",
    "Classifier",
    "NoiseKernel",
    "SubpopulationScenario",
    "SolveReport",
    "validate_simple_cost",
    "shift_cost",
    "is_lipschitz",
    "PROB_ATOL",
    "COST_ATOL",
    "LIPSCHITZ_ATOL",
]

# Probability masses, shares, and kernel rows must close to this precision.
PROB_ATOL = 1e-12
# Absolute tolerance of the cost axioms (CostFunction, validate_simple_cost).
COST_ATOL = 1e-9
# Slack allowed in is_lipschitz's f(x') - f(x) <= c(x, x').
LIPSCHITZ_ATOL = 1e-9
# Bytes the n x n float64 matrices one build keeps may take: a discretized
# instance's two group costs plus its kernel at n = 6401 (0.98 GB) fit, and a
# kernel at n = 20001 (3.2 GB) does not.
DENSE_BYTES_LIMIT = 2 * 2**30
# Bytes of the cdf block NoiseKernel.gaussian evaluates at a time: one block
# stays in a core's cache while its rows are differenced, checked and rescaled.
_KERNEL_BLOCK_BYTES = 2**20


class ValidationError(ValueError):
    """Raised when a domain object violates one of its invariants."""


def _frozen_array(values, name: str, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def _cell_edges(points: np.ndarray) -> np.ndarray:
    """Cell boundaries for a grid: midpoints between neighbours, open ends."""
    lo, hi = points[:-1], points[1:]
    with np.errstate(over="ignore"):
        mids = (hi + lo) / 2.0
    # near the float maximum the sum overflows; there halving is exact
    big = np.isinf(mids)
    mids[big] = hi[big] / 2.0 + lo[big] / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


def _require_dense_fits(n: int, matrices: int) -> None:
    """Refuse, before allocating, ``matrices`` n x n arrays beyond DENSE_BYTES_LIMIT."""
    need = 8 * n * n * matrices
    if need > DENSE_BYTES_LIMIT:
        raise ValidationError(
            f"n: {n} points need {need / 1e9:.2f} GB of dense matrices; "
            f"the limit is {DENSE_BYTES_LIMIT / 1e9:.2f} GB"
        )


def _dense_fit_count(n: int) -> int:
    """How many n x n float64 arrays DENSE_BYTES_LIMIT holds at once, at least 1."""
    return max(1, DENSE_BYTES_LIMIT // (8 * n * n))


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """Ordered finite grid of feature (or observed-signal) values."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points, "points")
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("points: need a non-empty 1-d sequence")
        if not np.all(pts[1:] > pts[:-1]):
            raise ValidationError("points: must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.size)

    def __len__(self) -> int:
        return self.n

    def matches(self, other: "FeatureSpace") -> bool:
        # objects built together share one grid object; skip the comparison
        return self is other or (
            self.points.shape == other.points.shape
            and bool(np.all(self.points == other.points))
        )


def _require_same_space(*objs) -> FeatureSpace:
    """The grid every object lives on; raise if any two differ."""
    space = objs[0].space
    for o in objs[1:]:
        if not space.matches(o.space):
            raise ValidationError(
                f"{type(objs[0]).__name__} and {type(o).__name__} must share the "
                "feature grid, but live on different grids"
            )
    return space


@dataclass(frozen=True, eq=False)
class Population:
    """Mass distribution ``pi`` and qualification rates ``h`` over a grid.

    ``h`` must be monotone nondecreasing along the grid (higher features are
    weakly better qualified).  Pass ``allow_nonmonotone_h=True`` to explore
    configurations outside that convention; the solvers and the cost axioms
    assume the monotone case.
    """

    space: FeatureSpace
    pi: np.ndarray
    h: np.ndarray
    allow_nonmonotone_h: bool = False

    def __post_init__(self):
        pi = _frozen_array(self.pi, "pi")
        h = _frozen_array(self.h, "h")
        n = self.space.n
        if pi.shape != (n,):
            raise ValidationError(f"pi: expected {n} entries, got {pi.shape}")
        if h.shape != (n,):
            raise ValidationError(f"h: expected {n} entries, got {h.shape}")
        if np.any(pi < 0):
            raise ValidationError("pi: entries must be nonnegative")
        total = float(pi.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise ValidationError(f"pi: entries must sum to 1 (got {total!r})")
        if np.any(h < 0) or np.any(h > 1):
            raise ValidationError("h: entries must lie in [0, 1]")
        if not self.allow_nonmonotone_h and n > 1 and np.any(np.diff(h) < 0):
            raise ValidationError(
                "h: must be monotone nondecreasing "
                "(pass allow_nonmonotone_h=True to override)"
            )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class CostViolation:
    """One failed cost axiom: which axiom, at which grid indices."""

    axiom: int
    name: str
    indices: tuple[int, ...]
    excess: float


def _qualified_order(n: int, h: np.ndarray | None) -> np.ndarray:
    """Boolean matrix Q[i, j]: point i is at least as qualified as point j.

    With ``h`` given, qualification follows ``h`` with ties broken by grid
    position (under monotone ``h`` this is exactly the grid order).  Without
    ``h`` the grid order is used directly.
    """
    idx = np.arange(n)
    if h is None:
        return idx[:, None] >= idx[None, :]
    hi, hj = h[:, None], h[None, :]
    return (hi > hj) | ((hi == hj) & (idx[:, None] >= idx[None, :]))


def validate_simple_cost(costs: np.ndarray, h: np.ndarray | None) -> list[CostViolation]:
    """Check a raw cost matrix against the five simple-cost axioms.

    1. costs are nonnegative;
    2. moving to a weakly less qualified point is free;
    3. costs are sub-additive over intermediate points;
    4. moving to a less qualified destination is never dearer (implied by
       1 to 3, checked anyway);
    5. moving from a better qualified source is never dearer (also implied).

    Entries are compared to within ``COST_ATOL``.  Returns an empty list iff
    the matrix is simple.  Axioms 4 and 5 report adjacent-pair witnesses
    along the qualification order.
    """
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    if costs.shape != (n, n):
        raise ValidationError(f"costs: expected a square matrix, got {costs.shape}")
    if h is not None:
        h = np.asarray(h, dtype=float)
        if h.shape != (n,):
            raise ValidationError(f"h: expected {n} entries, got {h.shape}")
    out: list[CostViolation] = []

    for i, j in zip(*np.nonzero(costs < -COST_ATOL)):
        out.append(CostViolation(1, "nonnegative", (int(i), int(j)), float(-costs[i, j])))

    order = _qualified_order(n, h)
    free = order & (np.abs(costs) > COST_ATOL)
    for i, j in zip(*np.nonzero(free)):
        out.append(CostViolation(2, "free-downward", (int(i), int(j)), float(abs(costs[i, j]))))

    # Sub-additivity, chunked over the intermediate point to stay vectorised.
    for j in range(n):
        slack = costs - (costs[:, j : j + 1] + costs[j : j + 1, :])
        for i, k in zip(*np.nonzero(slack > COST_ATOL)):
            out.append(
                CostViolation(3, "subadditive", (int(i), int(j), int(k)), float(slack[i, k]))
            )

    # Order columns from least to most qualified; rows must be nondecreasing
    # along it (axiom 4) and columns nonincreasing (axiom 5).
    if h is None:
        perm = np.arange(n)
    else:
        perm = np.lexsort((np.arange(n), h))
    ordered = costs[:, perm][perm, :]
    drop = ordered[:, :-1] - ordered[:, 1:]
    for i, p in zip(*np.nonzero(drop > COST_ATOL)):
        lo, hi_ = int(perm[p]), int(perm[p + 1])
        out.append(CostViolation(4, "destination-monotone", (int(perm[i]), lo, hi_), float(drop[i, p])))
    rise = ordered[1:, :] - ordered[:-1, :]
    for p, k in zip(*np.nonzero(rise > COST_ATOL)):
        lo, hi_ = int(perm[p]), int(perm[p + 1])
        out.append(CostViolation(5, "source-antitone", (lo, hi_, int(perm[k])), float(rise[p, k])))

    return out


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Manipulation cost matrix: ``costs[i, j]`` prices the move i -> j.

    Construction enforces the cheap axioms directly: entries are nonnegative
    and every move to a weakly lower grid point is free (tiny numerical dust
    on those entries is canonicalised to exact zero).  Sub-additivity is the
    caller's responsibility; run :func:`validate_simple_cost` on ``costs``
    for the full certificate.  A separable cost (:func:`shift_cost`) is
    stored as its ``a`` alone: ``costs`` is built on first read, and
    :meth:`at` serves entries without it.
    """

    space: FeatureSpace
    costs: np.ndarray
    # The nondecreasing a with costs[i, j] = max(a[j] - a[i], 0), set only by
    # shift_cost; the best response uses it to rule out moves in O(n).
    _a: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        c = np.array(self.costs, dtype=float)
        n = self.space.n
        if c.shape != (n, n):
            raise ValidationError(f"costs: expected a {n}x{n} matrix, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("costs: entries must be finite")
        if np.any(c < -COST_ATOL):
            i, j = np.unravel_index(np.argmin(c), c.shape)
            raise ValidationError(f"costs: negative entry at ({i}, {j})")
        lower = np.tril(np.ones((n, n), dtype=bool))
        bad = lower & (c > COST_ATOL)  # no entry lies below -COST_ATOL now
        if np.any(bad):
            i, j = [int(v[0]) for v in np.nonzero(bad)]
            raise ValidationError(
                f"costs: move to a weakly lower point must be free, got {c[i, j]!r} at ({i}, {j})"
            )
        c[lower] = 0.0
        np.clip(c, 0.0, None, out=c)
        c.flags.writeable = False
        object.__setattr__(self, "costs", c)

    def __getattr__(self, name: str):
        # only a separable cost lacks costs; racing threads build equal bits
        if name != "costs" or self._a is None:
            raise AttributeError(name)
        c = self._a[None, :] - self._a[:, None]
        np.maximum(c, 0.0, out=c)
        c.flags.writeable = False
        object.__setattr__(self, "costs", c)
        return c

    def __repr__(self) -> str:
        # a separable cost shows its a, so printing it builds no n x n matrix
        if self._a is None:
            return f"CostFunction(space={self.space!r}, costs={self.costs!r})"
        return f"CostFunction(space={self.space!r}, a={self._a!r})"

    def at(self, rows, cols) -> np.ndarray:
        """The entries ``costs[rows, cols]``, from ``a`` alone when separable."""
        if self._a is None:
            return self.costs[rows, cols]
        return np.maximum(self._a[cols] - self._a[rows], 0.0)

    @property
    def n(self) -> int:
        return self.space.n


def shift_cost(space: FeatureSpace, a: Sequence[float]) -> CostFunction:
    """Cost family ``c(x, x') = max(a(x') - a(x), 0)`` for nondecreasing a.

    Every member is simple; the linear family used with Gaussian models is
    the special case ``a(x) = x / (sqrt(2 pi) sigma)``.  The result stores
    ``a`` alone; its O(n) checks below imply the cost axioms.
    """
    arr = np.array(a, dtype=float)
    if arr.shape != (space.n,):
        raise ValidationError(f"a: expected {space.n} entries, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("a: entries must be finite")
    if np.any(arr[1:] < arr[:-1]):
        raise ValidationError("a: must be nondecreasing")
    with np.errstate(over="ignore"):
        if not np.isfinite(arr[-1] - arr[0]):
            raise ValidationError("costs: entries must be finite")
    arr.flags.writeable = False
    cost = object.__new__(CostFunction)
    object.__setattr__(cost, "space", space)
    object.__setattr__(cost, "_a", arr)
    return cost


@dataclass(frozen=True, eq=False)
class Classifier:
    """Acceptance probabilities over the grid; deterministic means {0, 1}."""

    space: FeatureSpace
    probs: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.probs, "probs")
        if p.shape != (self.space.n,):
            raise ValidationError(f"probs: expected {self.space.n} entries, got {p.shape}")
        if np.any(p < 0) or np.any(p > 1):
            raise ValidationError("probs: entries must lie in [0, 1]")
        object.__setattr__(self, "probs", p)

    @property
    def is_deterministic(self) -> bool:
        p = self.probs
        return bool(np.all((p == 0.0) | (p == 1.0)))

    @classmethod
    def threshold(cls, space: FeatureSpace, tau: float, strict: bool = False) -> "Classifier":
        """Accept all points at or above ``tau`` (strictly above if strict)."""
        accepted = space.points > tau if strict else space.points >= tau
        return cls(space, accepted.astype(float))

    @classmethod
    def constant(cls, space: FeatureSpace, value: float) -> "Classifier":
        return cls(space, np.full(space.n, float(value)))


def is_lipschitz(f: Classifier, c: CostFunction) -> bool:
    """True iff every pairwise gain is covered by its cost: f(x')-f(x) <= c(x,x')."""
    _require_same_space(f, c)
    p = f.probs
    return bool(np.all(p[None, :] - p[:, None] <= c.costs + LIPSCHITZ_ATOL))


def _normalise_rows(r: np.ndarray, first: int = 0) -> None:
    """Check kernel rows and rescale each to close exactly, in place.

    Entries must be finite and at least ``-PROB_ATOL`` (dust below zero is
    clipped), and each row must sum to 1 within ``PROB_ATOL``.  ``first`` is
    the kernel index of ``r``'s first row, so a block names its global row.
    """
    if not np.all(np.isfinite(r)):
        raise ValidationError("rows: entries must be finite")
    if np.any(r < -PROB_ATOL):
        raise ValidationError("rows: entries must be nonnegative")
    np.clip(r, 0.0, None, out=r)
    sums = r.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > PROB_ATOL):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"rows: row {first + i} sums to {sums[i]!r}, expected 1")
    r /= sums[:, None]


class _Normalised(NamedTuple):
    """Rows a kernel builder owns and has already checked and closed: kept without a copy."""

    rows: np.ndarray


@dataclass(frozen=True, eq=False)
class NoiseKernel:
    """Row-stochastic kernel: ``rows[i, j]`` = P(observed feature j | signal i).

    The constructor checks a copy of the rows it is given (see
    :func:`_normalise_rows`) and rescales that copy; the caller's array is
    never modified or kept.
    """

    space: FeatureSpace
    rows: np.ndarray

    def __post_init__(self):
        if isinstance(self.rows, _Normalised):
            r = self.rows.rows
        else:
            r = np.array(self.rows, dtype=float)
            n = self.space.n
            if r.shape != (n, n):
                raise ValidationError(f"rows: expected a {n}x{n} matrix, got {r.shape}")
            _normalise_rows(r)
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n(self) -> int:
        return self.space.n

    @classmethod
    def identity(cls, space: FeatureSpace) -> "NoiseKernel":
        return cls(space, np.eye(space.n))

    @classmethod
    def gaussian(cls, space: FeatureSpace, sigma: float) -> "NoiseKernel":
        """Additive centred Gaussian noise, integrated over grid cells.

        Row i holds the mass of Normal(points[i], sigma) over each cell of
        the grid (cells are delimited by neighbour midpoints, outer cells
        extend to infinity), renormalised to close exactly.  The rows are
        written straight into the one n x n array the kernel keeps, a block
        of about ``_KERNEL_BLOCK_BYTES`` at a time, and each block is checked
        and rescaled as the constructor would while it is still in cache.
        So a build peaks at that array plus one block, and the constructor
        keeps it without a copy.
        """
        if sigma < 0:
            raise ValidationError("sigma: must be nonnegative")
        if sigma == 0:
            return cls.identity(space)
        n = space.n
        _require_dense_fits(n, 1)
        points = space.points
        edges = _cell_edges(points)
        rows = np.empty((n, n))
        height = min(n, max(1, _KERNEL_BLOCK_BYTES // (8 * (n + 1))))
        block = np.empty((height, n + 1))
        for lo in range(0, n, height):
            hi = min(lo + height, n)
            z = block[: hi - lo]
            with np.errstate(over="ignore"):  # a z beyond the float range is its limit, inf
                np.subtract(edges, points[lo:hi, None], out=z)
                z /= sigma
            # ndtr(-inf) and ndtr(inf) are exactly 0 and 1, so the open outer
            # cells close exactly
            ndtr(z, out=z)
            np.subtract(z[:, 1:], z[:, :-1], out=rows[lo:hi])
            _normalise_rows(rows[lo:hi], lo)
        return cls(space, _Normalised(rows))


_LABELS = string.ascii_uppercase


@dataclass(frozen=True, eq=False)
class SubpopulationScenario:
    """Subpopulations sharing one feature distribution and qualification map.

    Each subpopulation has its own manipulation cost scale but the same
    ``pop`` (and, when present, the same noise kernel): the groups differ
    only in how hard strategic moves are for them.
    """

    pop: Population
    shares: np.ndarray
    cost_fns: tuple[CostFunction, ...]
    kernel: NoiseKernel | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        shares = _frozen_array(self.shares, "shares")
        fns = tuple(self.cost_fns)
        if shares.ndim != 1 or shares.size == 0:
            raise ValidationError("shares: need a non-empty 1-d sequence")
        if len(fns) != shares.size:
            raise ValidationError("cost_fns: need one cost function per share")
        if np.any(shares < 0):
            raise ValidationError("shares: entries must be nonnegative")
        total = float(shares.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise ValidationError(f"shares: entries must sum to 1 (got {total!r})")
        kernel = [] if self.kernel is None else [self.kernel]
        _require_same_space(self.pop, *fns, *kernel)
        labels = tuple(self.labels)
        if not labels:
            labels = tuple(
                _LABELS[i] if i < len(_LABELS) else f"S{i}" for i in range(shares.size)
            )
        if len(labels) != shares.size:
            raise ValidationError("labels: need one label per share")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "cost_fns", fns)
        object.__setattr__(self, "labels", labels)

    @property
    def space(self) -> FeatureSpace:
        return self.pop.space

    @property
    def k(self) -> int:
        return int(self.shares.size)


def _single(
    pop: Population, c: CostFunction, kernel: NoiseKernel | None = None
) -> SubpopulationScenario:
    """The one-group scenario: the whole population pays cost ``c``."""
    return SubpopulationScenario(pop, (1.0,), (c,), kernel)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solver's winner plus enough context to reproduce it."""

    classifier: Classifier
    objective: float
    method: str
    tau: float | None = None
    strict: bool | None = None
    details: dict[str, Any] | None = None
