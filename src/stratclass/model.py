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
from numpy.lib.stride_tricks import sliding_window_view
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
# Bytes the temporaries of one block of rows may take at once, in
# NoiseKernel.gaussian (the cdf arguments and their int64 table offsets) and
# in the separable best response.  A block stays in a core's cache while it
# is worked on, and no temporary grows with n squared.
_BLOCK_BYTES = 2**20
# NoiseKernel.gaussian tabulates the normal cdf at the floats this many ulps
# (bit patterns) either side of each diagonal's reference argument.
_CDF_TABLE_ULPS = 8


class ValidationError(ValueError):
    """Raised when a domain object violates one of its invariants."""


def _frozen_array(values, name: str, n: int | None = None) -> np.ndarray:
    """A read-only float copy of ``values``: finite, and of shape (n,) when n is given."""
    arr = np.array(values, dtype=float)
    if n is not None and arr.shape != (n,):
        raise ValidationError(f"{name}: expected {n} entries, got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def _require_distribution(arr: np.ndarray, name: str) -> None:
    """Refuse ``arr`` unless its entries are nonnegative and sum to 1 within PROB_ATOL."""
    if np.any(arr < 0):
        raise ValidationError(f"{name}: entries must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise ValidationError(f"{name}: entries must sum to 1 (got {total!r})")


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


def _block_rows(width: int, cell_bytes: int) -> int:
    """Rows of ``width`` cells, ``cell_bytes`` each, that fit _BLOCK_BYTES; at least 1."""
    return max(1, _BLOCK_BYTES // (cell_bytes * width))


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
    weakly better qualified), as the solvers and the cost axioms assume.
    Every refusal names its field first, ``pi:`` or ``h:``.
    """

    space: FeatureSpace
    pi: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n = self.space.n
        pi = _frozen_array(self.pi, "pi", n)
        h = _frozen_array(self.h, "h", n)
        _require_distribution(pi, "pi")
        if np.any(h < 0) or np.any(h > 1):
            raise ValidationError("h: entries must lie in [0, 1]")
        if np.any(h[1:] < h[:-1]):
            raise ValidationError("h: must be monotone nondecreasing")
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
    stored as its ``a`` alone: ``costs`` is built on first read, refused
    like any n x n build beyond ``DENSE_BYTES_LIMIT``, and :meth:`at` serves
    entries without it.
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
        _require_dense_fits(self._a.size, 1)
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
    arr = _frozen_array(a, "a", space.n)
    if np.any(arr[1:] < arr[:-1]):
        raise ValidationError("a: must be nondecreasing")
    with np.errstate(over="ignore"):
        if not np.isfinite(arr[-1] - arr[0]):
            raise ValidationError("costs: entries must be finite")
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
        p = _frozen_array(self.probs, "probs", self.space.n)
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
    # NaN carries through both reductions, so one pass each finds every bad entry
    least, most = r.min(), r.max()
    if not (np.isfinite(least) and np.isfinite(most)):
        raise ValidationError("rows: entries must be finite")
    if least < -PROB_ATOL:
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
    def gaussian(cls, space: FeatureSpace, sigma: float) -> "NoiseKernel | None":
        """Additive centred Gaussian noise, integrated over grid cells.

        At sigma 0 there is no kernel: the result is None, the noiseless game,
        and every caller that maps a noise level to a kernel takes it from here.

        Row i holds the mass of Normal(points[i], sigma) over each cell of
        the grid (cells are delimited by neighbour midpoints, outer cells
        extend to infinity), renormalised to close exactly: the differences
        along j of ndtr(z), z[i, j] = (edges[j] - points[i]) / sigma.

        On a near-uniform grid z barely changes along a diagonal k = j - i,
        so ndtr runs on an O(n) table: for each k, at the 2w + 1 floats whose
        int64 bits lie within w = ``_CDF_TABLE_ULPS`` of those of one
        reference z on that diagonal.  An entry reads the table only where
        its own bits are a slot's argument bits, and the others (all of them
        on a grid far from uniform) call ndtr.  So every entry is ndtr of its
        own float, bit for bit, on any grid; the table only saves calls.

        The rows are written straight into the one n x n array the kernel
        keeps, a block of rows at a time (the argument and offset blocks
        share ``_BLOCK_BYTES``), and each block is checked and
        rescaled as the constructor would while it is still in cache.  So a
        build peaks at that array plus the blocks and the table, and the
        constructor keeps it without a copy.
        """
        if sigma < 0:
            raise ValidationError("sigma: must be nonnegative")
        if sigma == 0:
            return None
        n = space.n
        _require_dense_fits(n, 1)
        points = space.points
        edges = _cell_edges(points)
        w = _CDF_TABLE_ULPS
        # diagonal k = j - i, stored at k + n - 1, spans rows max(0, -k)..min(n - 1, n - k)
        k = np.arange(-(n - 1), n + 1)
        mid = (np.maximum(0, -k) + np.minimum(n - 1, n - k)) // 2
        with np.errstate(over="ignore"):  # a z beyond the float range is its limit, inf
            ref = (edges[mid + k] - points[mid]) / sigma
        start = ref.view(np.int64) - w
        table = ndtr((start[:, None] + np.arange(2 * w + 1)).view(np.float64)).ravel()
        # row i of each Toeplitz view holds diagonals j - i for j = 0..n, without a copy
        starts = sliding_window_view(start, n + 1)[::-1]
        bases = sliding_window_view(np.arange(0, table.size, 2 * w + 1), n + 1)[::-1]
        rows = np.empty((n, n))
        height = min(n, _block_rows(n + 1, 16))
        zs = np.empty((height, n + 1))
        offsets = np.empty((height, n + 1), dtype=np.int64)
        for lo in range(0, n, height):
            hi = min(lo + height, n)
            z, o = zs[: hi - lo], offsets[: hi - lo]
            with np.errstate(over="ignore"):
                np.subtract(edges, points[lo:hi, None], out=z)
                z /= sigma
            np.subtract(z.view(np.int64), starts[lo:hi], out=o)
            miss = o.view(np.uint64) > 2 * w
            missed = ndtr(z[miss])
            o += bases[lo:hi]
            # "clip", not "raise": the latter buffers a copy of its output.
            # ndtr(-inf) and ndtr(inf) are exactly 0 and 1, so the open outer
            # cells close exactly
            np.take(table, o, out=z, mode="clip")
            z[miss] = missed
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
        _require_distribution(shares, "shares")
        kernel = [] if self.kernel is None else [self.kernel]
        _require_same_space(self.pop, *fns, *kernel)
        labels = tuple(self.labels)
        if not labels:
            labels = tuple(
                _LABELS[i] if i < len(_LABELS) else f"S{i}" for i in range(shares.size)
            )
        if len(labels) != shares.size:
            raise ValidationError("labels: need one label per share")
        repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
        if repeated:
            raise ValidationError(f"labels: must be distinct, {repeated[0]!r} repeats")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "cost_fns", fns)
        object.__setattr__(self, "labels", labels)

    @property
    def space(self) -> FeatureSpace:
        return self.pop.space

    @property
    def k(self) -> int:
        return int(self.shares.size)


_ONE_SHARE = _frozen_array((1.0,), "shares")


def _single(
    pop: Population, c: CostFunction, kernel: NoiseKernel | None = None
) -> SubpopulationScenario:
    """The one-group scenario: the whole population pays cost ``c``.

    Built as :func:`shift_cost` builds a cost: one share of exactly 1.0 and
    the one default label pass their checks by construction, so only the
    grids are compared.
    """
    _require_same_space(pop, c, *([] if kernel is None else [kernel]))
    scen = object.__new__(SubpopulationScenario)
    for name, value in (
        ("pop", pop),
        ("shares", _ONE_SHARE),
        ("cost_fns", (c,)),
        ("kernel", kernel),
        ("labels", (_LABELS[0],)),
    ):
        object.__setattr__(scen, name, value)
    return scen


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solver's winner plus enough context to reproduce it."""

    classifier: Classifier
    objective: float
    method: str
    tau: float | None = None
    strict: bool | None = None
    details: dict[str, Any] | None = None
