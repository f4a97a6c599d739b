"""The evaluation core: one best response, one payoff path, one threshold scan.

A pure-Python best response written from the ``_target_indices`` docstring
is the reference every fast path is checked against; the separable-cost
path must also repeat the generic path's knife-edge warning word for word.
The payoff wrappers must all reject objects on another grid; the threshold
scan serves both objectives; and imports run one way, so no module imports
inside a function, save the LP's deferred scipy imports.  Every function the benchmark traces must still exist.
The package exports exactly the names its modules list in ``__all__``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stratclass
from stratclass import (
    KNIFE_EDGE_ATOL,
    Classifier,
    CostFunction,
    FeatureSpace,
    GaussianInstance,
    KnifeEdgeWarning,
    Population,
    SubpopulationScenario,
    discretize_instance,
    efficiency,
    noisy_efficiency,
    noisy_strategy_cost,
    noisy_utility,
    parse_scenario,
    shift_cost,
    solve_deterministic_noisy,
    strategy_cost,
    subpop_accuracies,
    threshold_sweep,
    utility,
)
from stratclass import model
from stratclass.game import _accuracy, _Payoffs, _strategy_cost, _target_indices
from stratclass.model import ValidationError
from stratclass import noise
from stratclass.noise import _fast_path_ok, _fast_threshold_targets, _first_movers
from stratclass.scenario import noise_rebuilder
from stratclass.sampling import (
    random_kernel,
    random_population,
    random_simple_cost,
    random_space,
)


def reference_targets(q, c) -> list[int]:
    """Best response by the definition, one contestant and one move at a time.

    A move i -> j is available iff q[j] - q[i] > c[i, j] + KNIFE_EDGE_ATOL.
    Among the available moves plus staying put, the contestant takes the
    highest value; ties go to the smallest grid index.
    """
    n = len(q)
    out = []
    for i in range(n):
        best = None
        for j in range(n):
            if j == i or q[j] - q[i] > c[i, j] + KNIFE_EDGE_ATOL:
                if best is None or q[j] > q[best]:
                    best = j
        out.append(best)
    return out


def _quiet_targets(values, costs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KnifeEdgeWarning)
        return _target_indices(values, costs)


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    """Acceptance values with exact ties, endpoints and a shared level."""
    q = rng.uniform(0.0, 1.0, size=shape)
    snap = rng.random(shape) < 0.3
    q[snap] = rng.choice([0.0, 0.5, 1.0, float(q.flat[0])], size=int(snap.sum()))
    return q


def _costs(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Nonnegative costs, some set on or just beside the knife edge of ``q``."""
    n = q.size
    c = rng.uniform(0.0, 1.2, size=(n, n)) * (rng.random((n, n)) < 0.8)
    gains = q[None, :] - q[:, None]
    offsets = rng.choice([0.0, 0.5, -0.5, 2.0, -2.0], size=(n, n)) * KNIFE_EDGE_ATOL
    edge = (rng.random((n, n)) < 0.3) & (gains > 0)
    c[edge] = np.maximum(gains[edge] + offsets[edge], 0.0)
    return c


class TestReferenceBestResponse:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_single_row_matches_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        q = _values(rng, n)
        c = _costs(rng, q)
        assert _quiet_targets(q, c).tolist() == reference_targets(q, c)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_simple_costs_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        c = random_simple_cost(rng, space, scale=float(rng.uniform(0.05, 1.5))).costs
        q = _values(rng, n)
        assert _quiet_targets(q, c).tolist() == reference_targets(q, c)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), batch=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_row_by_row(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        block = _values(rng, (batch, n))
        c = _costs(rng, block[0])
        got = _quiet_targets(block, c)
        assert got.shape == (batch, n)
        for b in range(batch):
            assert got[b].tolist() == _quiet_targets(block[b], c).tolist()

    def test_batch_warns_on_a_knife_edge_row(self):
        c = np.array([[0.0, 0.4], [0.0, 0.0]])
        block = np.array([[0.0, 0.0], [0.0, 0.4 + 0.5 * KNIFE_EDGE_ATOL]])
        with pytest.warns(KnifeEdgeWarning, match="move 0 -> 1"):
            got = _target_indices(block, c)
        assert got.tolist() == [[0, 1], [0, 1]]


class TestFastThresholdPath:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        eps=st.sampled_from([None, -1e-11, -2e-12, 2e-12, 1e-11, 1e-9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_generic_path_at_every_cut(self, seed, n, eps):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        c = random_simple_cost(rng, space, scale=float(rng.uniform(0.05, 2.0)))
        costs = c.costs
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        if eps is not None and upper.any():
            # lift the upper triangle so one entry lands just beside the unit
            # gain; a constant lift keeps every row nondecreasing
            below = costs[upper][costs[upper] < 1.0]
            if below.size:
                lift = 1.0 - float(rng.choice(below)) + eps
                c = CostFunction(space, np.where(upper, costs + lift, 0.0))
                costs = c.costs
        # the condition threshold_sweep checks before using the fast path
        assume(_fast_path_ok(c))
        first = _first_movers(c)
        for start in range(n + 1):
            probs = np.zeros(n)
            probs[start:] = 1.0
            low, paid = _fast_threshold_targets(c, first, start)
            assert 0 <= low <= start
            movers = np.arange(low, start)
            assert paid.tobytes() == np.array([costs[i, start] for i in movers]).tobytes()
            fast = np.arange(n)
            fast[movers] = start
            assert fast.tolist() == _quiet_targets(probs, costs).tolist()
            assert fast.tolist() == reference_targets(probs, costs)


# ------------------------------------------------------- separable costs


def _recorded(call, *args):
    """``call(*args)`` and the messages of every KnifeEdgeWarning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args)
    return out, [str(w.message) for w in caught if w.category is KnifeEdgeWarning]


def _ramp(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nondecreasing a with flat stretches, where upward moves are free."""
    steps = rng.uniform(0.0, 0.6, size=n) * (rng.random(n) < 0.6)
    return np.cumsum(steps) + rng.uniform(-2.0, 2.0)


def _separable_values(rng: np.random.Generator, space: FeatureSpace, a: np.ndarray):
    """Acceptance values with ties, ulp wobble, and gains on the knife edge."""
    n = space.n
    kind = rng.integers(3)
    if kind == 0:
        q = _values(rng, n)
    else:
        # a noisy suffix classifier saturates with one-ulp wobble
        probs = np.zeros(n)
        probs[rng.integers(n + 1) :] = 1.0
        q = random_kernel(rng, space).rows @ probs
    if kind == 2 or rng.random() < 0.5:
        for _ in range(3):
            i, j = sorted(int(v) for v in rng.integers(n, size=2))
            if j > i:
                offset = float(rng.choice([0.0, 0.5, -0.5, 2.0, -2.0])) * KNIFE_EDGE_ATOL
                q[j] = q[i] + (a[j] - a[i]) + offset
    return q


class TestSeparableBestResponse:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_and_generic_path(self, seed, n):
        rng = np.random.default_rng(seed)
        space = FeatureSpace(np.arange(n, dtype=float))
        a = _ramp(rng, n)
        c = shift_cost(space, a)
        q = _separable_values(rng, space, a)
        got, got_warned = _recorded(_target_indices, q, c)
        tabular = CostFunction(space, c.costs)
        assert tabular._a is None
        generic, generic_warned = _recorded(_target_indices, q, tabular)
        assert got.tolist() == reference_targets(q, c.costs)
        assert got.tolist() == generic.tolist()
        assert got_warned == generic_warned

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        rows=st.integers(1, 3),
        slack=st.sampled_from([None, 0.0, 1e-13, 0.05]),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_blocks_change_nothing(self, seed, n, rows, slack):
        # a budget of a few rows walks the upward block and the downward
        # search in pieces: the same targets and the same first knife edge
        rng = np.random.default_rng(seed)
        space = FeatureSpace(np.arange(n, dtype=float))
        a = _ramp(rng, n)
        c = shift_cost(space, a)
        q = _separable_values(rng, space, a)
        with mock.patch.object(model, "_BLOCK_BYTES", 2**62):
            whole, whole_warned = _recorded(_target_indices, q, c, slack)
        # upward blocks of at least ``rows`` rows (48 bytes a cell), downward
        # blocks capped at 3 * rows (16 bytes a cell)
        with mock.patch.object(model, "_BLOCK_BYTES", 48 * n * rows):
            blocked, blocked_warned = _recorded(_target_indices, q, c, slack)
        assert (blocked is None) == (whole is None)
        if whole is not None:
            assert blocked.tolist() == whole.tolist()
        assert blocked_warned == whole_warned

    def test_saturated_wobble_warns_on_the_first_pair(self):
        # values equal up to an ulp: a downward pair is the first knife edge
        space = FeatureSpace([0.0, 1.0, 2.0, 3.0])
        c = shift_cost(space, [0.0, 0.0, 1.0, 1.0])
        one_less = np.nextafter(1.0, 0.0)
        q = np.array([0.2, 1.0, one_less, 1.0])
        got, warned = _recorded(_target_indices, q, c)
        assert got.tolist() == [1, 1, 2, 3]
        assert len(warned) == 1 and "move 2 -> 1" in warned[0]


def report_fields(r):
    """The payoffs of a report or of a sweep point, which extends one."""
    return (r.utility, r.cost, r.efficiency, r.utilities, r.costs, r.gap)


@pytest.mark.parametrize("sigma", [0.3, 1.0])
def test_sweep_matches_tabular_costs(sigma):
    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=sigma)
    scen = discretize_instance(inst, n=201).scenario
    assert all(fn._a is not None for fn in scen.cost_fns)
    tabular = dataclasses.replace(
        scen, cost_fns=tuple(CostFunction(scen.space, fn.costs) for fn in scen.cost_fns)
    )
    assert all(fn._a is None for fn in tabular.cost_fns)
    n = scen.space.n
    # a tabular noisy sweep takes the matvec at every cut: each point is the
    # cut's own report, and the warnings come in the sweep's visit order
    want, want_warned = {}, []
    for start in range(n, -1, -1):
        probs = np.zeros(n)
        probs[start:] = 1.0
        want[start], warned = _recorded(subpop_accuracies, Classifier(scen.space, probs), tabular)
        want_warned += warned
    points, warned = _recorded(threshold_sweep, tabular)
    assert [repr(report_fields(p)) for p in points] == [
        repr(report_fields(want[s])) for s in range(n + 1)
    ]
    assert warned == want_warned
    # the separable sweep certifies its targets, so its costs are the same bits
    got, _ = _recorded(threshold_sweep, scen)
    assert [repr((p.cost, p.costs)) for p in got] == [
        repr((p.cost, p.costs)) for p in points
    ]
    solved, _ = _recorded(solve_deterministic_noisy, scen)
    expected, _ = _recorded(solve_deterministic_noisy, tabular)
    assert (solved.tau, solved.strict) == (expected.tau, expected.strict)
    assert solved.objective == expected.objective


def _near_unit_rise(rng: np.random.Generator, n: int) -> np.ndarray:
    """A ramp with flat stretches and pairs whose rise is 1 or just beside it."""
    a = _ramp(rng, n)
    for _ in range(int(rng.integers(4))):
        i = int(rng.integers(n))
        rise = 1.0 + float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * KNIFE_EDGE_ATOL
        # the first j with a[j] - a[i] >= rise, or the top: shifting a[j:]
        # onto a[i] + rise keeps a nondecreasing
        j = min(int(np.searchsorted(a, a[i] + rise)), n - 1)
        if j > i:
            a[j:] += a[i] + rise - a[j]
    return np.maximum.accumulate(a)  # in case a shift rounded an ulp low


def _bits(points) -> list[str]:
    """Every field of every point; a float's repr round-trips, sign of zero included."""
    return [repr(dataclasses.astuple(p)) for p in points]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
@settings(max_examples=300, deadline=None)
def test_noiseless_sweep_matches_tabular_copies(seed, n):
    rng = np.random.default_rng(seed)
    space = FeatureSpace(np.arange(n, dtype=float))
    share = float(rng.uniform(0.1, 0.9))
    scen = SubpopulationScenario(
        pop=random_population(rng, space),
        shares=np.array([share, 1.0 - share]),
        cost_fns=tuple(shift_cost(space, _near_unit_rise(rng, n)) for _ in range(2)),
    )
    got, got_warned = _recorded(threshold_sweep, scen)
    tabular = dataclasses.replace(
        scen, cost_fns=tuple(CostFunction(space, fn.costs) for fn in scen.cost_fns)
    )
    want, want_warned = _recorded(threshold_sweep, tabular)
    assert _bits(got) == _bits(want)
    assert got_warned == want_warned


# -------------------------------------- noiseless sweep against per-cut payoffs


def _sweep_cost(rng: np.random.Generator, space: FeatureSpace, kind: str) -> CostFunction:
    """A cost of one kind, often with an entry within 2 KNIFE_EDGE_ATOL of the unit gain.

    ``shift`` is separable, with flat stretches and rises at or beside 1;
    ``shift-table`` is its tabular copy; ``simple`` is a tabular cost that no
    ``a`` describes.  An entry within KNIFE_EDGE_ATOL of 1 makes
    :func:`_fast_path_ok` refuse the cost, so the generic path runs.
    """
    n = space.n
    if kind != "simple":
        c = shift_cost(space, _near_unit_rise(rng, n))
        return c if kind == "shift" else CostFunction(space, c.costs)
    c = random_simple_cost(rng, space, scale=float(rng.uniform(0.05, 2.0)))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    below = c.costs[upper & (c.costs < 1.0)]
    if below.size == 0 or rng.random() < 0.3:
        return c
    # a constant lift of the upper triangle keeps every row nondecreasing
    offset = float(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])) * KNIFE_EDGE_ATOL
    return CostFunction(space, np.where(upper, c.costs + 1.0 - float(rng.choice(below)) + offset, 0.0))


def _sweep_population(rng: np.random.Generator, space: FeatureSpace) -> Population:
    """Random masses, and h with runs of exact 0 and 1, where 0 * (2h - 1) is -0.0."""
    n = space.n
    h = np.sort(rng.uniform(0.0, 1.0, size=n))
    h[: int(rng.integers(n + 1))] = 0.0
    h[n - int(rng.integers(n + 1)) :] = 1.0
    return Population(space, rng.dirichlet(np.ones(n)), h)


def _assert_sweep_is_per_cut_payoffs(scen: SubpopulationScenario) -> None:
    """Every point of the sweep, bit for bit, is ``subpop_accuracies`` at its cut."""
    space = scen.space
    points = _recorded(threshold_sweep, scen)[0]
    assert [p.start for p in points] == list(range(space.n + 1))
    for p in points:
        clf = Classifier.threshold(space, p.tau, strict=p.strict)
        rep = _recorded(subpop_accuracies, clf, scen)[0]
        cut = np.zeros(space.n)
        cut[p.start :] = 1.0
        assert clf.probs.tobytes() == cut.tobytes()
        assert (p.tau, p.strict) == (float(space.points[max(p.start - 1, 0)]), p.start > 0)
        assert repr(report_fields(p)) == repr(report_fields(rep)), p.start


_COST_KINDS = ("shift", "shift-table", "simple")


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kinds=st.lists(st.sampled_from(_COST_KINDS), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_noiseless_sweep_matches_per_cut_payoffs(seed, n, kinds):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    fns = tuple(_sweep_cost(rng, space, kind) for kind in kinds)
    scen = SubpopulationScenario(
        pop=_sweep_population(rng, space),
        shares=rng.dirichlet(np.ones(len(fns))),
        cost_fns=fns,
    )
    _assert_sweep_is_per_cut_payoffs(scen)


def test_sweep_cost_draws_take_both_paths():
    # the draws above reach the fast and the generic path for every kind
    seen = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        space = random_space(rng, 12)
        for kind in _COST_KINDS:
            seen.add((kind, _fast_path_ok(_sweep_cost(rng, space, kind))))
    assert seen == {(kind, ok) for kind in _COST_KINDS for ok in (True, False)}


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), separable=st.booleans())
@settings(max_examples=200, deadline=None)
def test_payoffs_where_nobody_moves_match_the_gather(seed, n, separable):
    # a group where nobody moves reads q in place and pays exactly +0.0, the
    # same bits as gathering q and the diagonal costs at the stay targets
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    fn = shift_cost(space, _ramp(rng, n)) if separable else random_simple_cost(rng, space)
    payoffs = _Payoffs(SubpopulationScenario(_sweep_population(rng, space), np.ones(1), (fn,)))
    q = _values(rng, n)
    stay = np.arange(n)
    got = payoffs.group(0, q, stay)
    x = q[stay] * payoffs.w + payoffs.v
    want = _accuracy(payoffs.pi, x), _strategy_cost(payoffs.pih, fn.at(stay, stay))
    assert repr(got) == repr(want)
    assert repr(got[1]) == "0.0"


def test_noiseless_sweep_matches_per_cut_payoffs_at_scale(unfair_disc, rebuild_1601):
    # reproduce thm3's n = 801 instance, and the rebuild-1601 benchmark grid at seed 0
    _assert_sweep_is_per_cut_payoffs(unfair_disc.scenario)
    assert rebuild_1601.scenario.kernel is None and rebuild_1601.scenario.space.n == 1601
    _assert_sweep_is_per_cut_payoffs(rebuild_1601.scenario)



# ---------------------------------------- the first-mover table of the fast path


def _jumps(c: CostFunction, i: int, s: int) -> bool:
    """The jump test of contestant i to cut s, one entry at a time."""
    return bool(1.0 > c.at(np.array([i]), np.array([s]))[0] + KNIFE_EDGE_ATOL)


def _assert_first_movers(c: CostFunction) -> None:
    n = c.n
    first = _first_movers(c)
    assert len(first) == n + 1 and first[0] == 0 and first[n] == n
    for s in range(1, n):
        brute = next((i for i in range(s) if _jumps(c, i, s)), s)
        assert first[s] == brute, s
        assert all(_jumps(c, i, s) for i in range(first[s], s)), s


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24))
@settings(max_examples=200, deadline=None)
def test_first_movers_of_a_near_unit_rise(seed, n):
    # a separable cost is monotone down every column, knife edges or not
    rng = np.random.default_rng(seed)
    _assert_first_movers(shift_cost(random_space(rng, n), _near_unit_rise(rng, n)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    kind=st.sampled_from(["shift-table", "simple"]),
)
@settings(max_examples=200, deadline=None)
def test_first_movers_of_a_tabular_cost_on_the_fast_path(seed, n, kind):
    rng = np.random.default_rng(seed)
    c = _sweep_cost(rng, random_space(rng, n), kind)
    assume(_fast_path_ok(c))
    _assert_first_movers(c)


def test_a_column_rising_going_down_takes_the_generic_path():
    # rows nondecreasing, but column 2 rises from 0.6 to 1.5 going down: at
    # cut 2 contestant 0 jumps and contestant 1 does not, so the movers are
    # no range ending at the cut
    space = FeatureSpace([0.0, 1.0, 2.0, 3.0])
    costs = np.array(
        [
            [0.0, 0.5, 0.6, 0.7],
            [0.0, 0.0, 1.5, 1.6],
            [0.0, 0.0, 0.0, 0.2],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    c = CostFunction(space, costs)
    assert np.all(np.diff(costs, axis=1) >= 0.0)
    assert not _fast_path_ok(c)
    probs = np.array([0.0, 0.0, 1.0, 1.0])
    assert _quiet_targets(probs, costs).tolist() == [2, 1, 2, 3]
    pop = Population(space, np.full(4, 0.25), np.array([0.1, 0.4, 0.6, 0.9]))
    _assert_sweep_is_per_cut_payoffs(SubpopulationScenario(pop, np.ones(1), (c,)))


def test_noiseless_fast_path_answers_each_group_once_per_cut(monkeypatch):
    # the benchmark's trace counts noise._fast_threshold_targets calls for
    # noise.fast_path_ratio: one per fast group per cut, and no generic call
    rng = np.random.default_rng(5)
    n = 30
    space = FeatureSpace(np.arange(n, dtype=float))
    separable = shift_cost(space, np.arange(n) * 0.3)
    fns = (separable, CostFunction(space, shift_cost(space, np.arange(n) * 0.7).costs))
    assert all(_fast_path_ok(fn) for fn in fns)
    scen = SubpopulationScenario(_sweep_population(rng, space), np.array([0.4, 0.6]), fns)
    calls = {"fast": [], "generic": 0}
    fast, generic = noise._fast_threshold_targets, noise._target_indices

    def counted_fast(c, first, start):
        calls["fast"].append((fns.index(c), start))
        return fast(c, first, start)

    def counted_generic(*args, **kwargs):
        calls["generic"] += 1
        return generic(*args, **kwargs)

    monkeypatch.setattr(noise, "_fast_threshold_targets", counted_fast)
    monkeypatch.setattr(noise, "_target_indices", counted_generic)
    points = threshold_sweep(scen)
    assert len(points) == n + 1
    assert calls["fast"] == [(g, s) for s in range(n + 1) for g in range(2)]
    assert calls["generic"] == 0

_SHIFT_KINDS = {
    "shift": "kind: shift\n  a: [0.0, 0.5, 1.5]",
    "linear": "kind: linear\n  sigma: 0.5",
    "tabular": "kind: tabular\n  matrix: [[0, 0.5, 1.5], [0, 0, 1.0], [0, 0, 0]]",
}


@pytest.mark.parametrize("kind", sorted(_SHIFT_KINDS))
def test_scenario_cost_kinds_keep_a_only_when_separable(kind):
    text = (
        "features: [-1.0, 0.0, 1.0]\npi: [0.25, 0.5, 0.25]\nh: [0.2, 0.5, 0.8]\n"
        f"cost:\n  {_SHIFT_KINDS[kind]}\n"
    )
    (fn,) = parse_scenario(text).scenario.cost_fns
    assert (fn._a is not None) == (kind != "tabular")
    if fn._a is not None:
        assert np.array_equal(fn.costs, np.maximum(fn._a[None, :] - fn._a[:, None], 0.0))


def test_only_shift_cost_keeps_a():
    space = FeatureSpace([0.0, 1.0, 2.0])
    a = np.array([0.0, 0.25, 1.0])
    c = shift_cost(space, a)
    assert np.array_equal(c._a, a) and c._a is not a
    assert not c._a.flags.writeable and a.flags.writeable
    assert "_a" not in repr(c)
    assert dataclasses.replace(c)._a is None
    assert dataclasses.replace(c, costs=c.costs * 2.0)._a is None
    assert CostFunction(space, c.costs)._a is None
    assert random_simple_cost(np.random.default_rng(0), space)._a is None


def _matrix_as_validated(a: np.ndarray, space: FeatureSpace) -> np.ndarray:
    """The matrix a tabular cost keeps for max(a[j] - a[i], 0): the dense form."""
    return CostFunction(space, np.maximum(a[None, :] - a[:, None], 0.0)).costs


def _signed_zero_ramp(n: int) -> np.ndarray:
    """The linear family's a on a Gaussian grid, with -0.0 and +0.0 at its centre."""
    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
    a = discretize_instance(inst, n=201).scenario.space.points / 0.7
    a = np.interp(np.linspace(0, 200, n), np.arange(201), a)
    c = n // 2
    a[c - 2 : c + 1] = -0.0
    a[c + 1 : c + 3] = 0.0
    return a


class TestSeparableStorage:
    @pytest.mark.parametrize("n", [201, 801, 1601, 3201])
    def test_costs_and_entries_match_the_dense_form_bit_for_bit(self, n):
        a = _signed_zero_ramp(n)
        space = FeatureSpace(np.arange(n, dtype=float))
        c = shift_cost(space, a)
        assert "costs" not in c.__dict__
        want = _matrix_as_validated(a, space).view(np.uint64)
        assert not np.signbit(want.view(float)).any()
        rng = np.random.default_rng(n)
        rows, cols = rng.integers(n, size=(2, 4 * n))
        assert np.array_equal(c.at(rows, cols).view(np.uint64), want[rows, cols])
        block = (np.arange(n // 2 - 40, n // 2 + 40)[:, None], np.arange(n))
        assert np.array_equal(c.at(*block).view(np.uint64), want[block])
        got = c.costs
        assert np.array_equal(got.view(np.uint64), want)
        assert c.costs is got and not got.flags.writeable

    def test_repr_builds_no_matrix(self):
        c = shift_cost(FeatureSpace(np.arange(3.0)), [0.0, 0.5, 2.0])
        assert "a=array([0. , 0.5, 2. ])" in repr(c)
        assert "costs" not in c.__dict__
        tab = random_simple_cost(np.random.default_rng(1), FeatureSpace(np.arange(3.0)))
        assert "costs=array(" in repr(tab)

    def test_tabular_entries_are_the_matrix(self):
        c = random_simple_cost(np.random.default_rng(1), FeatureSpace(np.arange(6.0)))
        rows, cols = np.random.default_rng(2).integers(6, size=(2, 20))
        assert np.array_equal(c.at(rows, cols), c.costs[rows, cols])

    @pytest.mark.parametrize("a", [[-1e308, 1e308], [-1e308, 0.0, 1e308]])
    def test_overflowing_rise_refused(self, a):
        with pytest.raises(ValidationError, match="^costs: entries must be finite$"):
            shift_cost(FeatureSpace(np.arange(float(len(a)))), a)

    def test_racing_threads_cache_equal_bits(self):
        n = 401
        a = _signed_zero_ramp(n)
        want = _matrix_as_validated(a, FeatureSpace(np.arange(float(n))))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                c = shift_cost(FeatureSpace(np.arange(float(n))), a)
                seen = []
                threads = [threading.Thread(target=lambda: seen.append(c.costs)) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads) and len(seen) == 8
                for m in seen + [c.costs]:
                    assert np.array_equal(m.view(np.uint64), want.view(np.uint64))
        finally:
            sys.setswitchinterval(switch)

    def test_evaluation_builds_no_matrix(self):
        text = (
            "gaussian_instance: {t: 1.0, d: 100.0, sigma_A: 0.5, sigma_B: 1.0, s_A: 0.25, n: 201}\n"
        )
        for sigma in (0.0, 0.5):
            inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=sigma)
            scen = discretize_instance(inst, n=201).scenario
            clf = Classifier.threshold(scen.space, 0.0, strict=True)
            subpop_accuracies(clf, scen)
            threshold_sweep(scen)
            solve_deterministic_noisy(scen, "utility")
            solve_deterministic_noisy(scen, "efficiency")
            row, row_clf = noise_rebuilder(parse_scenario(text))(sigma)
            subpop_accuracies(row_clf, row)
            for fn in scen.cost_fns + row.cost_fns:
                assert fn._a is not None and "costs" not in fn.__dict__


# ------------------------------------------------------------ grid checks

_HERE = FeatureSpace([0.0, 1.0, 2.0])
_THERE = FeatureSpace([0.0, 1.5, 2.0])

PAYOFFS = {
    "utility": utility,
    "strategy_cost": strategy_cost,
    "efficiency": efficiency,
    "noisy_utility": lambda f, pop, c: noisy_utility(f, pop, None, c),
    "noisy_strategy_cost": lambda f, pop, c: noisy_strategy_cost(f, pop, None, c),
    "noisy_efficiency": lambda f, pop, c: noisy_efficiency(f, pop, None, c),
}


def _instance(space: FeatureSpace):
    pop = Population(space, [0.3, 0.3, 0.4], [0.0, 1.0, 1.0])
    cost = CostFunction(space, [[0.0, 0.2, 0.9], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
    return pop, cost


@pytest.mark.parametrize("elsewhere", ["cost", "population"])
@pytest.mark.parametrize("name", sorted(PAYOFFS))
def test_payoffs_reject_objects_on_another_grid(name, elsewhere):
    pop, cost = _instance(_HERE)
    pop_there, cost_there = _instance(_THERE)
    if elsewhere == "cost":
        cost = cost_there
    else:
        pop = pop_there
    f = Classifier(_HERE, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="different grids"):
        PAYOFFS[name](f, pop, cost)


# ------------------------------------------------------ threshold objective


def _noisy_two_groups(seed: int, n: int) -> SubpopulationScenario:
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    share = float(rng.uniform(0.1, 0.9))
    return SubpopulationScenario(
        pop=random_population(rng, space),
        shares=np.array([share, 1.0 - share]),
        cost_fns=(random_simple_cost(rng, space), random_simple_cost(rng, space, 0.3)),
        kernel=random_kernel(rng, space),
    )


class TestThresholdObjective:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_efficiency_picks_first_best_cut(self, seed, n):
        scen = _noisy_two_groups(seed, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KnifeEdgeWarning)
            sweep = threshold_sweep(scen)
            report = solve_deterministic_noisy(scen, "efficiency")
            direct = subpop_accuracies(report.classifier, scen)
        effs = [p.efficiency for p in sweep]
        winner = sweep[effs.index(max(effs))]
        assert (report.tau, report.strict) == (winner.tau, winner.strict)
        expected = Classifier.threshold(scen.space, winner.tau, strict=winner.strict)
        assert np.array_equal(report.classifier.probs, expected.probs)
        assert report.objective == direct.efficiency
        assert report.details["report"].efficiency == direct.efficiency

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            solve_deterministic_noisy(_noisy_two_groups(3, 3), "cost")


# --------------------------------------------------------------- layering


# (file, module) pairs that may be imported inside a function: only the
# efficiency LP needs scipy.optimize and scipy.sparse, and only a Gaussian
# grid or kernel needs scipy.special, so each loads on its first use and a
# command that needs none of them never pays for them
DEFERRED_IMPORTS = {
    ("solvers.py", "scipy.optimize"),
    ("solvers.py", "scipy.sparse"),
    ("model.py", "scipy.special"),
}


def test_no_imports_inside_functions():
    package = Path(stratclass.__file__).parent
    nested, deferred = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # a relative import keeps its dots, so it never matches
                    modules = ["." * node.level + (node.module or "")]
                else:
                    continue
                for module in modules:
                    if (path.name, module) in DEFERRED_IMPORTS:
                        deferred.add((path.name, module))
                    else:
                        nested.add(f"{path.name}:{node.lineno}:{module}")
    assert sorted(nested) == []
    # an entry nothing uses any more goes too
    assert deferred == DEFERRED_IMPORTS


def test_no_assert_statements():
    # python -O strips assert; a check the package relies on must raise
    package = Path(stratclass.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_reads_no_scenario_source():
    # the scenario format has one owner: cli.py works on built objects only
    tree = ast.parse((Path(stratclass.__file__).parent / "cli.py").read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "source"
    ]
    assert reads == []


# the modules whose public names the package re-exports, in import order
EXPORTING = ("model", "game", "solvers", "stability", "noise", "analytic", "scenario", "reproduce")


def test_package_exports_each_module_list_and_nothing_else():
    # a module's __all__ is the one list of its public names
    modules = [importlib.import_module(f"stratclass.{name}") for name in EXPORTING]
    union = list(dict.fromkeys(name for m in modules for name in m.__all__))
    assert stratclass.__all__ == union
    assert "shift_cost" in union and len(union) == 75
    for m in modules:
        for name in m.__all__:
            assert getattr(stratclass, name) is getattr(m, name), f"{m.__name__}.{name}"
    bound: dict = {}
    exec("from stratclass import *", bound)
    assert [name for name in union if bound.get(name) is not getattr(stratclass, name)] == []


def test_benchmark_traced_names_resolve():
    # a traced benchmark run reports correct: false for a name it cannot find,
    # so a rename must fail here first; the file is parsed, never executed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    ]
    pairs = [(row.elts[1].value, row.elts[2].value) for row in table.elts]
    assert ("stability", "pooled_mass") in pairs
    missing = []
    for module, attr_path in pairs:
        owner = importlib.import_module(f"stratclass.{module}")
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{attr_path}")
    assert missing == []
