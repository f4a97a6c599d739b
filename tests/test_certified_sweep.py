"""The noisy threshold scan against a scan written from the definitions.

The noisy sweep reads every cut's acceptance curve off one cumulative sum and
keeps a best response only when it certifies itself against the matvec's
rounding, which only a separable cost can; a sweep with a tabular group takes
the matvec at every cut, and near-best cuts are evaluated again on it.  These
tests hold the sweep to the plain scan (one matvec and one
``subpop_accuracies`` per cut, first strict maximum kept) and the separable
certificate to one written from its definition.
"""

from __future__ import annotations

import dataclasses
import inspect
import warnings

import numpy as np
import pytest
import test_cli
import test_scenario
from test_core import _recorded, reference_targets, report_fields
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    GaussianInstance,
    NoiseKernel,
    SubpopulationScenario,
    discretize_instance,
    game,
    model,
    noise,
    scenario,
    shift_cost,
    solve_deterministic_noisy,
    subpop_accuracies,
    threshold_sweep,
)
from stratclass.game import KNIFE_EDGE_ATOL, _downward, _target_indices
from stratclass.model import _cell_edges
from stratclass.sampling import (
    random_kernel,
    random_population,
    random_simple_cost,
    random_space,
)


def _quiet(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call(*args)


def _cut(scen: SubpopulationScenario, start: int) -> Classifier:
    pts = scen.space.points
    clf = Classifier.threshold(scen.space, pts[max(start - 1, 0)], strict=start > 0)
    want = np.zeros(scen.space.n)
    want[start:] = 1.0
    assert clf.probs.tobytes() == want.tobytes()
    return clf


def _reference(scen: SubpopulationScenario):
    """Every cut's report through ``subpop_accuracies``, which takes the matvec."""
    return [_quiet(subpop_accuracies, _cut(scen, s), scen) for s in range(scen.space.n + 1)]


def _first_max(reports, objective: str) -> int:
    best = 0
    for s, rep in enumerate(reports):
        if getattr(rep, objective) > getattr(reports[best], objective):
            best = s
    return best


def _assert_matches_reference(scen: SubpopulationScenario) -> None:
    reports = _reference(scen)
    points = _quiet(threshold_sweep, scen)
    for p, rep in zip(points, reports):
        # certified targets are the matvec's, so every cost is bit-identical
        assert (p.cost, p.costs) == (rep.cost, rep.costs)
    for objective in ("utility", "efficiency"):
        start = _first_max(reports, objective)
        solved = _quiet(solve_deterministic_noisy, scen, objective)
        clf = _cut(scen, start)
        assert solved.classifier.probs.tobytes() == clf.probs.tobytes()
        got = dataclasses.astuple(solved.details["report"])
        assert repr(got) == repr(dataclasses.astuple(reports[start]))
        # the winner's own sweep point is exact, not read off the cheap curve
        assert repr(report_fields(points[start])) == repr(report_fields(reports[start]))


def _separable(rng: np.random.Generator, space) -> CostFunction:
    steps = rng.uniform(0.0, 0.6, size=space.n) * (rng.random(space.n) < 0.7)
    return shift_cost(space, np.cumsum(steps))


def _knife_edge(rng, scen: SubpopulationScenario, fn: CostFunction) -> CostFunction:
    """``fn`` with one upward pair priced at its gain less the band, at some cut.

    On the matvec that pair sits on its threshold, where the cheap curve's
    last bits can flip it.
    """
    n = scen.space.n
    start = int(rng.integers(n + 1))
    q = scen.kernel.rows @ _cut(scen, start).probs
    i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
    rise = q[j] - q[i] - KNIFE_EDGE_ATOL
    if rise <= 0.0:
        return fn
    if fn._a is None:
        costs = fn.costs.copy()
        costs[i, j] = rise
        return CostFunction(scen.space, costs)
    a = np.array(fn._a)
    a[j:] += a[i] + rise - a[j]
    return shift_cost(scen.space, np.maximum.accumulate(a))


def _random_scenario(
    seed: int, n: int, separable: bool, groups: int, edge: bool, tie: bool, gaussian: bool
):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    pop = random_population(rng, space)
    # a Gaussian kernel gives every cut a nondecreasing curve; a Dirichlet one
    # gives curves with downward moves, which the certificate refuses
    if gaussian:
        kernel = NoiseKernel.gaussian(space, rng.uniform(0.1, 2.0))
    else:
        kernel = random_kernel(rng, space)
    if tie and n > 1:
        # nobody is observed at k, so cuts k and k + 1 face the same curve;
        # moving k's mass to a neighbour keeps a Gaussian kernel monotone
        k = int(rng.integers(n))
        rows = np.array(kernel.rows)
        rows[:, k + 1 if k + 1 < n else k - 1] += rows[:, k]
        rows[:, k] = 0.0
        kernel = NoiseKernel(space, rows / rows.sum(axis=1, keepdims=True))
    fns = [
        _separable(rng, space) if separable else random_simple_cost(rng, space)
        for _ in range(groups)
    ]
    shares = rng.dirichlet(np.ones(groups))
    scen = SubpopulationScenario(pop, shares, tuple(fns), kernel)
    if edge and n > 1:
        fns[0] = _knife_edge(rng, scen, fns[0])
        scen = dataclasses.replace(scen, cost_fns=tuple(fns))
    return scen


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    separable=st.booleans(),
    groups=st.integers(1, 2),
    edge=st.booleans(),
    tie=st.booleans(),
    gaussian=st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_certified_scan_matches_the_reference_scan(seed, n, separable, groups, edge, tie, gaussian):
    _assert_matches_reference(_random_scenario(seed, n, separable, groups, edge, tie, gaussian))


# id -> (sigma_a, sigma_b, s_a, sigma): two of the pinned instance's noise
# levels, then the benchmark's noisy instances at seeds 2 and 4, where group B moves
_INSTANCES = {
    "0.3": (0.5, 1.0, 0.25, 0.3),
    "1.0": (0.5, 1.0, 0.25, 1.0),
    "noisy-801-seed2": (0.5764, 0.9602, 0.218, 0.902),
    "noisy-801-seed4": (0.4677, 1.0145, 0.267, 0.9046),
}


def _instance_scenario(sigma_a, sigma_b, s_a, sigma, n=201):
    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=sigma_a, sigma_b=sigma_b, s_a=s_a, sigma=sigma)
    return discretize_instance(inst, n=n).scenario


@pytest.mark.parametrize("params", _INSTANCES.values(), ids=_INSTANCES.keys())
def test_certified_scan_matches_the_reference_on_an_instance(params):
    _assert_matches_reference(_instance_scenario(*params))


def _random_curve(rng: np.random.Generator, n: int, rising: bool) -> np.ndarray:
    """A curve with exact ties and knife-edge pairs; sorted if ``rising``.

    A rising curve is what a Gaussian kernel gives a threshold: no downward
    move is available, so the certificate decides only upward ones.
    """
    q = rng.uniform(0.0, 1.0, size=n)
    snap = rng.random(n) < 0.3
    q[snap] = rng.choice([0.0, 1.0, q[0], q[0] + KNIFE_EDGE_ATOL], size=int(snap.sum()))
    return np.sort(q) if rising else q


def reference_certifies(q, c, slack) -> bool:
    """Whether every decision of the best response clears ``slack``, by the definition.

    With margin (q[j] - q[i]) - (c[i, j] + KNIFE_EDGE_ATOL), every downward
    pair (j < i) has margin below -slack, every upward pair has margin
    outside [-slack, slack], and every available move but the pick trails
    the pick's value by more than slack.
    """
    n = len(q)
    picks = reference_targets(q, c)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            margin = (q[j] - q[i]) - (c[i, j] + KNIFE_EDGE_ATOL)
            if j < i and margin >= -slack:
                return False
            if j > i and abs(margin) <= slack:
                return False
            available = q[j] - q[i] > c[i, j] + KNIFE_EDGE_ATOL
            if available and j != picks[i] and q[picks[i]] - q[j] <= slack:
                return False
    return True


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    slack=st.sampled_from([0.0, 1e-13, 1e-12, 0.05]),
    rising=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_separable_certificate_matches_the_reference(seed, n, slack, rising):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    q = _random_curve(rng, n, rising)
    fn = _separable(rng, space)
    got = _quiet(_target_indices, q, fn, slack)
    assert (got is not None) == reference_certifies(q, fn.costs, slack)
    if got is not None:
        assert got.tolist() == reference_targets(q, fn.costs)


def _signed_ramp(rng: np.random.Generator, n: int, negative: bool) -> np.ndarray:
    """A nondecreasing a that lies wholly below zero or wholly at or above it."""
    a = np.cumsum(rng.uniform(0.0, 0.6, size=n) * (rng.random(n) < 0.7))
    return a - a[-1] - rng.uniform(0.0, 2.0) if negative else a + rng.uniform(0.0, 2.0)


def _dipped_curve(rng: np.random.Generator, n: int) -> np.ndarray:
    """A rising curve with dips whose drop lies within a few ulps of KNIFE_EDGE_ATOL."""
    q = np.sort(rng.uniform(0.0, 1.0, size=n))
    dips = rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(1, 3))), replace=False)
    for j in sorted(int(v) for v in dips):
        top = q[:j].max()
        q[j] = top - KNIFE_EDGE_ATOL - float(rng.integers(-3, 4)) * np.spacing(top)
    return q


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    negative=st.booleans(),
    slack=st.sampled_from([None, 0.0, 1e-13]),
)
@settings(max_examples=300, deadline=None)
def test_largest_drop_beside_the_band_matches_the_reference(seed, n, negative, slack):
    # the largest drop decides whether any downward target is built and, with
    # slack, whether the curve certifies; max|a| is read at either end of a
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    q = _dipped_curve(rng, n)
    fn = shift_cost(space, _signed_ramp(rng, n, negative))
    if slack is None:
        got, warned = _recorded(_target_indices, q, fn)
        generic, generic_warned = _recorded(_target_indices, q, CostFunction(space, fn.costs))
        assert got.tolist() == reference_targets(q, fn.costs) == generic.tolist()
        assert warned == generic_warned
        return
    got = _quiet(_target_indices, q, fn, slack)
    assert (got is not None) == reference_certifies(q, fn.costs, slack)
    if got is not None:
        assert got.tolist() == reference_targets(q, fn.costs)


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("above, target", [(True, [0, 0, 2]), (False, [0, 1, 2])])
def test_one_drop_an_ulp_either_side_of_the_band(negative, above, target):
    # a drop an ulp above the band moves down for free; one below it stays and warns
    space = FeatureSpace(np.array([0.0, 1.0, 2.0]))
    fn = shift_cost(space, np.array([0.0, 0.0, 1.0]) + (-3.0 if negative else 3.0))
    q = np.array([0.5, 0.0, 0.7])
    q[1] = np.nextafter(q[0] - KNIFE_EDGE_ATOL, -np.inf if above else np.inf)
    assert bool(q[0] - q[1] > KNIFE_EDGE_ATOL) is above
    got, warned = _recorded(_target_indices, q, fn)
    assert got.tolist() == target == reference_targets(q, fn.costs)
    assert len(warned) == (0 if above else 1)
    assert all("move 1 -> 0" in w for w in warned)


def _curve_block(rng: np.random.Generator, space, b: int, gaussian: bool, dip: bool) -> np.ndarray:
    """b cuts' curves, summed over the kernel's columns from the top as the sweep does.

    A Gaussian kernel gives nondecreasing curves, a Dirichlet one curves
    with drops far beyond the band.  Saturated plateaus wobble by a few ulps,
    and with ``dip`` one curve drops within a few ulps of the band.
    """
    n = space.n
    if gaussian:
        kernel = NoiseKernel.gaussian(space, rng.uniform(0.05, 2.0))
    else:
        kernel = random_kernel(rng, space)
    curves = np.cumsum(kernel.rows.T[::-1], axis=0)  # curve k faces cut n - 1 - k
    curves = curves[rng.integers(n, size=b)]
    plateau = curves >= curves.max(axis=1, keepdims=True) - 1e-9
    wobble = rng.integers(-3, 4, size=curves.shape) * np.spacing(curves)
    curves = np.where(plateau & (rng.random(curves.shape) < 0.5), curves + wobble, curves)
    if dip and n > 1:
        r, j = int(rng.integers(b)), int(rng.integers(1, n))
        top = curves[r, :j].max()
        curves[r, j] = top - KNIFE_EDGE_ATOL - float(rng.integers(-3, 4)) * np.spacing(top)
    return np.ascontiguousarray(curves)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    b=st.integers(1, 6),
    gaussian=st.booleans(),
    dip=st.booleans(),
    movers=st.booleans(),
    slack=st.sampled_from([None, 0.0, 1e-13]),
)
@settings(max_examples=300, deadline=None)
def test_a_block_row_of_the_downward_analysis_matches_the_plain_call(
    seed, n, b, gaussian, dip, movers, slack
):
    # every group of a noisy sweep reads its cut's row of one block analysis;
    # each must answer as the call that analyses the curve alone
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    curves = _curve_block(rng, space, b, gaussian, dip)
    if movers:
        fn = _separable(rng, space)
    else:
        # every upward step costs more than any gain on a curve within [0, 1]
        fn = shift_cost(space, np.cumsum(1.0 + rng.uniform(0.0, 1.0, size=n)))
    downs = _downward(curves)
    assert len(downs) == b
    for q, down in zip(curves, downs):
        shared, shared_warned = _recorded(_target_indices, q, fn, slack, down)
        alone, alone_warned = _recorded(_target_indices, q, fn, slack)
        assert (shared is None) == (alone is None)
        if alone is not None:
            assert shared.tolist() == alone.tolist()
        assert shared_warned == alone_warned
        if slack is None:
            # and both answer as the comparison of every pair does
            generic, generic_warned = _recorded(_target_indices, q, CostFunction(space, fn.costs))
            assert alone.tolist() == generic.tolist() == reference_targets(q, fn.costs)
            assert alone_warned == generic_warned


def test_the_first_downward_pair_names_the_first_larger_predecessor():
    # row 2 is the first with a drop, 3 ulps, inside the band; its first
    # larger predecessor is 0, not the prefix maximum at 1
    x = 0.75
    q = np.array([x + np.spacing(x), x + 3 * np.spacing(x), x])
    space = FeatureSpace(np.array([0.0, 1.0, 2.0]))
    fn = shift_cost(space, np.array([0.0, 1.0, 2.0]))
    assert _downward(q[None]) == [(3 * np.spacing(x), q[1], (2, 0))]
    got, warned = _recorded(_target_indices, q, fn)
    generic, generic_warned = _recorded(_target_indices, q, CostFunction(space, fn.costs))
    assert got.tolist() == [0, 1, 2] == generic.tolist()
    assert len(warned) == 1 and "move 2 -> 0" in warned[0]
    assert warned == generic_warned


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    rising=st.booleans(),
    slack=st.sampled_from([1e-13, 1e-9]),
)
@settings(max_examples=200, deadline=None)
def test_certified_targets_hold_within_half_the_slack(seed, n, rising, slack):
    # a certificate at slack s covers every curve whose gains move by less
    # than s; nudging entries by s / 4 moves each gain by at most s / 2.
    # Below KNIFE_EDGE_ATOL, as in the noisy sweep, a tie between two upward
    # picks passes the downward test and only the pick test refuses it
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    q = _random_curve(rng, n, rising)
    fn = _separable(rng, space)
    got = _quiet(_target_indices, q, fn, slack)
    if got is None:
        return
    nudged = q + rng.uniform(-slack / 4, slack / 4, size=n)
    np.testing.assert_array_equal(got, _quiet(_target_indices, nudged, fn))


@pytest.mark.parametrize("slack", [0.0, 1e-13, 0.05])
def test_an_available_downward_move_is_refused(slack):
    # the contestant at 1 gains 1 by moving down for free; the certificate
    # decides no downward move, so it refuses the curve.  A tabular cost has
    # no certificate to ask for
    space = FeatureSpace(np.array([0.0, 1.0]))
    q = np.array([1.0, 0.0])
    free = shift_cost(space, np.zeros(2))
    np.testing.assert_array_equal(_target_indices(q, free), [0, 0])
    assert _target_indices(q, free, slack) is None
    with pytest.raises(ValueError, match="separable"):
        _target_indices(q, CostFunction(space, free.costs), slack)


@pytest.mark.parametrize("slack, certified", [(0.01, True), (0.05, False)])
def test_an_upward_decision_within_the_slack_is_refused(slack, certified):
    # moving up gains 0.1 at cost 0.13: the margin, -0.03, lies below the
    # row's rounding floor, so only the floor lowered by slack looks at it
    space = FeatureSpace(np.array([0.0, 1.0]))
    q = np.array([0.0, 0.1])
    cost = shift_cost(space, [0.0, 0.13])
    assert reference_certifies(q, cost.costs, slack) is certified
    assert (_target_indices(q, cost, slack) is not None) is certified


def _gaussian_instance(n: int):
    return _instance_scenario(0.5, 1.0, 0.25, 1.0, n)


def _slack_of(args: tuple, kwargs: dict) -> float | None:
    """The ``slack`` one call of ``_target_indices`` passes, however it is passed."""
    return inspect.signature(_target_indices).bind(*args, **kwargs).arguments.get("slack")


def test_noisy_solve_calls_one_best_response_per_cut_and_group(monkeypatch):
    # the benchmark pins this count on its noisy workload: 2 (n + 1) for the
    # sweep and 2 for re-evaluating the winner through subpop_accuracies
    scen = _gaussian_instance(201)
    n = scen.space.n
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _target_indices(*args, **kwargs)

    monkeypatch.setattr(game, "_target_indices", counted)
    monkeypatch.setattr(noise, "_target_indices", counted)
    _quiet(solve_deterministic_noisy, scen, "utility")
    assert len(calls) == 2 * (n + 1) + 2


def test_a_tabular_group_sends_every_cut_to_the_matvec(monkeypatch):
    # one best response per cut and group, and none asks for a certificate:
    # a separable group beside a tabular one is answered on the matvec too
    scen = _gaussian_instance(201)
    first, second = scen.cost_fns
    scen = dataclasses.replace(scen, cost_fns=(CostFunction(scen.space, first.costs), second))
    n = scen.space.n
    slacks = []

    def counted(*args, **kwargs):
        slacks.append(_slack_of(args, kwargs))
        return _target_indices(*args, **kwargs)

    monkeypatch.setattr(noise, "_target_indices", counted)
    _quiet(threshold_sweep, scen)
    assert len(slacks) == 2 * (n + 1)
    assert all(slack is None for slack in slacks)


@pytest.mark.parametrize(
    "params, with_movers",
    [
        pytest.param(_INSTANCES[key], movers, id=f"{key}-{movers}")
        for key, movers in zip(_INSTANCES, [400, 0, 200, 200])
    ],
)
def test_no_cut_of_a_gaussian_instance_is_refused(monkeypatch, params, with_movers):
    # a Gaussian kernel gives every cut a nondecreasing curve, which has no
    # downward move for the certificate to refuse; the matvec fallback is
    # exact, so only this count would show such cuts being refused
    scen = _instance_scenario(*params)
    n = scen.space.n
    answers = []

    def counted(*args, **kwargs):
        got = _target_indices(*args, **kwargs)
        answers.append((_slack_of(args, kwargs), got))
        return got

    monkeypatch.setattr(noise, "_target_indices", counted)
    _quiet(solve_deterministic_noisy, scen, "utility")
    assert len(answers) == 2 * (n + 1)
    assert all(slack is not None and got is not None for slack, got in answers)
    moved = sum(bool(np.any(got != np.arange(n))) for _, got in answers)
    assert moved == with_movers


def test_every_cut_takes_the_matvec_once_slack_reaches_the_band(monkeypatch):
    # the figure the noisy sweep's docstring states, for a unit row sum
    def slack(n):
        return 4.0 * noise._gamma(n + 1) + 8.0 * noise._UNIT

    assert slack(2248) < KNIFE_EDGE_ATOL <= slack(2249)
    # past that size no point is read off the cheap curve
    scen = _random_scenario(7, 9, separable=True, groups=2, edge=False, tie=False, gaussian=False)
    monkeypatch.setattr(noise, "KNIFE_EDGE_ATOL", 0.0)
    points = _quiet(threshold_sweep, scen)
    for p, rep in zip(points, _reference(scen)):
        assert repr(report_fields(p)) == repr(report_fields(rep))


# ------------------------------------------------------------ kernel build


def _plain_rows(points: np.ndarray, sigma: float) -> np.ndarray:
    """The kernel built in one piece: cdf block, diff, clip, normalise."""
    cdf = ndtr((_cell_edges(points)[None, :] - points[:, None]) / sigma)
    rows = np.clip(np.diff(cdf, axis=1), 0.0, None)
    rows /= rows.sum(axis=1)[:, None]
    return rows


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [201, 801, 1601])
@pytest.mark.parametrize("sigma", [0.05, 0.4, 1.0, 3.0])
def test_gaussian_rows_are_bit_identical_to_the_plain_build(n, sigma):
    space = _gaussian_instance(n).space
    got = NoiseKernel.gaussian(space, sigma).rows
    assert _same_bits(got, _plain_rows(space.points, sigma))


@pytest.mark.parametrize("n", [2, 57, 500])
@pytest.mark.parametrize("sigma", [0.01, 0.3, 2.0])
def test_gaussian_rows_on_an_irregular_grid(n, sigma):
    rng = np.random.default_rng(n)
    points = np.sort(rng.uniform(-3.0, 3.0, size=n))
    space = FeatureSpace(points)
    got = NoiseKernel.gaussian(space, sigma).rows
    assert _same_bits(got, _plain_rows(space.points, sigma))


@pytest.mark.parametrize("height, n", [(64, 63), (64, 64), (64, 65), (1, 2), (1, 5)])
def test_gaussian_rows_across_block_edges(monkeypatch, height, n):
    # n one below, at and one above the block height: one short block, one
    # full block, and a full block followed by a single row; at height 1
    # every row is a block of its own
    monkeypatch.setattr(model, "_BLOCK_BYTES", 16 * (n + 1) * height)
    space = FeatureSpace(np.linspace(-2.0, 2.0, n))
    got = NoiseKernel.gaussian(space, 0.3).rows
    assert _same_bits(got, _plain_rows(space.points, 0.3))


# ------------------------------------------------------------- YAML loader

def _suite_documents() -> list[str]:
    """Every YAML document the scenario and CLI tests keep at module level."""
    return [
        value
        for module in (test_scenario, test_cli)
        for name, value in sorted(vars(module).items())
        if name.isupper() and isinstance(value, str)
    ]


_DOCUMENTS = _suite_documents() + [
    # merge keys over a list of mappings, an alias inside a list, and nulls
    "base: &b {x: 1, y: [1, 2]}\nother:\n  <<: [*b, {z: 3}]\n  y: 4\n"
    "list:\n  - *b\n  - - .inf\n    - ~\n",
    "# comment only\n",
    "",
]

_MALFORMED = [
    "a: [1, 2\n",
    "a: b: c\n",
    "x: 1\n\ty: 2\n",
    "---\na: 1\n---\nb: 2\n",
    "a: 'x\n",
    "- 1\nb: 2\n",
    "a: *missing\n",
    "a: 1\n  b: 2\n",
]


def _compose(loader_cls, text):
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        marks = {}
        if node is not None:
            scenario._collect_marks(node, (), marks)
            return loader.construct_document(node), marks
        return None, marks
    finally:
        loader.dispose()


@pytest.mark.parametrize("text", _DOCUMENTS)
def test_loader_gives_safe_loader_data_and_marks(text):
    assert repr(_compose(scenario._Loader, text)) == repr(_compose(yaml.SafeLoader, text))


@pytest.mark.parametrize("text", _MALFORMED)
def test_loader_reports_safe_loader_lines(text):
    lines = []
    for loader_cls in (scenario._Loader, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError) as info:
            _compose(loader_cls, text)
        mark = getattr(info.value, "problem_mark", None)
        lines.append(None if mark is None else mark.line)
    assert lines[0] == lines[1]
    with pytest.raises(scenario.ScenarioError) as info:
        scenario.parse_scenario(text)
    assert info.value.line == (None if lines[0] is None else lines[0] + 1)


def test_loader_matches_on_a_benchmark_sized_document():
    rng = np.random.default_rng(5)
    pts = np.sort(rng.uniform(-3.0, 3.0, size=200))
    text = (
        f"features: [{', '.join(repr(float(v)) for v in pts)}]\n"
        f"pi: [{', '.join(['0.005'] * 200)}]\n"
        f"h: [{', '.join(repr(float(v)) for v in np.linspace(0, 1, 200))}]\n"
        "cost: {kind: linear, sigma: 0.5}\n"
    )
    assert repr(_compose(scenario._Loader, text)) == repr(_compose(yaml.SafeLoader, text))
