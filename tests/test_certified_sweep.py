"""The noisy threshold scan against a scan written from the definitions.

The noisy sweep reads every cut's acceptance curve off one cumulative sum and
keeps a best response only when it certifies itself against the matvec's
rounding; near-best cuts are evaluated again on the matvec.  These tests
hold it to the plain scan: one matvec and one ``subpop_accuracies`` per cut,
first strict maximum kept.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
import test_cli
import test_scenario
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
from stratclass.game import KNIFE_EDGE_ATOL, _target_indices
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


def _point_fields(p):
    return (p.utility, p.cost, p.efficiency, p.subpop_utilities, p.subpop_costs, p.gap)


def _report_fields(r):
    return (r.utility, r.cost, r.efficiency, r.utilities, r.costs, r.gap)


def _assert_matches_reference(scen: SubpopulationScenario) -> None:
    reports = _reference(scen)
    points = _quiet(threshold_sweep, scen)
    for p, rep in zip(points, reports):
        # certified targets are the matvec's, so every cost is bit-identical
        assert (p.cost, p.subpop_costs) == (rep.cost, rep.costs)
    for objective in ("utility", "efficiency"):
        start = _first_max(reports, objective)
        solved = _quiet(solve_deterministic_noisy, scen, objective)
        clf = _cut(scen, start)
        assert solved.classifier.probs.tobytes() == clf.probs.tobytes()
        got = dataclasses.astuple(solved.details["report"])
        assert repr(got) == repr(dataclasses.astuple(reports[start]))
        # the winner's own sweep point is exact, not read off the cheap curve
        assert repr(_point_fields(points[start])) == repr(_report_fields(reports[start]))


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


def _random_scenario(seed: int, n: int, separable: bool, groups: int, edge: bool, tie: bool):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    pop = random_population(rng, space)
    kernel = random_kernel(rng, space)
    if tie and n > 1:
        # nobody is observed at k, so cuts k and k + 1 face the same curve
        k = int(rng.integers(n))
        rows = np.array(kernel.rows)
        rows[:, k] = 0.0
        rows[k, (k + 1) % n] += 1.0
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
)
@settings(max_examples=250, deadline=None)
def test_certified_scan_matches_the_reference_scan(seed, n, separable, groups, edge, tie):
    _assert_matches_reference(_random_scenario(seed, n, separable, groups, edge, tie))


@pytest.mark.parametrize("sigma", [0.3, 1.0])
def test_certified_scan_matches_the_reference_on_an_instance(sigma):
    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=sigma)
    _assert_matches_reference(discretize_instance(inst, n=201).scenario)


def _random_curve(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.uniform(0.0, 1.0, size=n)
    snap = rng.random(n) < 0.3
    q[snap] = rng.choice([0.0, 1.0, q[0], q[0] + KNIFE_EDGE_ATOL], size=int(snap.sum()))
    return q


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    slack=st.sampled_from([0.0, 1e-13, 1e-12, 0.05]),
)
@settings(max_examples=300, deadline=None)
def test_certificate_is_one_predicate_for_separable_and_tabular(seed, n, slack):
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    q = _random_curve(rng, n)
    fn = _separable(rng, space)
    tabular = CostFunction(space, fn.costs)
    sep = _quiet(_target_indices, q, fn, slack)
    tab = _quiet(_target_indices, q, tabular, slack)
    assert (sep is None) == (tab is None)
    if sep is not None:
        np.testing.assert_array_equal(sep, tab)
        np.testing.assert_array_equal(sep, _quiet(_target_indices, q, fn))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_certified_targets_hold_within_half_the_slack(seed, n):
    # a certificate at slack s covers every curve whose gains move by less
    # than s; nudging entries by s / 4 moves each gain by at most s / 2
    rng = np.random.default_rng(seed)
    space = random_space(rng, n)
    q = _random_curve(rng, n)
    slack = 1e-9
    fn = _separable(rng, space) if rng.random() < 0.5 else random_simple_cost(rng, space)
    got = _quiet(_target_indices, q, fn, slack)
    if got is None:
        return
    nudged = q + rng.uniform(-slack / 4, slack / 4, size=n)
    np.testing.assert_array_equal(got, _quiet(_target_indices, nudged, fn))


def _gaussian_instance(n: int):
    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0)
    return discretize_instance(inst, n=n).scenario


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


def test_every_cut_takes_the_matvec_once_slack_reaches_the_band(monkeypatch):
    # the figure the noisy sweep's docstring states, for a unit row sum
    def slack(n):
        return 4.0 * noise._gamma(n + 1) + 8.0 * noise._UNIT

    assert slack(2248) < KNIFE_EDGE_ATOL <= slack(2249)
    # past that size no point is read off the cheap curve
    scen = _random_scenario(7, 9, separable=True, groups=2, edge=False, tie=False)
    monkeypatch.setattr(noise, "KNIFE_EDGE_ATOL", 0.0)
    points = _quiet(threshold_sweep, scen)
    for p, rep in zip(points, _reference(scen)):
        assert repr(_point_fields(p)) == repr(_report_fields(rep))


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
    monkeypatch.setattr(model, "_KERNEL_BLOCK_BYTES", 8 * (n + 1) * height)
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
