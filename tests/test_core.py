"""The evaluation core: one best response, one payoff path, one threshold scan.

A pure-Python best response written from the ``_target_indices`` docstring
is the reference every fast path is checked against; the payoff wrappers
must all reject objects on another grid; the threshold scan serves both
objectives; and imports run one way, so no module imports inside a function.
"""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

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
    KnifeEdgeWarning,
    Population,
    SubpopulationScenario,
    efficiency,
    noisy_efficiency,
    noisy_strategy_cost,
    noisy_utility,
    solve_deterministic_noisy,
    strategy_cost,
    subpop_accuracies,
    threshold_sweep,
    utility,
)
from stratclass.game import _target_indices
from stratclass.noise import _fast_threshold_targets
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


def _takes_fast_path(costs: np.ndarray) -> bool:
    # the condition threshold_sweep checks before using the fast path
    rows_monotone = bool(np.all(np.diff(costs, axis=1) >= 0.0))
    return rows_monotone and not np.any(np.abs(costs - 1.0) < KNIFE_EDGE_ATOL)


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
        costs = random_simple_cost(rng, space, scale=float(rng.uniform(0.05, 2.0))).costs
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        if eps is not None and upper.any():
            # lift the upper triangle so one entry lands just beside the unit
            # gain; a constant lift keeps every row nondecreasing
            below = costs[upper][costs[upper] < 1.0]
            if below.size:
                lift = 1.0 - float(rng.choice(below)) + eps
                costs = CostFunction(space, np.where(upper, costs + lift, 0.0)).costs
        assume(_takes_fast_path(costs))
        for start in range(n + 1):
            probs = np.zeros(n)
            probs[start:] = 1.0
            fast = _fast_threshold_targets(costs, start)
            assert fast.tolist() == _quiet_targets(probs, costs).tolist()
            assert fast.tolist() == reference_targets(probs, costs)


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


def test_no_imports_inside_functions():
    package = Path(stratclass.__file__).parent
    nested = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.add(f"{path.name}:{node.lineno}")
    assert sorted(nested) == []
