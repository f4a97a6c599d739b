"""Shared fixtures: the worked examples and the desk-scale Gaussian runs.

The Gaussian fixtures are session-scoped: discretizing at n = 801 and
sweeping thresholds through a noise kernel costs seconds, and several tests
share each result.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    GaussianInstance,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    discretize_instance,
    solve_deterministic_noisy,
    threshold_sweep,
)
from stratclass.scenario import parse_scenario


@pytest.fixture()
def threepoint():
    """Grid {1,2,3}: bottom point unqualified, top move costs 0.9.

    The mixed classifier (0.1, 0, 1) collects 29/30 accuracy: the bottom
    point's move to the top exactly ties its cost (knife edge, stays), while
    the middle point pays 0.9 for the top slot.
    """
    space = FeatureSpace([1.0, 2.0, 3.0])
    pop = Population(space, np.full(3, 1.0 / 3.0), [0.0, 1.0, 1.0])
    cost = CostFunction(space, [[0.0, 0.0, 0.9], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
    clf = Classifier(space, [0.1, 0.0, 1.0])
    return pop, cost, clf


@pytest.fixture()
def twopoint():
    """Grid {1,2}: only the top point qualified, the move up costs 0.5."""
    space = FeatureSpace([1.0, 2.0])
    pop = Population(space, [0.5, 0.5], [0.0, 1.0])
    cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
    clf = Classifier(space, [0.5, 1.0])
    return pop, cost, clf


@pytest.fixture()
def noisepoint():
    """The two-point instance observed through a half-blurring channel."""
    space = FeatureSpace([1.0, 2.0])
    pop = Population(space, [0.5, 0.5], [0.0, 1.0])
    kernel = NoiseKernel(space, [[0.5, 0.5], [0.0, 1.0]])
    cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
    clf = Classifier(space, [0.0, 1.0])
    return pop, kernel, cost, clf


def single_group(pop: Population, cost: CostFunction, kernel=None) -> SubpopulationScenario:
    return SubpopulationScenario(
        pop=pop, shares=np.array([1.0]), cost_fns=(cost,), kernel=kernel
    )


# Desk-scale Gaussian benchmarks.  The noiseless instance serves the cheap
# cost-scale group worse at the optimum; adding unit observation noise stops
# every strategic move and serves both groups identically.

UNFAIR = dict(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)


@pytest.fixture(scope="session")
def unfair_disc():
    return discretize_instance(GaussianInstance(**UNFAIR), n=801)


@pytest.fixture(scope="session")
def unfair_solved(unfair_disc):
    return solve_deterministic_noisy(unfair_disc.scenario)


@pytest.fixture(scope="session")
def fair_disc():
    return discretize_instance(GaussianInstance(**UNFAIR, sigma=1.0), n=801)


@pytest.fixture(scope="session")
def fair_sweep(fair_disc):
    return threshold_sweep(fair_disc.scenario)


@pytest.fixture(scope="session")
def benefit_inst():
    root_2pi = float(np.sqrt(2.0 * np.pi))
    return GaussianInstance(
        t=0.9 * root_2pi, d=1000.0, sigma_a=0.1, sigma_b=1.0, s_a=0.5, sigma=1.0
    )


@pytest.fixture(scope="session")
def rebuild_1601():
    """The rebuild-1601 benchmark scenario at seed 0, read from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return parse_scenario(workloads.scenario_yaml("rebuild-1601", 0))
