"""Seeded random instances for stress-testing the engine.

Everything takes an explicit ``numpy.random.Generator`` so test sweeps are
reproducible from a single seed.  The cost generator draws from a family
closed under the simple-cost axioms (sums of nondecreasing-shift costs,
destination fees, and exit fees), so every sample is simple by construction
rather than by rejection.
"""

from __future__ import annotations

import numpy as np

from .model import Classifier, CostFunction, FeatureSpace, NoiseKernel, Population

__all__ = [
    "random_space",
    "random_population",
    "random_simple_cost",
    "random_dominating_pair",
    "random_classifier",
    "random_kernel",
]


def random_space(rng: np.random.Generator, n: int) -> FeatureSpace:
    steps = rng.uniform(0.1, 1.0, size=n)
    return FeatureSpace(np.cumsum(steps))


def random_population(rng: np.random.Generator, space: FeatureSpace) -> Population:
    n = space.n
    pi = rng.dirichlet(np.ones(n))
    h = np.sort(rng.uniform(0.0, 1.0, size=n))
    return Population(space, pi, h)


def random_simple_cost(
    rng: np.random.Generator, space: FeatureSpace, scale: float = 1.0
) -> CostFunction:
    """A random simple cost: shift component + destination fee + exit fee.

    Each component satisfies all five axioms on its own and the axioms are
    closed under addition, so the sum is simple for any draw.  Scales are
    chosen so typical entries sit near the 0..1 range where the unit
    acceptance gain makes moves interesting.
    """
    n = space.n
    idx = np.arange(n)
    upper = idx[None, :] > idx[:, None]

    a = np.cumsum(rng.uniform(0.0, scale, size=n))
    shift = np.maximum(a[None, :] - a[:, None], 0.0)

    dest_fee = np.sort(rng.uniform(0.0, scale, size=n)) * rng.random()
    exit_fee = -np.sort(-rng.uniform(0.0, scale, size=n)) * rng.random()

    costs = np.where(upper, shift + dest_fee[None, :] + exit_fee[:, None], 0.0)
    return CostFunction(space, costs)


def random_dominating_pair(
    rng: np.random.Generator, space: FeatureSpace, scale: float = 1.0
) -> tuple[CostFunction, CostFunction]:
    """(dearer, cheaper) simple costs with dearer = cheaper + a simple bump."""
    low = random_simple_cost(rng, space, scale)
    bump = random_simple_cost(rng, space, scale * rng.random())
    high = CostFunction(space, low.costs + bump.costs)
    return high, low


def random_classifier(rng: np.random.Generator, space: FeatureSpace) -> Classifier:
    probs = rng.uniform(0.0, 1.0, size=space.n)
    # Exact ties and endpoints are where tie-break rules live; hit them.
    snap = rng.random(space.n) < 0.25
    probs[snap] = rng.choice([0.0, 0.5, 1.0], size=int(snap.sum()))
    return Classifier(space, probs)


def random_kernel(rng: np.random.Generator, space: FeatureSpace) -> NoiseKernel:
    rows = rng.dirichlet(np.ones(space.n), size=space.n)
    return NoiseKernel(space, rows)
