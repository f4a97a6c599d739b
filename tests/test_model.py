"""Domain type construction, validation, and the simple-cost axioms."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from stratclass import (
    Classifier,
    CostFunction,
    FeatureSpace,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    is_lipschitz,
    shift_cost,
    validate_simple_cost,
)
from stratclass import model
from stratclass.analytic import _symmetric_grid
from stratclass.scenario import noise_rebuilder
from stratclass.sampling import (
    random_dominating_pair,
    random_population,
    random_simple_cost,
    random_space,
)


class TestFeatureSpace:
    def test_basic(self):
        space = FeatureSpace([0.0, 1.5, 2.0])
        assert space.n == 3
        assert len(space) == 3
        assert space.matches(FeatureSpace([0.0, 1.5, 2.0]))
        assert not space.matches(FeatureSpace([0.0, 1.5]))
        assert not space.matches(FeatureSpace([0.0, 1.5, 2.5]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            FeatureSpace([1.0, 1.0])
        with pytest.raises(ValidationError):
            FeatureSpace([2.0, 1.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            FeatureSpace([])
        with pytest.raises(ValidationError):
            FeatureSpace([0.0, np.inf])

    def test_order_check_does_not_overflow(self):
        # the suite turns RuntimeWarning into errors; np.diff would overflow here
        assert FeatureSpace([-1e308, 1e308]).n == 2
        with pytest.raises(ValidationError, match="strictly increasing"):
            FeatureSpace([1e308, -1e308])

    def test_points_are_read_only(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValueError):
            space.points[0] = 5.0


class TestPopulation:
    def test_rejects_bad_mass(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="sum to 1"):
            Population(space, [0.5, 0.4], [0.0, 1.0])
        with pytest.raises(ValidationError, match="nonnegative"):
            Population(space, [-0.5, 1.5], [0.0, 1.0])

    def test_rejects_bad_h(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="lie in"):
            Population(space, [0.5, 0.5], [0.0, 1.5])

    def test_monotone_h_enforced_by_default(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="monotone"):
            Population(space, [0.5, 0.5], [1.0, 0.0])

    def test_shape_mismatch(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            Population(space, [1.0], [0.5, 0.5])


class TestCostFunction:
    def test_rejects_negative_and_downward_charges(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="negative"):
            CostFunction(space, [[0.0, -0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="weakly lower"):
            CostFunction(space, [[0.0, 0.5], [0.3, 0.0]])

    def test_downward_dust_is_canonicalised(self):
        space = FeatureSpace([0.0, 1.0])
        c = CostFunction(space, [[1e-15, 0.5], [-1e-15, 0.0]])
        assert c.costs[0, 0] == 0.0
        assert c.costs[1, 0] == 0.0

    def test_shift_cost_formula(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        c = shift_cost(space, [0.0, 0.3, 1.0])
        assert c.costs[0, 1] == pytest.approx(0.3, abs=0)
        assert c.costs[0, 2] == pytest.approx(1.0, abs=0)
        assert c.costs[1, 2] == pytest.approx(0.7)
        assert np.all(c.costs[np.tril_indices(3)] == 0.0)
        assert validate_simple_cost(c.costs, None) == []

    def test_shift_cost_matrix_refused_beyond_the_dense_limit(self, monkeypatch):
        # one byte below a 3 x 3 float64 matrix: reading costs must refuse, not build
        monkeypatch.setattr(model, "DENSE_BYTES_LIMIT", 8 * 3 * 3 - 1)
        c = shift_cost(FeatureSpace([0.0, 1.0, 2.0]), [0.0, 0.3, 1.0])
        with pytest.raises(ValidationError, match=r"^n: 3 points need .* GB"):
            c.costs
        assert c.at(np.array([0]), np.array([2]))[0] == 1.0

    def test_shift_cost_requires_nondecreasing(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="nondecreasing"):
            shift_cost(space, [1.0, 0.0])


class TestSimpleCostAxioms:
    def test_negative_entry_flagged(self):
        out = validate_simple_cost(np.array([[0.0, 1.0], [-0.5, 0.0]]), None)
        assert any(v.axiom == 1 for v in out)

    def test_downward_charge_flagged(self):
        out = validate_simple_cost(np.array([[0.0, 1.0], [0.5, 0.0]]), None)
        assert any(v.axiom == 2 for v in out)

    def test_subadditivity_flagged(self):
        # 0 -> 2 direct costs 1.0 but the two hops cost 0.2 + 0.2.
        costs = np.array([[0.0, 0.2, 1.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
        out = validate_simple_cost(costs, None)
        viols = [v for v in out if v.axiom == 3]
        assert viols and viols[0].indices == (0, 1, 2)

    def test_qualification_order_follows_h(self):
        # Grid-upward but h-downward: free under the grid order, a charged
        # downward move once h says the destination is less qualified.
        costs = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert validate_simple_cost(costs, None) == []
        out = validate_simple_cost(costs, np.array([1.0, 0.0]))
        assert any(v.axiom == 2 for v in out)

    def test_flat_h_ties_break_by_grid_position(self):
        # Equal h falls back to grid order, so the same matrix stays simple.
        costs = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert validate_simple_cost(costs, np.array([0.5, 0.5])) == []

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_sampled_costs_are_simple(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        pop = random_population(rng, space)
        cost = random_simple_cost(rng, space)
        assert validate_simple_cost(cost.costs, pop.h) == []

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_dominating_pairs_order_and_stay_simple(self, seed, n):
        rng = np.random.default_rng(seed)
        space = random_space(rng, n)
        high, low = random_dominating_pair(rng, space)
        assert np.all(high.costs >= low.costs)
        assert validate_simple_cost(high.costs, None) == []
        assert validate_simple_cost(low.costs, None) == []


class TestClassifier:
    def test_threshold_variants(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        at = Classifier.threshold(space, 1.0)
        above = Classifier.threshold(space, 1.0, strict=True)
        assert at.probs.tolist() == [0.0, 1.0, 1.0]
        assert above.probs.tolist() == [0.0, 0.0, 1.0]
        assert at.is_deterministic and above.is_deterministic

    def test_constant_and_determinism_flag(self):
        space = FeatureSpace([0.0, 1.0])
        assert Classifier.constant(space, 1.0).is_deterministic
        assert not Classifier.constant(space, 0.25).is_deterministic

    def test_rejects_out_of_range(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            Classifier(space, [0.0, 1.5])

    def test_is_lipschitz(self, twopoint):
        pop, cost, clf = twopoint
        assert is_lipschitz(clf, cost)
        assert not is_lipschitz(Classifier(pop.space, [0.0, 1.0]), cost)


def _gaussian_rows_by_definition(points: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel rows straight from the definition: ndtr of every cdf argument at once."""
    edges = model._cell_edges(points)
    with np.errstate(over="ignore"):
        z = (edges - points[:, None]) / sigma
    rows = np.diff(ndtr(z), axis=1)
    model._normalise_rows(rows)
    return rows


def _assert_gaussian_bit_identical(points, sigma: float) -> None:
    kept = NoiseKernel.gaussian(FeatureSpace(points), sigma).rows
    want = _gaussian_rows_by_definition(np.asarray(points, dtype=float), sigma)
    assert np.array_equal(kept.view(np.int64), want.view(np.int64))


@st.composite
def _kernel_grids(draw) -> np.ndarray:
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["symmetric", "random", "magnitudes"]))
    if kind == "symmetric":
        return _symmetric_grid(draw(st.floats(1e-3, 1e3)), n | 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return np.unique(rng.uniform(-10.0, 10.0, n))
    return np.unique(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n))


class TestNoiseKernel:
    def test_rows_must_be_stochastic(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError, match="sums to"):
            NoiseKernel(space, [[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="nonnegative"):
            NoiseKernel(space, [[1.5, -0.5], [0.0, 1.0]])

    def test_caller_rows_are_copied_never_changed(self):
        # entries the constructor clips and rows it rescales, in a writeable array
        space = FeatureSpace([0.0, 1.0])
        arr = np.array([[0.5, 0.5 + 4e-13], [-1e-13, 1.0]])
        before = arr.copy()
        k = NoiseKernel(space, arr)
        assert arr.flags.writeable
        assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(k.rows, arr)
        assert k.rows[1, 0] == 0.0 and k.rows[0, 1] < arr[0, 1]

    @pytest.mark.parametrize("build", ["constructor", "gaussian"])
    def test_kept_rows_own_their_data_and_are_read_only(self, build):
        space = FeatureSpace(np.linspace(-1.0, 1.0, 5))
        if build == "gaussian":
            k = NoiseKernel.gaussian(space, 0.5)
        else:
            k = NoiseKernel(space, np.full((5, 5), 0.2))
        assert k.rows.flags.owndata
        assert not k.rows.flags.writeable
        with pytest.raises(ValueError):
            k.rows[0, 0] = 1.0

    def test_row_sum_message_names_the_kernel_row(self):
        block = np.array([[0.5, 0.5], [0.5, 0.25]])
        with pytest.raises(ValidationError, match=r"^rows: row 8 sums to \S*0\.75\)?, expected 1$"):
            model._normalise_rows(block, first=7)
        with pytest.raises(ValidationError, match=r"^rows: row 1 sums to \S*0\.75\)?, expected 1$"):
            NoiseKernel(FeatureSpace([0.0, 1.0]), block)

    def test_gaussian_peaks_at_the_kernel_plus_one_block(self):
        space = FeatureSpace(np.linspace(-3.0, 3.0, 1000))
        tracemalloc.start()
        try:
            k = NoiseKernel.gaussian(space, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * k.rows.nbytes

    def test_identity(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        k = NoiseKernel.identity(space)
        assert np.array_equal(k.rows, np.eye(3))

    def test_identity_refused_beyond_the_dense_limit(self, monkeypatch):
        # one byte below a 3 x 3 float64 matrix: refused before np.eye builds it
        monkeypatch.setattr(model, "DENSE_BYTES_LIMIT", 8 * 3 * 3 - 1)
        with pytest.raises(ValidationError, match=r"^n: 3 points need .* GB"):
            NoiseKernel.identity(FeatureSpace([0.0, 1.0, 2.0]))

    def test_gaussian_zero_sigma_is_no_kernel(self):
        space = FeatureSpace([0.0, 1.0, 2.0])
        assert NoiseKernel.gaussian(space, 0.0) is None

    def test_gaussian_rows_close_exactly(self):
        space = FeatureSpace(np.linspace(-2.0, 2.0, 9))
        k = NoiseKernel.gaussian(space, 0.7)
        assert np.allclose(k.rows.sum(axis=1), 1.0, atol=1e-14, rtol=0)
        # Symmetric grid, centred noise: the middle row is symmetric.
        mid = k.rows[4]
        assert mid.tolist() == pytest.approx(mid[::-1].tolist(), abs=1e-15)

    def test_gaussian_rejects_negative_sigma(self):
        space = FeatureSpace([0.0, 1.0])
        with pytest.raises(ValidationError):
            NoiseKernel.gaussian(space, -1.0)

    @pytest.mark.parametrize("points", [[1.0e308, 1.7e308], [-1.7e308, 1.6e308, 1.7e308]])
    def test_gaussian_grid_near_the_float_maximum(self, points):
        # a unit sigma cannot blur points ~1e307 apart; an overflowing
        # midpoint would put both first cells at +inf
        k = NoiseKernel.gaussian(FeatureSpace(points), 1.0)
        assert np.array_equal(k.rows, np.eye(len(points)))

    @settings(max_examples=150, deadline=None)
    @given(points=_kernel_grids(), sigma=st.floats(-9.0, 8.0).map(lambda e: 10.0**e))
    def test_gaussian_is_bit_identical_to_the_definition(self, points, sigma):
        _assert_gaussian_bit_identical(points, sigma)

    @pytest.mark.parametrize("sigma", [1e-9, 1.0, 1e8])
    @pytest.mark.parametrize("points", [[1.0e308, 1.7e308], [-1.7e308, 1.6e308, 1.7e308]])
    def test_gaussian_near_the_float_maximum_is_bit_identical(self, points, sigma):
        _assert_gaussian_bit_identical(points, sigma)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 1.5])
    def test_gaussian_on_the_benchmark_grid_is_bit_identical(self, rebuild_1601, sigma):
        space = noise_rebuilder(rebuild_1601)(sigma)[0].space
        assert space.n == 1601
        _assert_gaussian_bit_identical(space.points, sigma)

    def test_gaussian_table_spares_most_cdf_calls(self, rebuild_1601, monkeypatch):
        # a silent fall-back to ndtr on every argument would still be bit-identical
        space = noise_rebuilder(rebuild_1601)(1.0)[0].space
        counts = []

        def counted(x, *args, **kwargs):
            counts.append(np.size(x))
            return ndtr(x, *args, **kwargs)

        monkeypatch.setattr(model, "ndtr", counted)
        NoiseKernel.gaussian(space, 1.0)
        n = space.n
        assert 0 < sum(counts) < 0.1 * n * (n + 1)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[np.nan, -0.5], [0.0, 1.0]], "finite"),
            ([[-np.inf, 1.0], [0.0, 1.0]], "finite"),
            ([[0.5, np.inf], [0.0, 1.0]], "finite"),
            ([[-2e-12, 1.0], [0.0, 1.0]], "nonnegative"),
        ],
    )
    def test_bad_entries_named_in_order(self, rows, message):
        # a non-finite entry is reported before a negative one
        with pytest.raises(ValidationError, match=f"^rows: entries must be {message}$"):
            NoiseKernel(FeatureSpace([0.0, 1.0]), rows)

    def test_gaussian_refused_before_any_n_by_n_allocation(self, monkeypatch):
        class PastGuard(Exception):
            pass

        def stop(points):
            raise PastGuard

        monkeypatch.setattr(model, "_cell_edges", stop)
        n = math.isqrt(model.DENSE_BYTES_LIMIT // 8)  # the largest kernel that fits
        with pytest.raises(PastGuard):
            NoiseKernel.gaussian(FeatureSpace(np.arange(float(n))), 1.0)
        with pytest.raises(ValidationError, match=rf"^n: {n + 1} points need .* GB"):
            NoiseKernel.gaussian(FeatureSpace(np.arange(n + 1.0)), 1.0)


class TestSubpopulationScenario:
    def test_default_labels_and_k(self):
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
        scen = SubpopulationScenario(pop=pop, shares=np.array([0.25, 0.75]), cost_fns=(cost, cost))
        assert scen.k == 2
        assert scen.labels == ("A", "B")
        assert scen.space is pop.space

    def test_share_validation(self):
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(space, [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="sum to 1"):
            SubpopulationScenario(pop=pop, shares=np.array([0.5, 0.4]), cost_fns=(cost, cost))
        with pytest.raises(ValidationError, match="one cost function per share"):
            SubpopulationScenario(pop=pop, shares=np.array([1.0]), cost_fns=(cost, cost))

    def test_grid_mismatch_rejected(self):
        space = FeatureSpace([0.0, 1.0])
        other = FeatureSpace([0.0, 2.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = CostFunction(other, [[0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="share the feature grid"):
            SubpopulationScenario(pop=pop, shares=np.array([1.0]), cost_fns=(cost,))

    @pytest.mark.parametrize("noisy", [False, True])
    def test_one_group_scenario_is_the_validated_one(self, noisy):
        # the one-group wrappers skip the checks a single share of 1.0 and
        # one default label cannot fail, but still compare the grids
        space = FeatureSpace([0.0, 1.0])
        pop = Population(space, [0.5, 0.5], [0.0, 1.0])
        cost = shift_cost(space, [0.0, 0.5])
        kernel = NoiseKernel.gaussian(space, 0.5) if noisy else None
        got = model._single(pop, cost, kernel)
        want = SubpopulationScenario(pop, (1.0,), (cost,), kernel)
        for name in ("pop", "cost_fns", "kernel", "labels"):
            assert getattr(got, name) == getattr(want, name)
        assert got.shares.tobytes() == want.shares.tobytes()
        assert not got.shares.flags.writeable
        other = FeatureSpace([0.0, 2.0])
        with pytest.raises(ValidationError, match="share the feature grid"):
            model._single(pop, shift_cost(other, [0.0, 0.5]), kernel)
        if noisy:
            with pytest.raises(ValidationError, match="share the feature grid"):
                model._single(pop, cost, NoiseKernel.gaussian(other, 0.5))


_SPACE = FeatureSpace([0.0, 1.0])
_POP = Population(_SPACE, [0.5, 0.5], [0.0, 1.0])
_COST = CostFunction(_SPACE, [[0.0, 0.5], [0.0, 0.0]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Population(_SPACE, [0.5, 0.5], [0.5]), "h: expected 2 entries, got (1,)"),
        (
            lambda: validate_simple_cost(np.zeros((2, 3)), None),
            "costs: expected a square matrix, got (2, 3)",
        ),
        (lambda: validate_simple_cost(np.zeros((2, 2)), [0.0]), "h: expected 2 entries, got (1,)"),
        (lambda: CostFunction(_SPACE, np.ones((3, 2))), "costs: expected a 2x2 matrix, got (3, 2)"),
        (lambda: CostFunction(_SPACE, [[0.0, np.nan], [0, 0]]), "costs: entries must be finite"),
        (lambda: shift_cost(_SPACE, [0.0]), "a: expected 2 entries, got (1,)"),
        (lambda: shift_cost(_SPACE, [0.0, np.inf]), "a: entries must be finite"),
        (lambda: Classifier(_SPACE, [0.5]), "probs: expected 2 entries, got (1,)"),
        (lambda: NoiseKernel(_SPACE, np.eye(3)), "rows: expected a 2x2 matrix, got (3, 3)"),
        (
            lambda: SubpopulationScenario(pop=_POP, shares=np.array([]), cost_fns=()),
            "shares: need a non-empty 1-d sequence",
        ),
        (
            lambda: SubpopulationScenario(pop=_POP, shares=[-0.5, 1.5], cost_fns=(_COST, _COST)),
            "shares: entries must be nonnegative",
        ),
        (
            lambda: SubpopulationScenario(
                pop=_POP, shares=[0.5, 0.5], cost_fns=(_COST, _COST), labels=("A",)
            ),
            "labels: need one label per share",
        ),
        (
            lambda: SubpopulationScenario(
                pop=_POP, shares=[0.5, 0.5], cost_fns=(_COST, _COST), labels=("X", "X")
            ),
            "labels: must be distinct, 'X' repeats",
        ),
        # a wrong length is reported before a non-finite entry
        (
            lambda: Population(_SPACE, [0.5, np.nan, 0.5], [0.0, 1.0]),
            "pi: expected 2 entries, got (3,)",
        ),
    ],
)
def test_refusal_names_the_field(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("cost", [_COST, shift_cost(_SPACE, [0.0, 0.5])])
def test_cost_has_no_other_attributes(cost):
    # only a separable cost builds its matrix on demand; other names stay missing
    with pytest.raises(AttributeError, match="^no_such_field$"):
        cost.no_such_field
