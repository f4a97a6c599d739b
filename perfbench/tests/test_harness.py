"""Self-tests of the benchmark harness: self time, the tail rule, the wrappers.

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import op_tail, trace_problems  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    span = tracing.Span(name, start, parent, thread, 0, end)
    if parent is not None:
        parent.children.append(span)
    return span


# ---------------------------------------------------------------- self time


def test_self_time_nested_spans():
    outer = _span("outer", 0.0, 10.0)
    mid = _span("mid", 1.0, 4.0, outer)
    _span("leaf", 2.0, 3.0, mid)
    assert tracing.self_time(outer) == pytest.approx(7.0)
    assert tracing.self_time(mid) == pytest.approx(2.0)


def test_self_time_counts_overlapping_thread_children_once():
    outer = _span("outer", 0.0, 10.0)
    _span("a", 1.0, 5.0, outer, thread=2)
    _span("b", 3.0, 6.0, outer, thread=3)  # overlaps a on another thread
    _span("c", 9.0, 12.0, outer, thread=2)  # runs past its parent's end
    # covered: [1, 6] and [9, 10], so 6 of the 10 seconds
    assert tracing.self_time(outer) == pytest.approx(4.0)


def test_pool_thread_spans_take_the_op_thread_span_as_parent():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x * 2)

    def fan_out(values):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, values))

    root = tracer.wrap("root", fan_out)
    tracer.begin_op(7)
    assert root([1, 2, 3]) == [2, 4, 6]
    (top,) = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 3
    assert all(s.parent is top and s.op == 7 for s in leaves)
    assert all(s.thread != top.thread for s in leaves)
    assert top.thread == threading.get_ident()
    union = tracing.covered([(s.start, s.end) for s in leaves], top.start, top.end)
    assert tracing.self_time(top) == pytest.approx(top.end - top.start - union)
    records = tracing.span_records(tracer.spans)
    ids = {r["name"]: r["id"] for r in records if r["name"] == "root"}
    assert all(r["parent"] == ids["root"] for r in records if r["name"] == "leaf")


# ------------------------------------------------------------------ op tail


def test_op_tail_needs_twenty_ops():
    assert op_tail([0.1] * 19) is None
    assert op_tail([]) is None


@pytest.mark.parametrize("n", [20, 21, 57, 100])
def test_op_tail_leaves_ten_ops_beyond(n):
    latencies = [float(i) for i in range(n)]
    value, percentile, count = op_tail(list(reversed(latencies)))
    assert count == n
    assert sum(1 for x in latencies if x > value) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


# ----------------------------------------------------------------- wrappers


def test_wrapper_passes_arguments_results_and_exceptions_through():
    tracer = tracing.Tracer()
    marker = object()

    def echo(*args, **kwargs):
        return args, kwargs

    traced = tracer.wrap("echo", echo)
    args, kwargs = traced(marker, 2, key=marker)
    assert args[0] is marker and args[1] == 2 and kwargs == {"key": marker}
    assert traced.__name__ == "echo" and traced.__wrapped__ is echo

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.spans] == ["echo", "boom"]
    assert all(s.end >= s.start for s in tracer.spans)


def _noisy_scenario(n=201):
    from stratclass import GaussianInstance, discretize_instance

    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25, sigma=1.0)
    return discretize_instance(inst, n=n).scenario


def test_install_wraps_every_binding_and_remove_restores_them():
    import stratclass.cli  # noqa: F401  (loads every module)
    from stratclass import game, model, noise, solvers

    original = game._target_indices
    gaussian = model.NoiseKernel.__dict__["gaussian"]
    scen = _noisy_scenario()
    plain = noise.threshold_sweep(scen)

    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (("game.gone", "game", "no_such_function", None),)
    installed = tracing.install(tracer, targets=targets)
    try:
        assert installed.missing == ["game.gone"]
        wrapped = game._target_indices
        assert wrapped is not original
        assert noise._target_indices is wrapped and solvers._target_indices is wrapped
        traced = noise.threshold_sweep(scen)
        kernel = model.NoiseKernel.gaussian(scen.space, 1.0)
    finally:
        installed.remove()

    assert game._target_indices is original and noise._target_indices is original
    assert model.NoiseKernel.__dict__["gaussian"] is gaussian
    assert [p.utility for p in traced] == [p.utility for p in plain]
    np.testing.assert_array_equal(kernel.rows, scen.kernel.rows)

    n = scen.space.n
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    # a noisy two-group sweep: one generic best response per group per cut
    assert metrics["noise.threshold_sweep.calls"] == 1
    assert metrics["noise.threshold_sweep.candidates"] == n + 1
    assert metrics["game._target_indices.calls"] == 2 * (n + 1)
    assert metrics["game._target_indices.cells"] == 2 * (n + 1) * n * n
    assert metrics["noise.fast_path_ratio"] == 0.0
    assert metrics["model.NoiseKernel.gaussian.calls"] == 1
    assert metrics["model.NoiseKernel.post_init.calls"] == 1


def test_fast_path_ratio_is_one_on_a_noiseless_sweep():
    import stratclass.cli  # noqa: F401
    from stratclass import GaussianInstance, discretize_instance, noise

    inst = GaussianInstance(t=1.0, d=100.0, sigma_a=0.5, sigma_b=1.0, s_a=0.25)
    scen = discretize_instance(inst, n=201).scenario
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        noise.threshold_sweep(scen)
    finally:
        installed.remove()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["noise.fast_path_ratio"] == 1.0
    assert metrics["game._target_indices.calls"] == 0


# ---------------------------------------------------------- trace checks


def _traced_result(per_pass_calls, missing=()):
    passes = [{"traced": False}]
    for calls in per_pass_calls:
        passes += [{"traced": True, "counts": {"game._target_indices.calls": calls}}, {"traced": False}]
    return {"passes": passes, "missing": list(missing)}


def test_trace_problems_accepts_the_pinned_call_count():
    noisy = workloads.WORKLOADS["noisy-801"]
    assert trace_problems(_traced_result([1650, 1650]), noisy) == []


def test_trace_problems_flags_missing_names_drift_and_a_wrong_count():
    noisy = workloads.WORKLOADS["noisy-801"]
    assert trace_problems(_traced_result([1650], missing=["game.gone"]), noisy) == [
        "traced function missing: game.gone"
    ]
    problems = trace_problems(_traced_result([1650, 1649]), noisy)
    assert len(problems) == 2 and "differs between traced passes" in problems[0]
    # an unwrapped binding of _target_indices loses the calls made through it
    assert trace_problems(_traced_result([1606]), noisy) == [
        "game._target_indices.calls per traced pass is [1606], not 1650"
    ]
    # no pinned count on the other workloads
    assert trace_problems(_traced_result([42]), workloads.WORKLOADS["rebuild-1601"]) == []


def test_pass_counts_gives_calls_and_counter_increments_of_one_pass():
    spans = [_span("game._target_indices", 0.0, 1.0), _span("game._target_indices", 1.0, 2.0)]
    before = {name: 0 for name in tracing.COUNTERS}
    after = dict(before, **{"game._target_indices.cells": 8})
    counts = tracing.pass_counts(spans, before, after)
    assert counts["game._target_indices.calls"] == 2
    assert counts["game._target_indices.cells"] == 8
    assert counts["cli.main.calls"] == 0
