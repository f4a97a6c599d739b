"""Spans around the package's module-level functions, installed from outside.

Each traced function is replaced by a wrapper in every ``stratclass.*``
namespace that binds the same function object, found by identity, so a
function imported into several modules (``_target_indices`` sits in
``game``, ``noise`` and ``solvers``) is traced wherever it is called from.
A listed name that no longer exists is reported as missing; the traced run
goes on without it.

A span records name, start, end, parent span, thread id and op id.  Spans
stay in memory until the run ends.  A span opened on a thread with no open
span of its own (a sweep's pool thread) takes as parent the innermost open
span of the thread that started the op.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

Hook = Callable[[dict, tuple, dict, Any], None]


def _count_cells(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    values = args[0] if args else kwargs["values"]
    counts["game._target_indices.cells"] += int(values.size) ** 2


def _count_candidates(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["noise.threshold_sweep.candidates"] += len(result)


def _count_linprog(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["solvers.linprog.iterations"] += int(getattr(result, "nit", 0) or 0)
    counts["solvers.linprog.failed"] += int(not result.success)


def _count_checks(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["reproduce.checks_failed"] += sum(1 for c in result.checks if not c.passed)


# (span name, module under stratclass, attribute path, counter hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli.main", "cli", "main", None),
    ("scenario.load_scenario", "scenario", "load_scenario", None),
    ("analytic.discretize_instance", "analytic", "discretize_instance", None),
    ("model.NoiseKernel.gaussian", "model", "NoiseKernel.gaussian", None),
    ("model.shift_cost", "model", "shift_cost", None),
    ("model.CostFunction.post_init", "model", "CostFunction.__post_init__", None),
    ("model.NoiseKernel.post_init", "model", "NoiseKernel.__post_init__", None),
    ("game._target_indices", "game", "_target_indices", _count_cells),
    ("game._accuracy", "game", "_accuracy", None),
    ("game._strategy_cost", "game", "_strategy_cost", None),
    ("game.best_response", "game", "best_response", None),
    ("game.utility", "game", "utility", None),
    ("game.efficiency", "game", "efficiency", None),
    ("noise.threshold_sweep", "noise", "threshold_sweep", _count_candidates),
    ("noise._fast_threshold_targets", "noise", "_fast_threshold_targets", None),
    ("noise.effective_acceptance", "noise", "effective_acceptance", None),
    ("noise.subpop_accuracies", "noise", "subpop_accuracies", None),
    ("noise.solve_deterministic_noisy", "noise", "solve_deterministic_noisy", None),
    ("solvers.linprog", "solvers", "linprog", _count_linprog),
    ("solvers.solve_efficiency_lp", "solvers", "solve_efficiency_lp", None),
    ("solvers._snap_lipschitz", "solvers", "_snap_lipschitz", None),
    ("solvers.grid_oracle", "solvers", "grid_oracle", None),
    ("solvers.solve_deterministic", "solvers", "solve_deterministic", None),
    ("solvers.project_lipschitz", "solvers", "project_lipschitz", None),
    ("stability.stability_check", "stability", "stability_check", None),
    ("stability.pooled_mass", "stability", "pooled_mass", None),
    ("reproduce.run_reproduce", "reproduce", "run_reproduce", _count_checks),
)

COUNTERS = (
    "game._target_indices.cells",
    "noise.threshold_sweep.candidates",
    "solvers.linprog.iterations",
    "solvers.linprog.failed",
    "reproduce.checks_failed",
)


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    thread: int
    op: int | None
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)


class Tracer:
    """Collects spans and counters; one per run, shared by every thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.op: int | None = None
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._lock = threading.Lock()

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one that runs op ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` with a span around each call; arguments and results pass through."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else None
            span = Span(name, 0.0, parent, threading.get_ident(), self.op)
            with self._lock:
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, kwargs, result)
            return result

        return traced


@dataclass
class Installed:
    """Wrappers put in place by :func:`install`; ``remove`` restores the originals."""

    patches: list[tuple[Any, str, Any]]
    missing: list[str]

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _package_modules() -> list[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "stratclass" or name.startswith("stratclass."))
    ]


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target in every ``stratclass.*`` namespace that binds it."""
    patches: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    modules = _package_modules()
    for name, module, path, hook in targets:
        owner = sys.modules.get(f"stratclass.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
            continue
        original = vars(owner)[attr]
        if isinstance(owner, type):
            # a method or classmethod lives only on its class
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, hook))
            else:
                wrapped = tracer.wrap(name, original, hook)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return Installed(patches, missing)


# ------------------------------------------------------------------ reports


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span: Span) -> float:
    """Span duration minus the part of it that its child spans cover."""
    children = [(c.start, c.end) for c in span.children]
    return (span.end - span.start) - covered(children, span.start, span.end)


def layer_metrics(spans: list[Span], counts: dict[str, int], passes: int = 1) -> dict[str, float]:
    """Per pass: calls, total_s and self_s per span name, the counters, and the fast-path ratio."""
    out: dict[str, float] = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for span in spans:
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.total_s"] += span.end - span.start
        out[f"{span.name}.self_s"] += self_time(span)
    out.update(counts)
    out = {k: v / passes for k, v in out.items()}
    for k, v in out.items():
        if (k.endswith(".calls") or k in COUNTERS) and float(v).is_integer():
            out[k] = int(v)
    # share of the threshold sweep's best responses served by the fast path
    fast = sum(1 for s in spans if s.name == "noise._fast_threshold_targets")
    generic = sum(
        1
        for s in spans
        if s.name == "game._target_indices"
        and s.parent is not None
        and s.parent.name == "noise.threshold_sweep"
    )
    out["noise.fast_path_ratio"] = fast / (fast + generic) if fast + generic else 0.0
    return out


def pass_counts(spans: list[Span], before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Calls per span name and counter increments of one pass, from its spans
    and the counters before and after it.  These must repeat exactly."""
    out = {f"{name}.calls": 0 for name, _, _, _ in TARGETS}
    for span in spans:
        out[f"{span.name}.calls"] += 1
    out.update({k: after[k] - before[k] for k in COUNTERS})
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as flat records with integer ids, ready to write out."""
    ids = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "id": i,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": ids.get(id(s.parent)) if s.parent is not None else None,
            "thread": s.thread,
            "op": s.op,
        }
        for i, s in enumerate(spans)
    ]
