"""Scenario files: a YAML schema describing one game instance.

A scenario gives the feature grid, the population, how moves are priced
(one cost, or one per subpopulation), the observation noise, and optionally
a classifier to evaluate.  Alternatively a ``gaussian_instance`` section
names a Gaussian benchmark instance and the loader discretizes it onto a
grid.  Field names are normative; unknown keys are rejected so typos fail
loudly.  Parse and validation failures carry the source line when the
document provides one.

The loader keeps the parsed document alongside the built objects, so a
scenario can be serialized back out and reloaded to identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .analytic import DiscretizedInstance, GaussianInstance, discretize_instance
from .model import (
    Classifier,
    CostFunction,
    FeatureSpace,
    NoiseKernel,
    Population,
    SubpopulationScenario,
    ValidationError,
    _single,
    shift_cost,
)

__all__ = [
    "ScenarioError",
    "LoadedScenario",
    "parse_scenario",
    "load_scenario",
    "build_scenario",
    "dump_scenario",
    "save_scenario",
]

_ROOT_2PI = float(np.sqrt(2.0 * np.pi))


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, path: tuple = (), line: int | None = None):
        self.path = path
        self.line = line
        where = ".".join(str(p) for p in path) if path else "document"
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{where}: {message}")


def _collect_marks(node, path: tuple, marks: dict[tuple, int]) -> None:
    marks[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _collect_marks(value_node, path + (str(key_node.value),), marks)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _collect_marks(item, path + (i,), marks)


class _Doc:
    """The parsed document plus source-line lookups for diagnostics."""

    def __init__(self, data: Any, marks: dict[tuple, int]):
        self.data = data
        self.marks = marks

    def fail(self, path: tuple, message: str) -> ScenarioError:
        line = self.marks.get(path, self.marks.get(path[:-1]) if path else None)
        return ScenarioError(message, path, line)

    def section(self, data: Any, path: tuple, allowed: set[str]) -> dict:
        if not isinstance(data, dict):
            raise self.fail(path, f"expected a mapping, got {type(data).__name__}")
        for key in data:
            if key not in allowed:
                raise self.fail(
                    path + (key,),
                    f"unknown field {key!r} (allowed: {', '.join(sorted(allowed))})",
                )
        return data

    def require(self, data: dict, path: tuple, key: str) -> Any:
        if key not in data:
            raise self.fail(path, f"missing required field {key!r}")
        return data[key]

    def number(self, value: Any, path: tuple) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(path, f"expected a number, got {type(value).__name__}")
        return float(value)

    def vector(self, value: Any, path: tuple) -> np.ndarray:
        if not isinstance(value, list) or not value:
            raise self.fail(path, "expected a non-empty list of numbers")
        return np.array(
            [self.number(v, path + (i,)) for i, v in enumerate(value)], dtype=float
        )

    def matrix(self, value: Any, path: tuple) -> np.ndarray:
        if not isinstance(value, list) or not value:
            raise self.fail(path, "expected a non-empty list of rows")
        rows = [self.vector(row, path + (i,)) for i, row in enumerate(value)]
        widths = {r.size for r in rows}
        if len(widths) != 1:
            raise self.fail(path, "rows have inconsistent lengths")
        return np.vstack(rows)


@dataclass(frozen=True, eq=False)
class LoadedScenario:
    """A fully built scenario plus the document it came from."""

    source: dict
    scenario: SubpopulationScenario
    classifier: Classifier | None
    instance: GaussianInstance | None = None
    discretized: DiscretizedInstance | None = None

    @property
    def k(self) -> int:
        return self.scenario.k


def _build_cost(doc: _Doc, raw: Any, path: tuple, space: FeatureSpace) -> CostFunction:
    sec = doc.section(raw, path, {"kind", "matrix", "a", "sigma"})
    kind = doc.require(sec, path, "kind")
    try:
        if kind == "tabular":
            return CostFunction(space, doc.matrix(doc.require(sec, path, "matrix"), path + ("matrix",)))
        if kind == "shift":
            return shift_cost(space, doc.vector(doc.require(sec, path, "a"), path + ("a",)))
        if kind == "linear":
            sigma = doc.number(doc.require(sec, path, "sigma"), path + ("sigma",))
            if sigma <= 0:
                raise doc.fail(path + ("sigma",), "sigma must be positive")
            return shift_cost(space, space.points / (_ROOT_2PI * sigma))
    except ValidationError as e:
        raise doc.fail(path, str(e)) from e
    raise doc.fail(path + ("kind",), f"unknown cost kind {kind!r} (tabular, shift, linear)")


def _build_noise(doc: _Doc, raw: Any, path: tuple, space: FeatureSpace) -> NoiseKernel | None:
    sec = doc.section(raw, path, {"kind", "rows", "sigma"})
    kind = doc.require(sec, path, "kind")
    try:
        if kind == "none":
            return None
        if kind == "tabular":
            return NoiseKernel(space, doc.matrix(doc.require(sec, path, "rows"), path + ("rows",)))
        if kind == "gaussian":
            sigma = doc.number(doc.require(sec, path, "sigma"), path + ("sigma",))
            return NoiseKernel.gaussian(space, sigma)
    except ValidationError as e:
        raise doc.fail(path, str(e)) from e
    raise doc.fail(path + ("kind",), f"unknown noise kind {kind!r} (none, tabular, gaussian)")


def _build_classifier(doc: _Doc, raw: Any, path: tuple, space: FeatureSpace) -> Classifier:
    sec = doc.section(raw, path, {"kind", "tau", "strict", "probs"})
    kind = doc.require(sec, path, "kind")
    try:
        if kind == "threshold":
            tau = doc.number(doc.require(sec, path, "tau"), path + ("tau",))
            strict = sec.get("strict", False)
            if not isinstance(strict, bool):
                raise doc.fail(path + ("strict",), "strict must be a boolean")
            return Classifier.threshold(space, tau, strict=strict)
        if kind == "table":
            return Classifier(space, doc.vector(doc.require(sec, path, "probs"), path + ("probs",)))
    except ValidationError as e:
        raise doc.fail(path, str(e)) from e
    raise doc.fail(path + ("kind",), f"unknown classifier kind {kind!r} (threshold, table)")


def _build_instance(doc: _Doc, raw: Any, path: tuple):
    sec = doc.section(
        raw,
        path,
        {"t", "d", "sigma_A", "sigma_B", "s_A", "s_B", "sigma", "n", "grid_halfwidth_mult"},
    )
    kwargs = dict(
        t=doc.number(doc.require(sec, path, "t"), path + ("t",)),
        d=doc.number(doc.require(sec, path, "d"), path + ("d",)),
        sigma_a=doc.number(doc.require(sec, path, "sigma_A"), path + ("sigma_A",)),
        sigma_b=doc.number(doc.require(sec, path, "sigma_B"), path + ("sigma_B",)),
        s_a=doc.number(doc.require(sec, path, "s_A"), path + ("s_A",)),
    )
    if "s_B" in sec:
        kwargs["s_b"] = doc.number(sec["s_B"], path + ("s_B",))
    if "sigma" in sec:
        kwargs["sigma"] = doc.number(sec["sigma"], path + ("sigma",))
    n = sec.get("n", 401)
    if not isinstance(n, int) or isinstance(n, bool):
        raise doc.fail(path + ("n",), "n must be an integer")
    mult = doc.number(sec.get("grid_halfwidth_mult", 8.0), path + ("grid_halfwidth_mult",))
    try:
        inst = GaussianInstance(**kwargs)
        disc = discretize_instance(inst, n=n, grid_halfwidth_mult=mult)
    except ValidationError as e:
        raise doc.fail(path, str(e)) from e
    return inst, disc


_TOP_KEYS = {
    "features",
    "pi",
    "h",
    "cost",
    "noise",
    "subpopulations",
    "classifier",
    "gaussian_instance",
}


def build_scenario(source: dict, marks: dict[tuple, int] | None = None) -> LoadedScenario:
    """Build model objects from a parsed scenario document."""
    doc = _Doc(source, marks or {})
    top = doc.section(source, (), _TOP_KEYS)

    if "gaussian_instance" in top:
        clash = sorted(_TOP_KEYS - {"gaussian_instance", "classifier"})
        present = [k for k in clash if k in top]
        if present:
            raise doc.fail(
                ("gaussian_instance",),
                f"gaussian_instance replaces the discrete sections; remove {', '.join(present)}",
            )
        inst, disc = _build_instance(doc, top["gaussian_instance"], ("gaussian_instance",))
        space = disc.scenario.space
        if "classifier" in top:
            clf = _build_classifier(doc, top["classifier"], ("classifier",), space)
        else:
            clf = Classifier.threshold(space, 0.0, strict=True)
        return LoadedScenario(
            source=source,
            scenario=disc.scenario,
            classifier=clf,
            instance=inst,
            discretized=disc,
        )

    try:
        space = FeatureSpace(doc.vector(doc.require(top, (), "features"), ("features",)))
    except ValidationError as e:
        raise doc.fail(("features",), str(e)) from e
    try:
        pop = Population(
            space,
            doc.vector(doc.require(top, (), "pi"), ("pi",)),
            doc.vector(doc.require(top, (), "h"), ("h",)),
        )
    except ValidationError as e:
        raise doc.fail((), str(e)) from e

    kernel = None
    if "noise" in top:
        kernel = _build_noise(doc, top["noise"], ("noise",), space)

    if "subpopulations" in top:
        if "cost" in top:
            raise doc.fail(
                ("cost",), "give either one top-level cost or per-subpopulation costs, not both"
            )
        subs = top["subpopulations"]
        if not isinstance(subs, list) or not subs:
            raise doc.fail(("subpopulations",), "expected a non-empty list")
        shares: list[float] = []
        fns: list[CostFunction] = []
        labels: list[str] = []
        for i, entry in enumerate(subs):
            spath = ("subpopulations", i)
            sec = doc.section(entry, spath, {"share", "cost", "label"})
            shares.append(doc.number(doc.require(sec, spath, "share"), spath + ("share",)))
            fns.append(_build_cost(doc, doc.require(sec, spath, "cost"), spath + ("cost",), space))
            if "label" in sec:
                if not isinstance(sec["label"], str):
                    raise doc.fail(spath + ("label",), "label must be a string")
                labels.append(sec["label"])
            else:
                labels.append("")
        if any(labels):
            if not all(labels):
                raise doc.fail(("subpopulations",), "label all subpopulations or none")
        else:
            labels = []
        try:
            scen = SubpopulationScenario(
                pop=pop,
                shares=np.array(shares),
                cost_fns=tuple(fns),
                kernel=kernel,
                labels=tuple(labels),
            )
        except ValidationError as e:
            raise doc.fail(("subpopulations",), str(e)) from e
    else:
        cost = _build_cost(doc, doc.require(top, (), "cost"), ("cost",), space)
        scen = _single(pop, cost, kernel)

    clf = None
    if "classifier" in top:
        clf = _build_classifier(doc, top["classifier"], ("classifier",), space)
    return LoadedScenario(source=source, scenario=scen, classifier=clf)


def parse_scenario(text: str) -> LoadedScenario:
    """Parse and build a scenario from YAML text."""
    try:
        data = yaml.safe_load(text)
        node = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as e:
        line = None
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ScenarioError(f"invalid YAML: {e}", (), line) from e
    if not isinstance(data, dict):
        raise ScenarioError("expected a mapping at the top level", (), 1)
    marks: dict[tuple, int] = {}
    if node is not None:
        _collect_marks(node, (), marks)
    return build_scenario(data, marks)


def load_scenario(path: str | Path) -> LoadedScenario:
    return parse_scenario(Path(path).read_text())


def dump_scenario(source: dict) -> str:
    """Serialize a scenario document back to YAML (round-trip safe)."""
    return yaml.safe_dump(source, sort_keys=True, default_flow_style=None)


def save_scenario(source: dict, path: str | Path) -> None:
    Path(path).write_text(dump_scenario(source))
