"""Scenario files: a YAML schema describing one game instance.

A scenario gives the feature grid, the population, how moves are priced
(one cost, or one per subpopulation), the observation noise, and optionally
a classifier to evaluate.  Alternatively a ``gaussian_instance`` section
names a Gaussian benchmark instance and the loader discretizes it onto a
grid.  Field names are normative; unknown keys are rejected so typos fail
loudly.  Parse and validation failures carry the source line when the
document provides one.

The loader keeps the parsed document alongside the built objects, so a
scenario can be serialized back out and reloaded to identical values, and
rebuilt at another noise level (``noise_rebuilder``).  This is the only
module that reads a scenario document.
"""

from __future__ import annotations

import dataclasses
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
import yaml

from .analytic import GaussianInstance, _linear_cost, discretize_instance
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
    "noise_rebuilder",
    "dump_scenario",
    "save_scenario",
]


# libyaml's loader builds the same nodes, marks and data about five times
# faster; PyYAML built without it has only the pure-Python one
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


class _Dumper(yaml.SafeDumper):
    pass


# YAML 1.1 reads 1e-3, 1E+3 and 1.0e300 as strings; both classes read them as
# floats, as YAML 1.2 does, so a string so spelled is dumped quoted
for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )

_MERGE_TAG = "tag:yaml.org,2002:merge"


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, path: tuple = (), line: int | None = None):
        self.path = path
        self.line = line
        where = ".".join(str(p) for p in path) if path else "document"
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{where}: {message}")


def _collect_marks(node, path: tuple, marks: dict[tuple, int]) -> None:
    # depth first in document order; a node that holds itself through an alias
    # (&x [*x]) is refused at the line of the key or sequence that refers to it,
    # and a key repeated in one mapping, whose last value alone would be kept,
    # at the repeat (a key that a `<<` merge brings in may be overridden)
    todo = [(node, path, node.start_mark.line + 1, ())]
    while todo:
        node, path, line, outer = todo.pop()
        if any(node is o for o in outer):
            raise ScenarioError("an alias refers to a node that contains it", path, line)
        marks[path] = node.start_mark.line + 1
        kids = []
        if isinstance(node, yaml.MappingNode):
            kids = [(v, path + (str(k.value),), k.start_mark.line + 1) for k, v in node.value]
            seen = set()
            for (k, _), (_, kid, kline) in zip(node.value, kids):
                if kid in seen:
                    raise ScenarioError("duplicate key", kid, kline)
                if k.tag != _MERGE_TAG:
                    seen.add(kid)
        elif isinstance(node, yaml.SequenceNode):
            kids = [(v, path + (i,), marks[path]) for i, v in enumerate(node.value)]
        inner = outer + (node,)
        todo += [(*kid, inner) for kid in reversed(kids)]


@dataclass(frozen=True)
class _Doc:
    """Source-line lookups for diagnostics on a parsed document."""

    marks: dict[tuple, int]

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

    @contextmanager
    def checked(self, path: tuple) -> Iterator[None]:
        """Report a model ``ValidationError`` raised inside as a failure at ``path``."""
        try:
            yield
        except ValidationError as e:
            raise self.fail(path, str(e)) from e

    def require(self, data: dict, path: tuple, key: str) -> Any:
        if key not in data:
            raise self.fail(path, f"missing required field {key!r}")
        return data[key]

    def number(self, value: Any, path: tuple) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(path, f"expected a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = np.inf
        if not np.isfinite(number):
            raise self.fail(path, "expected a finite number")
        return number

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
    """A fully built scenario plus the document it came from.

    ``threshold`` is the cut ``(tau, strict)`` the classifier was built from
    (a ``gaussian_instance`` without one gets the strict zero cut), or None.
    """

    source: dict
    scenario: SubpopulationScenario
    classifier: Classifier | None
    instance: GaussianInstance | None = None
    threshold: tuple[float, bool] | None = None


def _build_cost(doc: _Doc, raw: Any, path: tuple, space: FeatureSpace) -> CostFunction:
    sec = doc.section(raw, path, {"kind", "matrix", "a", "sigma"})
    kind = doc.require(sec, path, "kind")
    with doc.checked(path):
        if kind == "tabular":
            return CostFunction(space, doc.matrix(doc.require(sec, path, "matrix"), path + ("matrix",)))
        if kind == "shift":
            return shift_cost(space, doc.vector(doc.require(sec, path, "a"), path + ("a",)))
        if kind == "linear":
            sigma = doc.number(doc.require(sec, path, "sigma"), path + ("sigma",))
            if sigma <= 0:
                raise doc.fail(path + ("sigma",), "sigma must be positive")
            with doc.checked(path + ("sigma",)):
                return _linear_cost(space, sigma, "sigma")
    raise doc.fail(path + ("kind",), f"unknown cost kind {kind!r} (tabular, shift, linear)")


def _build_noise(doc: _Doc, raw: Any, path: tuple, space: FeatureSpace) -> NoiseKernel | None:
    sec = doc.section(raw, path, {"kind", "rows", "sigma"})
    kind = doc.require(sec, path, "kind")
    with doc.checked(path):
        if kind == "none":
            return None
        if kind == "tabular":
            return NoiseKernel(space, doc.matrix(doc.require(sec, path, "rows"), path + ("rows",)))
        if kind == "gaussian":
            sigma = doc.number(doc.require(sec, path, "sigma"), path + ("sigma",))
            return NoiseKernel.gaussian(space, sigma)
    raise doc.fail(path + ("kind",), f"unknown noise kind {kind!r} (none, tabular, gaussian)")


def _build_classifier(
    doc: _Doc, raw: Any, path: tuple, space: FeatureSpace
) -> tuple[Classifier, tuple[float, bool] | None]:
    sec = doc.section(raw, path, {"kind", "tau", "strict", "probs"})
    kind = doc.require(sec, path, "kind")
    with doc.checked(path):
        if kind == "threshold":
            tau = doc.number(doc.require(sec, path, "tau"), path + ("tau",))
            strict = sec.get("strict", False)
            if not isinstance(strict, bool):
                raise doc.fail(path + ("strict",), "strict must be a boolean")
            return Classifier.threshold(space, tau, strict=strict), (tau, strict)
        if kind == "table":
            probs = doc.vector(doc.require(sec, path, "probs"), path + ("probs",))
            return Classifier(space, probs), None
    raise doc.fail(path + ("kind",), f"unknown classifier kind {kind!r} (threshold, table)")


def _build_instance(doc: _Doc, raw: Any, path: tuple):
    sec = doc.section(raw, path, {"t", "d", "sigma_A", "sigma_B", "s_A", "s_B", "sigma", "n"})
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
    grid = {}  # discretize_instance owns the defaults
    if "n" in sec:
        grid["n"] = sec["n"]
        if not isinstance(grid["n"], int) or isinstance(grid["n"], bool):
            raise doc.fail(path + ("n",), "n must be an integer")
    try:
        inst = GaussianInstance(**kwargs)
        return inst, discretize_instance(inst, **grid)
    except ValidationError as e:
        # the messages name the fields sigma_a and sigma_b; the document says sigma_A, sigma_B
        message = re.sub(r"\bsigma_([ab])\b", lambda m: f"sigma_{m[1].upper()}", str(e))
        raise doc.fail(path, message) from e


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
    doc = _Doc(marks or {})
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
            clf, cut = _build_classifier(doc, top["classifier"], ("classifier",), space)
        else:
            cut = (0.0, True)
            clf = Classifier.threshold(space, *cut)
        return LoadedScenario(
            source=source,
            scenario=disc.scenario,
            classifier=clf,
            instance=inst,
            threshold=cut,
        )

    with doc.checked(("features",)):
        space = FeatureSpace(doc.vector(doc.require(top, (), "features"), ("features",)))
    # a Population refusal names its field first and is reported at that field
    pi, h = [doc.vector(doc.require(top, (), key), (key,)) for key in ("pi", "h")]
    try:
        pop = Population(space, pi, h)
    except ValidationError as e:
        key, _, message = str(e).partition(": ")
        raise doc.fail((key,), message) from e

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
        with doc.checked(("subpopulations",)):
            scen = SubpopulationScenario(
                pop=pop,
                shares=np.array(shares),
                cost_fns=tuple(fns),
                kernel=kernel,
                labels=tuple(labels),
            )
    else:
        cost = _build_cost(doc, doc.require(top, (), "cost"), ("cost",), space)
        scen = _single(pop, cost, kernel)

    clf = cut = None
    if "classifier" in top:
        clf, cut = _build_classifier(doc, top["classifier"], ("classifier",), space)
    return LoadedScenario(source=source, scenario=scen, classifier=clf, threshold=cut)


def parse_scenario(text: str) -> LoadedScenario:
    """Parse and build a scenario from YAML text, in one YAML parse."""
    data, marks = None, {}
    try:
        loader = _Loader(text)
        try:  # safe_load's two steps, marks first: construction rewrites merge keys
            node = loader.get_single_node()
            if node is not None:
                _collect_marks(node, (), marks)
                data = loader.construct_document(node)
        finally:
            loader.dispose()
    except yaml.YAMLError as e:
        line = None
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ScenarioError(f"invalid YAML: {e}", (), line) from e
    if not isinstance(data, dict):
        raise ScenarioError("expected a mapping at the top level", (), 1)
    return build_scenario(data, marks)


def noise_rebuilder(loaded: LoadedScenario) -> Callable[[float], tuple]:
    """The map from a noise level sigma to the scenario and classifier rebuilt at it.

    An instance document goes back through ``build_scenario`` with its sigma
    replaced; a discrete one keeps its costs and gets ``NoiseKernel.gaussian``
    at sigma, none at 0.  A tabular kernel has no sigma and is refused first.
    """
    source, scen = loaded.source, loaded.scenario
    if loaded.instance is None and source.get("noise", {}).get("kind") == "tabular":
        raise ValidationError("a tabular noise kernel has no sigma; use gaussian noise")

    def rebuild(sigma: float) -> tuple[SubpopulationScenario, Classifier | None]:
        if loaded.instance is None:
            kernel = NoiseKernel.gaussian(scen.space, sigma)
            return dataclasses.replace(scen, kernel=kernel), loaded.classifier
        inst = dict(source["gaussian_instance"], sigma=sigma)
        row = build_scenario(dict(source, gaussian_instance=inst))
        return row.scenario, row.classifier

    return rebuild


def load_scenario(path: str | Path) -> LoadedScenario:
    return parse_scenario(Path(path).read_text())


def dump_scenario(source: dict) -> str:
    """Serialize a scenario document back to YAML (round-trip safe)."""
    return yaml.dump(source, Dumper=_Dumper, sort_keys=True, default_flow_style=None)


def save_scenario(source: dict, path: str | Path) -> None:
    Path(path).write_text(dump_scenario(source))
