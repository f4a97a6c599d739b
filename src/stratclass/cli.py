"""Command line front end: evaluate, solve, and sweep scenario files.

Four subcommands share the flag ``--format {text,json,csv}``:

* ``evaluate`` prints U, C, E (plus per-group accuracies and the gap when
  the scenario has subpopulations) for the file's classifier.
* ``solve`` optimizes utility or efficiency in deterministic or randomized
  mode; utility+randomized is rejected because any randomized utility
  optimum is unstable against its own derandomization.
* ``sweep`` re-evaluates the scenario along a parameter grid and writes
  CSV rows ``param,U,U_<label>...,gap,E``, one ``U_<label>`` per group in
  the file's order (``U_A,U_B`` with empty cells for a single population),
  once every row is done: the whole sweep, or nothing when a row fails.
  Rows run one at a time, in order, on the calling thread;
  ``--threads N`` is checked (N >= 1) and changes nothing.  A ``sigma`` or
  ``s_A`` value outside its domain is refused before any row runs, and
  ``--range`` is refused above 2**20 steps, whose rows fill
  ``DENSE_BYTES_LIMIT``.
* ``reproduce`` runs one of the built-in verification targets and maps
  check failures to exit code 1; ``--tol`` (finite, nonnegative) overrides
  its tolerances.

Exit codes: 0 success, 1 failed reproduce checks, 2 usage, parse or
validation errors.  All numbers are printed with 12 significant digits and
output is byte-identical across runs (warnings go to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, Callable, Iterable, TextIO

import numpy as np

from .model import (
    DENSE_BYTES_LIMIT,
    Classifier,
    SubpopulationScenario,
    ValidationError,
)
from .noise import solve_deterministic_noisy, subpop_accuracies
from .reproduce import TARGETS, Check, ReproduceResult, _fmt, run_reproduce
from .scenario import LoadedScenario, ScenarioError, load_scenario, noise_rebuilder
from .solvers import solve_efficiency_lp

__all__ = ["main"]

# A sweep holds every row until it writes them, so stdout gets the whole sweep
# or nothing.  tracemalloc puts the peak of `sweep --param tau` on a two-group
# file, between 2,000 and 12,000 steps, at 263-266 B a row with CSV output and
# at about 1,880 B a row with JSON output (a record and its text).  Budgeting
# 2 KiB a row on every path keeps the rows within DENSE_BYTES_LIMIT:
# 2**31 / 2**11 = 2**20 steps at most.
_SWEEP_ROW_BYTES = 2048
_MAX_SWEEP_STEPS = DENSE_BYTES_LIMIT // _SWEEP_ROW_BYTES


class CliError(Exception):
    """A usage or validation problem; reported on stderr with exit code 2."""


def _jsonable(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        # the 12 digits csv prints, so json and csv encodings agree exactly
        return float(_fmt(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    return value


def _cell(value: Any) -> str:
    """One CSV cell; lists are ;-joined so a record stays one row."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _text_value(value: Any) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "(" + ", ".join(_cell(v) for v in value) + ")"
    return _cell(value)


def _write_csv_row(out: TextIO, cells: Iterable[str]) -> None:
    row = []
    for cell in cells:
        if any(ch in cell for ch in ",\"\n"):
            cell = '"' + cell.replace('"', '""') + '"'
        row.append(cell)
    out.write(",".join(row) + "\n")


def _emit_record(pairs: list[tuple[str, Any]], fmt: str, out: TextIO) -> None:
    """One flat key-value record in the chosen encoding."""
    if fmt == "json":
        out.write(json.dumps({k: _jsonable(v) for k, v in pairs}, indent=2) + "\n")
    elif fmt == "csv":
        _write_csv_row(out, (k for k, _ in pairs))
        _write_csv_row(out, (_cell(v) for _, v in pairs))
    else:
        for key, value in pairs:
            out.write(f"{key}={_text_value(value)}\n")


# ---------------------------------------------------------------- evaluate


def _evaluation_pairs(loaded: LoadedScenario, f: Classifier) -> list[tuple[str, Any]]:
    rep = subpop_accuracies(f, loaded.scenario)
    pairs: list[tuple[str, Any]] = [
        ("U", rep.utility),
        ("C", rep.cost),
        ("E", rep.efficiency),
    ]
    if loaded.scenario.k > 1:
        for label, u in zip(rep.labels, rep.utilities):
            pairs.append((f"U_{label}", u))
        pairs.append(("gap", rep.gap))
    return pairs


def cmd_evaluate(args: argparse.Namespace, out: TextIO) -> int:
    loaded = load_scenario(args.scenario)
    if loaded.classifier is None:
        raise CliError("the scenario file has no classifier section to evaluate")
    _emit_record(_evaluation_pairs(loaded, loaded.classifier), args.format, out)
    return 0


# ------------------------------------------------------------------ solve


def cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
    if args.objective == "utility" and args.mode == "randomized":
        raise CliError(
            "utility cannot be optimized over randomized classifiers: the "
            "optimum is never stable, since derandomizing it (keeping only "
            "the probability-1 acceptances) does at least as well against "
            "the responses the randomized classifier itself induces"
        )
    loaded = load_scenario(args.scenario)
    scen = loaded.scenario

    if args.mode == "deterministic":
        rep = solve_deterministic_noisy(scen, args.objective)
        key = "U" if args.objective == "utility" else "E"
        pairs = [("tau", rep.tau), ("strict", rep.strict), (key, rep.objective)]
        _emit_record(pairs, args.format, out)
        return 0

    # randomized + efficiency: the cost-covering linear program
    if scen.kernel is not None:
        raise CliError(
            "the efficiency linear program covers the noiseless game only; "
            "remove the noise section"
        )
    if scen.k != 1:
        raise CliError(
            "the efficiency linear program solves a single population; "
            "merge the subpopulations or solve them separately"
        )
    rep = solve_efficiency_lp(scen.pop, scen.cost_fns[0])
    pairs = [("g", list(rep.classifier.probs)), ("E", rep.objective)]
    _emit_record(pairs, args.format, out)
    return 0


# ------------------------------------------------------------------ sweep


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("--range expects lo:hi:steps")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise CliError(f"--range expects lo:hi:steps, got {text!r}") from None
    if steps < 2:
        raise CliError("--range needs steps >= 2")
    if steps > _MAX_SWEEP_STEPS:
        raise CliError(f"--range allows at most {_MAX_SWEEP_STEPS} steps, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise CliError(f"--range needs finite lo, hi and hi - lo, got {text!r}")
    return np.linspace(lo, hi, steps)


def _sweep_worker(
    loaded: LoadedScenario, param: str
) -> Callable[[float], tuple[SubpopulationScenario, Classifier]]:
    """Build the value -> (scenario, classifier) map for one sweep parameter."""
    scen = loaded.scenario

    if param == "tau":
        strict = loaded.threshold is not None and loaded.threshold[1]
        return lambda v: (scen, Classifier.threshold(scen.space, float(v), strict=strict))

    if param == "sigma":
        if loaded.instance is not None and loaded.threshold is None:
            raise CliError(
                "a table classifier is tied to one grid; sigma sweeps on a "
                "gaussian_instance rebuild the grid, so use a threshold classifier"
            )
        rebuild = noise_rebuilder(loaded)
        if loaded.classifier is None:
            raise CliError("the scenario file needs a classifier section to sweep")
        return rebuild

    # s_A: reweight the first two subpopulations
    if loaded.scenario.k != 2:
        raise CliError("s_A sweeps need exactly two subpopulations")
    if loaded.classifier is None:
        raise CliError("the scenario file needs a classifier section to sweep")
    clf = loaded.classifier
    return lambda v: (dataclasses.replace(scen, shares=np.array([v, 1.0 - v])), clf)


def _refuse_bad_values(param: str, values: np.ndarray) -> None:
    """Refuse a sweep's first value outside its parameter's domain, before any row runs."""
    if param == "sigma":
        bad, rule = values < 0.0, "sigma values must be nonnegative"
    elif param == "s_A":
        bad, rule = (values < 0.0) | (values > 1.0), "s_A values must lie in [0, 1]"
    else:
        return
    if bad.any():
        raise CliError(f"{rule}, got {_fmt(values[bad][0])}")


def _sweep_columns(scen: SubpopulationScenario) -> tuple[str, ...]:
    """One U_<label> column per group; a single population keeps empty U_A and U_B."""
    groups = [f"U_{label}" for label in scen.labels] if scen.k > 1 else ["U_A", "U_B"]
    return ("param", "U", *groups, "gap", "E")


def _sweep_row(value: float, scen: SubpopulationScenario, clf: Classifier) -> list:
    rep = subpop_accuracies(clf, scen)
    if len(rep.labels) > 1:
        return [value, rep.utility, *rep.utilities, rep.gap, rep.efficiency]
    return [value, rep.utility, None, None, None, rep.efficiency]


def cmd_sweep(args: argparse.Namespace, out: TextIO) -> int:
    if args.threads < 1:
        raise CliError(f"--threads needs at least 1, got {args.threads}")
    values = _parse_range(args.range)
    loaded = load_scenario(args.scenario)
    build = _sweep_worker(loaded, args.param)
    _refuse_bad_values(args.param, values)
    rows = [_sweep_row(v, *build(v)) for v in values.tolist()]
    columns = _sweep_columns(loaded.scenario)
    if args.format == "json":
        records = [dict(zip(columns, map(_jsonable, r))) for r in rows]
        out.write(json.dumps(records, indent=2) + "\n")
    else:
        _write_csv_row(out, columns)
        for r in rows:
            _write_csv_row(out, (_cell(v) for v in r))
    return 0


# -------------------------------------------------------------- reproduce


def _emit_reproduce(result: ReproduceResult, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        checks = [dataclasses.asdict(c) for c in result.checks]
        payload = {"target": result.target, "passed": result.passed, "checks": checks}
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    if fmt == "csv":
        _write_csv_row(out, (f.name for f in dataclasses.fields(Check)))
        for c in result.checks:
            _write_csv_row(out, map(_cell, dataclasses.astuple(c)))
        return
    for c in result.checks:
        verdict = "pass" if c.passed else "FAIL"
        out.write(f"{verdict} {c.name}: expected {c.expected} actual {c.actual}\n")
    good = sum(1 for c in result.checks if c.passed)
    verdict = "pass" if result.passed else "FAIL"
    out.write(f"{result.target}: {verdict} ({good}/{len(result.checks)} checks)\n")


def cmd_reproduce(args: argparse.Namespace, out: TextIO) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise CliError(f"--tol needs a finite nonnegative number, got {_fmt(args.tol)}")
    try:
        result = run_reproduce(args.id, tol=args.tol)
    except KeyError as e:
        raise CliError(str(e.args[0])) from None
    _emit_reproduce(result, args.format, out)
    return 0 if result.passed else 1


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output encoding (sweep treats text as csv)",
    )

    parser = argparse.ArgumentParser(
        prog="stratclass",
        description="evaluate, solve, and sweep strategic-classification scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate the file's classifier")
    p.add_argument("scenario", help="scenario file (YAML)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("solve", parents=[common], help="optimize a classifier")
    p.add_argument("scenario", help="scenario file (YAML)")
    p.add_argument("--objective", choices=("utility", "efficiency"), required=True)
    p.add_argument("--mode", choices=("deterministic", "randomized"), required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common], help="re-evaluate along a parameter grid")
    p.add_argument("scenario", help="scenario file (YAML)")
    p.add_argument("--param", choices=("tau", "sigma", "s_A"), required=True)
    p.add_argument("--range", required=True, help="lo:hi:steps with steps >= 2")
    p.add_argument("--threads", type=int, default=1, help="checked (>= 1), no effect: rows run in order")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common], help="run a built-in verification target")
    p.add_argument("id", help=", ".join(TARGETS))
    p.add_argument("--tol", type=float, help="override the built-in check tolerances")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # Fold "--range -1:1:5" into "--range=-1:1:5"; argparse would otherwise
    # mistake a negative lower bound for an option name.
    folded: list[str] = []
    i = 0
    while i < len(raw):
        if raw[i] == "--range" and i + 1 < len(raw):
            folded.append(f"--range={raw[i + 1]}")
            i += 2
        else:
            folded.append(raw[i])
            i += 1
    args = build_parser().parse_args(folded)
    try:
        return args.func(args, sys.stdout)
    except (CliError, ScenarioError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
