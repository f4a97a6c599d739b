"""Benchmark of the stratclass CLI: three workloads, end-to-end and per-module metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noisy-801 --seed 0 --seconds 30 --trace 0

The run writes its scenario file from ``--seed``, starts a few fresh
processes that only import ``stratclass.cli`` (set-up time), then one fresh
worker process (worker.py) that calls ``stratclass.cli.main`` in a closed
loop with one client for ``--seconds``.  Last, one op is repeated in a fresh
``python -m stratclass.cli`` process to check that the worker's per-op
warning isolation writes the same number of stderr lines.

Standard output: ``# `` header lines with the run facts, one line per metric
with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The JSON object
holds the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and
the ``per_layer`` ones with ``--trace 1``; the lines above it also show the
metrics BENCHMARK.json does not list.  The run exits 2 without a result when the checkout has
no ``src/stratclass``, and 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

# import-only processes before and after the worker, whose own import is one
# more sample; spreading them over the run samples more of the host's states
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 3, 2
TIME_LIMIT_S = 170.0  # the whole run, worker and checks included
OP_KINDS = ("solve", "evaluate", "sweep", "reproduce")


def op_tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile of ``latencies`` with at least ten values beyond it.

    Returns (value, percentile, count), or None below twenty values.
    """
    n = len(latencies)
    if n < 20:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def _latencies(passes: list[dict], workload) -> dict[tuple, list[float]]:
    """Latencies of each distinct op of the op list, over the given passes."""
    out: dict[tuple, list[float]] = {}
    for p in passes:
        for o in p["ops"]:
            out.setdefault(workload.ops[o["op"]], []).append(o["end"] - o["start"])
    return out


def end_to_end(result: dict, setup: list[float], workload) -> list[tuple[str, float, str]]:
    """End-to-end metrics from the untraced passes, as (name, value, unit).

    ``wall_s`` is the median pass, and ``<kind>_s`` sums, over the distinct
    ops of that kind, each op's median latency; ``small-lp`` has two ``solve``
    ops of very different lengths.  The fastest follow as ``<name>.min``.
    A ``<kind>_s`` is absent where the workload issues no op of that kind.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    latencies = _latencies(passes, workload)
    rows = [
        ("setup_s", statistics.median(setup), "s"),
        ("wall_s", statistics.median(walls), "s"),
        ("wall_s.min", min(walls), "s"),
    ]
    for kind in OP_KINDS:
        of_kind = [lat for op, lat in latencies.items() if op[0] == kind]
        if of_kind:
            rows.append((f"{kind}_s", sum(statistics.median(lat) for lat in of_kind), "s"))
            rows.append((f"{kind}_s.min", sum(min(lat) for lat in of_kind), "s"))
    ops = [o for p in result["passes"] for o in p["ops"]]
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MiB"))
    rows.append(("error_rate", sum(1 for o in ops if o["error"]) / len(ops), "fraction"))
    tail = op_tail([o["end"] - o["start"] for p in passes for o in p["ops"]])
    if tail is not None:
        rows += [("op_tail_s", tail[0], "s"), ("op_tail_percentile", tail[1], "%"), ("op_tail_ops", tail[2], "count")]
    return rows


def per_layer(result: dict) -> dict:
    """Per-layer metrics per traced pass, with the CLI stream counts and the trace overhead."""
    metrics = dict(result["layers"])
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    # stream counts come from untraced passes: a wrapper frame changes the
    # location a warning is attributed to, and so which warnings repeat
    metrics["cli.stderr_lines"] = sum(o["stderr_lines"] for o in plain[-1]["ops"])
    metrics["cli.stdout_bytes"] = sum(o["stdout_bytes"] for o in plain[-1]["ops"])
    metrics["trace.overhead_s"] = min(p["wall_s"] for p in traced) - min(p["wall_s"] for p in plain)
    return metrics


def trace_problems(result: dict, workload) -> list[str]:
    """What shows the wrappers did not see every call: a traced name that is
    missing, a count that differs between traced passes, and on ``noisy-801``
    a ``_target_indices`` call count other than the one its op list gives."""
    problems = [f"traced function missing: {name}" for name in result["missing"]]
    counts = [p["counts"] for p in result["passes"] if p["traced"]]
    for key in counts[0]:
        seen = sorted({c[key] for c in counts})
        if len(seen) > 1:
            problems.append(f"{key} differs between traced passes: {seen}")
    expected = workload.target_indices_per_pass
    if expected is not None:
        seen = sorted({c["game._target_indices.calls"] for c in counts})
        if seen != [expected]:
            problems.append(f"game._target_indices.calls per traced pass is {seen}, not {expected}")
    return problems


def _spawn(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    # subprocess.run kills the child on timeout and waits for it to end
    return subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - perf_counter())
    )


def _setup_samples(worker: list[str], env: dict, deadline: float, count: int) -> list[float]:
    """Seconds from spawn to the end of ``import stratclass.cli``, in fresh processes."""
    samples = []
    for _ in range(count):
        proc = _spawn([*worker, "--setup-only", "--spawned-at", repr(perf_counter())], env, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout)["setup_s"])
    return samples


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S

    root = Path.cwd().resolve()
    here = Path(__file__).resolve().parent
    src = root / "src"
    if not (src / "stratclass" / "cli.py").is_file():
        print(f"error: {src / 'stratclass'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]

    work = root / ".perfbench_runs"
    work.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    scenario = work / f"{stem}.yaml"
    scenario.write_text(workloads.scenario_yaml(workload.name, args.seed))
    result_file = work / f"{stem}-trace{args.trace}.result.json"
    result_file.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    worker = [sys.executable, str(here / "worker.py")]

    setup = _setup_samples(worker, env, deadline, SETUP_SAMPLES_BEFORE)

    proc = _spawn(
        [
            *worker,
            "--spawned-at", repr(perf_counter()),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--scenario", str(scenario),
            "--result", str(result_file),
            "--spans", str(work / f"{stem}.spans.jsonl"),
        ],
        env,
        deadline,
    )
    if proc.returncode != 0 or not result_file.exists():
        print(f"error: worker exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text())
    setup.append(result["setup_s"])
    setup += _setup_samples(worker, env, deadline, SETUP_SAMPLES_AFTER)

    problems = []
    if not Path(result["module"]).resolve().is_relative_to(src):
        problems.append(f"stratclass was imported from {result['module']}, not from {src}")
    if not result["golden"]:
        problems.append("no recorded seed-0 outputs to compare with")
    ops = [o for p in result["passes"] for o in p["ops"]]
    for i, o in enumerate(ops):
        if o["error"]:
            problems.append(f"op {i} ({o['kind']}): {o['error']}")

    # a fresh CLI process must write as many stderr lines as the isolated op did
    check_op = workload.ops[workload.isolation_op]
    fresh = _spawn(
        [sys.executable, "-m", "stratclass.cli", *workloads.op_argv(check_op, str(scenario))], env, deadline
    )
    plain = [p for p in result["passes"] if not p["traced"]]
    in_process = plain[-1]["ops"][workload.isolation_op]["stderr_lines"]
    fresh_lines = fresh.stderr.count("\n")
    if fresh.returncode != 0 or fresh_lines != in_process:
        problems.append(
            f"warning isolation: {' '.join(check_op)} wrote {in_process} stderr lines "
            f"in-process, {fresh_lines} in a fresh process (exit {fresh.returncode})"
        )

    rows = end_to_end(result, setup, workload)
    header = {
        "workload": workload.name,
        "n": workload.n,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **result["env"],
        "passes": len(result["passes"]),
        "ops": len(ops),
        "setup_samples": len(setup),
        "stderr_lines_in_process_vs_fresh": f"{in_process} vs {fresh_lines}",
    }
    if args.trace:
        problems += trace_problems(result, workload)
        listed = spec["per_layer"]
        values = per_layer(result)
        rows = [(m["name"], values.get(m["name"]), m["unit"]) for m in listed] + [
            row for row in rows if row[0] == "error_rate"
        ]
        header["missing_functions"] = ",".join(result["missing"]) or "none"
        header["target_indices_calls_per_op"] = " ".join(
            f"{i}:{c:g}" for i, c in enumerate(result["target_indices_per_op"])
        )
    else:
        # BENCHMARK.json gates the metrics it lists; the rest are printed only
        listed = spec["end_to_end"]
        values = {name: value for name, value, _ in rows}
    for key, value in header.items():
        print(f"# {key}: {value}")
    absent = [m["name"] for m in listed if values.get(m["name"]) is None]
    if absent:
        print(f"error: the run produced no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    for name, value, unit in rows:
        print(f"{name} {value!r} {unit}")
    for problem in problems:
        print(f"# problem: {problem}")
    report = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["error"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
