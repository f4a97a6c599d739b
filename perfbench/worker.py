"""One fresh process that runs a workload's op list as a closed loop.

Started by run.py, never by hand.  The process imports ``stratclass.cli``
and reports how long that took from the moment the parent spawned it.  With
``--setup-only`` it stops there.  Otherwise it calls ``stratclass.cli.main``
in-process, one op after another, in whole passes over the op list: at
least two, and more until the next pass would end after ``--seconds``.  It
checks every op's output and writes a JSON result file for the parent.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones run with the wrappers from tracing.py installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path
from time import perf_counter

# run.py starts this file as a script, so its directory is on sys.path; the
# harness modules are imported after stratclass, outside the set-up time
HERE = Path(__file__).resolve().parent


def _args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--scenario")
    p.add_argument("--result")
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_op(cli, argv: list[str]) -> dict:
    """One CLI call in this process, with its own warning registry and streams."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    # catch_warnings resets the once-per-location registry, so each op
    # writes the warnings a fresh `python -m stratclass.cli` would
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # an op that raises is a failed op, not a failed run
            rc, error = None, f"{type(e).__name__}: {e}"
    end = perf_counter()
    stdout = out.getvalue()
    return {
        "start": start,
        "end": end,
        "rc": rc,
        "stdout": stdout,
        "stdout_bytes": len(stdout.encode()),
        "stderr_lines": err.getvalue().count("\n"),
        "error": error,
    }


def _blas() -> tuple[str, int | None]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas64_" in line}
        for lib in libs:
            get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if get is not None:
                get.restype = ctypes.c_int
                threads = int(get())
    except OSError:
        pass
    return name, threads


def env_facts() -> dict:
    import platform

    import numpy as np
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs_version = "unknown"
    blas, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def run_pass(cli, workload, seed: int, scenario: str, golden, tracer, first_op: int) -> dict:
    import workloads

    ops = []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.begin_op(first_op + i)
        ops.append(run_op(cli, workloads.op_argv(op, scenario)))
    stdouts = [rec.pop("stdout") for rec in ops]
    broken = workloads.check_pass(workload.name, stdouts)
    for i, (op, rec, stdout) in enumerate(zip(workload.ops, ops, stdouts)):
        recorded = golden[i] if golden else None
        rec["error"] = (
            rec["error"] or workloads.check_op(op, seed, rec["rc"], stdout, recorded) or broken.get(i)
        )
        rec.update(op=i, kind=op[0])
    return {"wall_s": ops[-1]["end"] - ops[0]["start"], "ops": ops}


def measure(cli, args: argparse.Namespace) -> dict:
    import resource
    import statistics

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    golden_file = HERE / "golden" / f"{workload.name}.json"
    golden = json.loads(golden_file.read_text())["ops"] if golden_file.exists() else None
    tracer = tracing.Tracer() if args.trace else None
    missing: list[str] = []
    passes: list[dict] = []
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        installed = tracing.install(tracer) if traced else None
        if traced:
            first_span, before = len(tracer.spans), dict(tracer.counts)
        try:
            rec = run_pass(
                cli,
                workload,
                args.seed,
                args.scenario,
                golden,
                tracer if traced else None,
                len(passes) * len(workload.ops),
            )
        finally:
            if installed is not None:
                installed.remove()
                missing = installed.missing
        rec["traced"] = traced
        if traced:
            rec["counts"] = tracing.pass_counts(tracer.spans[first_span:], before, tracer.counts)
        passes.append(rec)
        # at least two passes, so even the longest pass has a second sample
        # and a traced run has an untraced and a traced pass
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= 2 and perf_counter() - begin + typical > args.seconds:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "golden": golden is not None,
    }
    if tracer is not None:
        traced_passes = sum(1 for p in passes if p["traced"])
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, traced_passes)
        result["missing"] = missing
        # spans per op of the op list, to show where the calls come from
        per_op = [0] * len(workload.ops)
        for span in tracer.spans:
            if span.name == "game._target_indices":
                per_op[span.op % len(workload.ops)] += 1
        result["target_indices_per_op"] = [c / traced_passes for c in per_op]
        with open(args.spans, "w") as fh:
            for record in tracing.span_records(tracer.spans):
                fh.write(json.dumps(record) + "\n")
    return result


def main(argv: list[str]) -> int:
    args = _args(argv)
    import stratclass.cli as cli

    setup_s = perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "module": cli.__file__}))
        return 0
    result = measure(cli, args)
    result["setup_s"] = setup_s
    result["module"] = cli.__file__
    result["env"] = env_facts()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
