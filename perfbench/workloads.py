"""The three benchmark workloads: scenario files made from a seed, op lists, checks.

Seed 0 is the pinned set of instances.  Any other seed draws the instance
parameters from a fixed, narrow distribution inside the closed-form regime
(d >= 8 max(t, sigma)); grid sizes never change with the seed, so every seed
asks for the same amount of work.

Only the standard library is used here, so the parent process can write the
scenario files without importing numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCENARIO = "{scenario}"  # placeholder in op argv, replaced by the scenario path


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    ops: tuple[tuple[str, ...], ...]
    # index of the op whose stderr line count is compared with a fresh
    # `python -m stratclass.cli` process (warning isolation check)
    isolation_op: int
    # calls of game._target_indices in one traced pass, where the op list
    # pins the number down; cross-checks the wrapper installation
    target_indices_per_pass: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noisy-801",
            n=801,
            ops=(
                ("solve", SCENARIO, "--objective", "utility", "--mode", "deterministic"),
                ("evaluate", SCENARIO),
                ("sweep", SCENARIO, "--param", "tau", "--range", "-1:1:21"),
            ),
            isolation_op=2,
            # solve 2 x 802 + 2, evaluate 2, sweep 2 x 21
            target_indices_per_pass=1650,
        ),
        Workload(
            name="rebuild-1601",
            n=1601,
            ops=(
                ("sweep", SCENARIO, "--param", "sigma", "--range", "0:1.5:16", "--threads", "2"),
                ("solve", SCENARIO, "--objective", "efficiency", "--mode", "deterministic"),
                ("evaluate", SCENARIO),
                ("reproduce", "thm3"),
                ("reproduce", "thm5"),
            ),
            isolation_op=0,
        ),
        Workload(
            name="small-lp",
            n=200,
            ops=(
                ("solve", SCENARIO, "--objective", "efficiency", "--mode", "randomized"),
                ("solve", SCENARIO, "--objective", "utility", "--mode", "deterministic"),
                ("reproduce", "ex-3pt"),
                ("reproduce", "ex-2pt"),
                ("reproduce", "ex-noise"),
                ("reproduce", "thm1-sweep"),
                ("reproduce", "thm2-sweep"),
            ),
            isolation_op=0,
        ),
    )
}


def op_argv(op: tuple[str, ...], scenario_path: str) -> list[str]:
    return [scenario_path if a == SCENARIO else a for a in op]


def seed_independent(op: tuple[str, ...]) -> bool:
    """An op that reads no scenario file gives the same output on every seed."""
    return SCENARIO not in op


# ----------------------------------------------------------- scenario files


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash through sha512, so the draw is the same on every run
    return random.Random(f"{workload}:{seed}")


def _gaussian_yaml(seed: int, workload: str, noisy: bool, n: int, tau: float) -> str:
    if seed == 0:
        sigma_a, sigma_b, s_a, sigma = 0.5, 1.0, 0.25, 1.0
    else:
        rng = _rng(workload, seed)
        sigma_a = round(rng.uniform(0.4, 0.6), 4)
        sigma_b = round(rng.uniform(0.9, 1.1), 4)
        s_a = round(rng.uniform(0.2, 0.3), 4)
        sigma = round(rng.uniform(0.9, 1.1), 4)
    fields = f"t: 1, d: 100, sigma_A: {sigma_a!r}, sigma_B: {sigma_b!r}, s_A: {s_a!r}"
    if noisy:
        fields += f", sigma: {sigma!r}"
    return (
        f"gaussian_instance: {{{fields}, n: {n}}}\n"
        f"classifier: {{kind: threshold, tau: {tau!r}, strict: true}}\n"
    )


def _normal_cdf(x: float, scale: float) -> float:
    return 0.5 * (1.0 + math.erf(x / (scale * math.sqrt(2.0))))


def _small_lp_yaml(seed: int, n: int) -> str:
    """Explicit 200-point grid: Normal cell masses, clipped linear ramp, linear cost."""
    if seed == 0:
        half, scale, ramp, cost_sigma = 3.0, 1.0, 8.0, 0.5
    else:
        rng = _rng("small-lp", seed)
        half = round(rng.uniform(2.9, 3.1), 4)
        scale = round(rng.uniform(0.9, 1.1), 4)
        ramp = round(rng.uniform(7.6, 8.4), 4)
        cost_sigma = round(rng.uniform(0.48, 0.52), 4)
    points = [-half + 2.0 * half * i / (n - 1) for i in range(n)]
    mids = [(a + b) / 2.0 for a, b in zip(points, points[1:])]
    cdf = [0.0] + [_normal_cdf(m, scale) for m in mids] + [1.0]
    mass = [b - a for a, b in zip(cdf, cdf[1:])]
    total = sum(mass)
    pi = [m / total for m in mass]
    h = [min(1.0, max(0.0, x / ramp + 0.5)) for x in points]

    def flow(values: list[float]) -> str:
        return "[" + ", ".join(repr(v) for v in values) + "]"

    return (
        f"features: {flow(points)}\n"
        f"pi: {flow(pi)}\n"
        f"h: {flow(h)}\n"
        f"cost: {{kind: linear, sigma: {cost_sigma!r}}}\n"
    )


def scenario_yaml(workload: str, seed: int) -> str:
    if workload == "noisy-801":
        return _gaussian_yaml(seed, workload, noisy=True, n=801, tau=0.0)
    if workload == "rebuild-1601":
        return _gaussian_yaml(seed, workload, noisy=False, n=1601, tau=1.5)
    return _small_lp_yaml(seed, WORKLOADS["small-lp"].n)


# ------------------------------------------------------------------ checks


def check_op(op: tuple[str, ...], seed: int, rc, stdout: str, golden: dict | None) -> str | None:
    """Why one op's result is wrong, or None when it is right.

    Every op must exit 0; a reproduce op must also pass all its checks.  On
    seed 0, and for ops that read no scenario file, stdout must equal the
    recorded output byte for byte.
    """
    if rc != 0:
        return f"exit code {rc!r}, expected 0"
    if op[0] == "reproduce":
        lines = stdout.splitlines()
        if not lines or ": pass (" not in lines[-1] or any(line.startswith("FAIL") for line in lines):
            return f"reproduce {op[1]} verdict is not pass"
    if golden is not None and (seed == 0 or seed_independent(op)):
        if golden["argv"] != list(op) or golden["exit"] != rc or golden["stdout"] != stdout:
            return "stdout differs from the recorded seed-0 output"
    return None


def _record_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line[len(key) + 1 :])
    raise ValueError(f"no {key}= line in output")


def _sweep_column(stdout: str, column: str) -> list[float]:
    lines = stdout.splitlines()
    pos = lines[0].split(",").index(column)
    return [float(line.split(",")[pos]) for line in lines[1:]]


def check_pass(workload: str, stdouts: list[str]) -> dict[int, str]:
    """Cross-op invariants that hold on any instance, keyed by the op they fail.

    On noisy-801 the utility solve (op 0) maximises over every threshold
    suffix, so its U is at least each U row of the tau sweep (op 2).
    """
    if workload != "noisy-801":
        return {}
    try:
        best = _record_value(stdouts[0], "U")
        rows = _sweep_column(stdouts[2], "U")
    except (ValueError, IndexError) as e:
        return {0: f"cannot read U from solve and sweep output: {e}"}
    worse = [u for u in rows if u > best]
    if worse:
        return {0: f"solved U={best!r} is below a swept U={max(worse)!r}"}
    return {}
