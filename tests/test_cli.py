"""Command line behaviour: output shapes, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratclass
from stratclass import cli, model
from stratclass.cli import main
from stratclass.model import DENSE_BYTES_LIMIT
from stratclass.reproduce import TARGETS
from stratclass.scenario import parse_scenario
from stratclass.solvers import LP_MAX_POINTS

S1 = """\
features: [1.0, 2.0, 3.0]
pi: [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]
h: [0.0, 1.0, 1.0]
cost:
  kind: tabular
  matrix:
    - [0.0, 0.0, 0.9]
    - [0.0, 0.0, 0.9]
    - [0.0, 0.0, 0.0]
classifier:
  kind: table
  probs: [0.1, 0.0, 1.0]
"""

S2 = """\
features: [1.0, 2.0]
pi: [0.5, 0.5]
h: [0.0, 1.0]
cost:
  kind: tabular
  matrix:
    - [0.0, 0.5]
    - [0.0, 0.0]
classifier:
  kind: table
  probs: [0.5, 1.0]
"""

S2_DET = S2.replace("kind: table\n  probs: [0.5, 1.0]", "kind: threshold\n  tau: 2.0")

S2_NOCLF = S2[: S2.index("classifier:")]

S3 = """\
features: [1.0, 2.0]
pi: [0.5, 0.5]
h: [0.0, 1.0]
cost:
  kind: tabular
  matrix:
    - [0.0, 0.5]
    - [0.0, 0.0]
noise:
  kind: tabular
  rows:
    - [0.5, 0.5]
    - [0.0, 1.0]
classifier:
  kind: table
  probs: [0.0, 1.0]
"""

GROUPED = """\
features: [-1.0, 0.0, 1.0]
pi: [0.25, 0.5, 0.25]
h: [0.2, 0.5, 0.8]
subpopulations:
  - share: 0.25
    cost:
      kind: shift
      a: [0.0, 0.8, 1.6]
  - share: 0.75
    cost:
      kind: shift
      a: [0.0, 0.4, 0.8]
classifier:
  kind: threshold
  tau: 0.5
"""

THREE_LABELLED = """\
features: [-1.0, 0.0, 1.0]
pi: [0.25, 0.5, 0.25]
h: [0.2, 0.5, 0.8]
subpopulations:
  - {label: X, share: 0.25, cost: {kind: shift, a: [0.0, 0.8, 1.6]}}
  - {label: Y, share: 0.5, cost: {kind: shift, a: [0.0, 0.4, 0.8]}}
  - {label: Z, share: 0.25, cost: {kind: shift, a: [0.0, 0.1, 0.2]}}
classifier:
  kind: threshold
  tau: 0.5
"""

BAD_PI = S2.replace("pi: [0.5, 0.5]", "pi: [0.5, 0.4]")

NEAR_FLOAT_MAX = """\
features: [1.0e+308, 1.7e+308]
pi: [0.5, 0.5]
h: [0.0, 1.0]
cost: {kind: tabular, matrix: [[0.0, 5.0], [0.0, 0.0]]}
noise: {kind: gaussian, sigma: 1.0}
classifier: {kind: threshold, tau: 1.5e+308}
"""

_N = LP_MAX_POINTS + 1
OVER_LP_CAP = f"""\
features: {[float(i) for i in range(_N)]}
pi: {[1.0 / _N] * _N}
h: {[i / (_N - 1) for i in range(_N)]}
cost: {{kind: linear, sigma: 1.0}}
"""


@pytest.fixture()
def files(tmp_path):
    texts = {
        "s1": S1,
        "s2": S2,
        "s2det": S2_DET,
        "s2noclf": S2_NOCLF,
        "s3": S3,
        "grouped": GROUPED,
        "groupednoclf": GROUPED[: GROUPED.index("classifier:")],
        "three": THREE_LABELLED,
        "badpi": BAD_PI,
        "nearmax": NEAR_FLOAT_MAX,
        "overcap": OVER_LP_CAP,
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEvaluate:
    def test_text_values(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["s2"])
        assert rc == 0
        assert out == "U=0.75\nC=0\nE=0.75\n"

    def test_twelve_significant_digits(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["s1"])
        assert rc == 0
        assert out.splitlines() == ["U=0.966666666667", "C=0.3", "E=0.666666666667"]

    def test_json(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["s2"], "--format", "json")
        assert rc == 0
        assert json.loads(out) == {"U": 0.75, "C": 0.0, "E": 0.75}

    def test_csv(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["s2"], "--format", "csv")
        assert rc == 0
        assert out == "U,C,E\n0.75,0,0.75\n"

    def test_group_columns(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["grouped"])
        assert rc == 0
        assert out.splitlines() == [
            "U=0.5375",
            "C=0.155",
            "E=0.3825",
            "U_A=0.65",
            "U_B=0.5",
            "gap=0.15",
        ]

    def test_noise_scenario(self, files, capsys):
        rc, out, _ = run(capsys, "evaluate", files["s3"])
        assert rc == 0
        assert out == "U=0.75\nC=0\nE=0.75\n"

    def test_noise_on_a_grid_near_the_float_maximum(self, files, capsys):
        # the noiseless answer: a unit sigma cannot blur points 7e307 apart
        rc, out, _ = run(capsys, "evaluate", files["nearmax"])
        assert rc == 0
        assert out == "U=1\nC=0\nE=1\n"

    def test_missing_classifier(self, files, capsys):
        rc, out, err = run(capsys, "evaluate", files["s2noclf"])
        assert rc == 2
        assert out == ""
        assert err == "error: the scenario file has no classifier section to evaluate\n"

    def test_bad_mass(self, files, capsys):
        rc, _, err = run(capsys, "evaluate", files["badpi"])
        assert rc == 2
        assert err.startswith("error:")
        assert "sum to 1" in err

    def test_missing_file(self, files, capsys, tmp_path):
        rc, _, err = run(capsys, "evaluate", str(tmp_path / "nope.yaml"))
        assert rc == 2
        assert err.startswith("error:")


class TestSolve:
    def test_utility_deterministic(self, files, capsys):
        rc, out, _ = run(capsys, "solve", files["s2"], "--objective", "utility", "--mode", "deterministic")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("tau=")
        assert lines[1] in ("strict=true", "strict=false")
        assert lines[2] == "U=0.5"

    def test_utility_deterministic_noisy(self, files, capsys):
        rc, out, _ = run(capsys, "solve", files["s3"], "--objective", "utility", "--mode", "deterministic")
        assert rc == 0
        assert "U=0.75" in out.splitlines()

    def test_utility_randomized_rejected(self, files, capsys):
        rc, out, err = run(capsys, "solve", files["s2"], "--objective", "utility", "--mode", "randomized")
        assert rc == 2
        assert out == ""
        assert "derandomizing" in err

    def test_efficiency_randomized_lp(self, files, capsys):
        rc, out, _ = run(capsys, "solve", files["s2"], "--objective", "efficiency", "--mode", "randomized")
        assert rc == 0
        assert out == "g=(0.5, 1)\nE=0.75\n"

    def test_efficiency_randomized_json(self, files, capsys):
        rc, out, _ = run(
            capsys, "solve", files["s2"], "--objective", "efficiency", "--mode", "randomized",
            "--format", "json",
        )
        assert rc == 0
        assert json.loads(out) == {"g": [0.5, 1.0], "E": 0.75}

    def test_efficiency_randomized_csv_joins_g(self, files, capsys):
        rc, out, _ = run(
            capsys, "solve", files["s2"], "--objective", "efficiency", "--mode", "randomized",
            "--format", "csv",
        )
        assert rc == 0
        assert out == "g,E\n0.5;1,0.75\n"

    def test_efficiency_randomized_noise_rejected(self, files, capsys):
        rc, _, err = run(capsys, "solve", files["s3"], "--objective", "efficiency", "--mode", "randomized")
        assert rc == 2
        assert "noiseless" in err

    def test_efficiency_randomized_grouped_rejected(self, files, capsys):
        rc, _, err = run(capsys, "solve", files["grouped"], "--objective", "efficiency", "--mode", "randomized")
        assert rc == 2
        assert "single population" in err

    def test_efficiency_randomized_over_the_lp_cap(self, files, capsys):
        rc, out, err = run(capsys, "solve", files["overcap"], "--objective", "efficiency", "--mode", "randomized")
        assert rc == 2
        assert out == ""
        assert err == (
            f"error: the efficiency linear program is capped at LP_MAX_POINTS = "
            f"{LP_MAX_POINTS} grid points; this scenario has {_N}\n"
        )

    def test_efficiency_deterministic(self, files, capsys):
        rc, out, _ = run(capsys, "solve", files["grouped"], "--objective", "efficiency", "--mode", "deterministic")
        assert rc == 0
        assert out == "tau=-1\nstrict=false\nE=0.5\n"

    def test_efficiency_deterministic_noisy(self, files, capsys):
        rc, out, _ = run(capsys, "solve", files["s3"], "--objective", "efficiency", "--mode", "deterministic")
        assert rc == 0
        assert out == "tau=1\nstrict=true\nE=0.75\n"

    def test_efficiency_deterministic_json_keeps_the_bool(self, files, capsys):
        rc, out, _ = run(
            capsys, "solve", files["s3"], "--objective", "efficiency", "--mode", "deterministic",
            "--format", "json",
        )
        assert rc == 0
        assert out == '{\n  "tau": 1.0,\n  "strict": true,\n  "E": 0.75\n}\n'


class TestSweep:
    def test_single_group_empty_cells(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", "0.5:2:2")
        assert rc == 0
        assert out == "param,U,U_A,U_B,gap,E\n0.5,0.5,,,,0.5\n2,0.5,,,,0.5\n"

    def test_grouped_tau_rows(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", files["grouped"], "--param", "tau", "--range", "-1:1:3")
        assert rc == 0
        assert out == (
            "param,U,U_A,U_B,gap,E\n"
            "-1,0.5,0.5,0.5,0,0.5\n"
            "0,0.5,0.5,0.5,0,0.475\n"
            "1,0.5375,0.65,0.5,0.15,0.3825\n"
        )

    def test_share_sweep(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", files["grouped"], "--param", "s_A", "--range", "0.25:0.75:3")
        assert rc == 0
        assert out == (
            "param,U,U_A,U_B,gap,E\n"
            "0.25,0.5375,0.65,0.5,0.15,0.3825\n"
            "0.5,0.575,0.65,0.5,0.15,0.405\n"
            "0.75,0.6125,0.65,0.5,0.15,0.4275\n"
        )

    @pytest.mark.parametrize("param", ["tau", "sigma"])
    def test_one_column_per_labelled_group(self, files, capsys, param):
        # the columns are evaluate's U_<label> keys, in the file's order
        lo_hi = {"tau": "0.5:0.5:2", "sigma": "0:0:2"}[param]
        args = ("sweep", files["three"], "--param", param, "--range", lo_hi)
        rc, out, err = run(capsys, *args)
        assert (rc, err) == (0, "")
        _, evaluated, _ = run(capsys, "evaluate", files["three"], "--format", "csv")
        keys, cells = evaluated.splitlines()
        assert keys == "U,C,E,U_X,U_Y,U_Z,gap"
        U, _, E, *groups, gap = cells.split(",")
        row = ",".join(["0.5" if param == "tau" else "0", U, *groups, gap, E])
        assert out == "param,U,U_X,U_Y,U_Z,gap,E\n" + row + "\n" + row + "\n"
        rc, out, _ = run(capsys, *args, "--format", "json")
        assert rc == 0
        assert list(json.loads(out)[0]) == ["param", "U", "U_X", "U_Y", "U_Z", "gap", "E"]
        assert json.loads(out)[1]["U_Z"] == float(groups[2])

    def test_sigma_sweep(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", files["s2det"], "--param", "sigma", "--range", "0:1:3")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1] == "0,0.5,,,,0.5"

    def test_json_records(self, files, capsys):
        rc, out, _ = run(
            capsys, "sweep", files["s2"], "--param", "tau", "--range", "0.5:2:2",
            "--format", "json",
        )
        assert rc == 0
        records = json.loads(out)
        assert records[0] == {"param": 0.5, "U": 0.5, "U_A": None, "U_B": None, "gap": None, "E": 0.5}

    def test_threads_do_not_change_output(self, files, capsys):
        args = ("sweep", files["grouped"], "--param", "tau", "--range", "-1:1:5")
        rc1, out1, _ = run(capsys, *args)
        rc4, out4, _ = run(capsys, *args, "--threads", "4")
        assert rc1 == rc4 == 0
        assert out1 == out4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_two_threads_write_the_serial_bytes(self, files, capsys, fmt):
        args = ("sweep", files["grouped"], "--param", "tau", "--range", "-1:1:9", "--format", fmt)
        serial = run(capsys, *args, "--threads", "1")
        assert serial[0] == 0
        assert run(capsys, *args, "--threads", "2") == serial

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_holds_under_the_row_budget_per_row(self, files, monkeypatch, fmt):
        # rows cost nothing here, so the peak is what the sweep itself holds per row
        monkeypatch.setattr(cli, "_sweep_worker", lambda loaded, param: lambda v: (None, None))
        monkeypatch.setattr(cli, "_sweep_row", lambda v, scen, clf: [v, 0.5, 0.25, 0.75, 0.5, 0.125])

        class Discard:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(cli.sys, "stdout", Discard())

        def peak(steps):
            argv = ["sweep", files["grouped"], "--param", "tau", "--range", f"-1:1:{steps}"]
            tracemalloc.start()
            try:
                assert main(argv + ["--format", fmt, "--threads", "2"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the step cap, 2**20, is DENSE_BYTES_LIMIT over this per-row budget
        assert (peak(5000) - peak(1000)) / 4000 < cli._SWEEP_ROW_BYTES

    def test_sigma_sweep_holds_one_kernel_at_a_time(self, files, capsys, monkeypatch):
        # rows run one after another, so a row's kernel is gone before the
        # next row builds its own, whatever --threads asks
        build = model.NoiseKernel.gaussian
        kernels, peaks = [], []

        def counted(cls, space, sigma):
            kernel = build(space, sigma)
            kernels.append(weakref.ref(kernel))
            peaks.append(sum(ref() is not None for ref in kernels))
            return kernel

        monkeypatch.setattr(model.NoiseKernel, "gaussian", classmethod(counted))
        args = ("sweep", files["s2det"], "--param", "sigma", "--range", "0.1:1:8")
        rc, out, _ = run(capsys, *args, "--threads", "4")
        assert rc == 0
        assert peaks == [1] * 8
        assert out == run(capsys, *args)[1]

    def test_rows_run_on_the_calling_thread(self, files, capsys, monkeypatch):
        row = cli._sweep_row
        idents = []

        def recorded(*args):
            idents.append(threading.get_ident())
            return row(*args)

        monkeypatch.setattr(cli, "_sweep_row", recorded)
        rc, _, _ = run(capsys, "sweep", files["grouped"], "--param", "tau", "--range", "-1:1:9", "--threads", "2")
        assert rc == 0
        assert idents == [threading.get_ident()] * 9

    @pytest.mark.parametrize("text", ["nan:1:3", "0:inf:3", "-1e308:1e308:3"])
    def test_non_finite_range_refused(self, files, capsys, text):
        # the last one's lo and hi are finite, but hi - lo overflows
        rc, out, err = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", text)
        assert rc == 2
        assert out == ""
        assert err == f"error: --range needs finite lo, hi and hi - lo, got {text!r}\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused(self, files, capsys, threads):
        rc, out, err = run(
            capsys, "sweep", files["s2"], "--param", "tau", "--range", "0.5:2:2", "--threads", threads
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: --threads needs at least 1, got {threads}\n"

    def test_reruns_byte_identical(self, files, capsys):
        args = ("sweep", files["grouped"], "--param", "s_A", "--range", "0.1:0.9:7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_output_is_lf_only(self, files, capsysbinary):
        rc = main(["sweep", files["s2"], "--param", "tau", "--range", "0.5:2:2"])
        out = capsysbinary.readouterr().out
        assert rc == 0
        assert b"\r" not in out

    def test_malformed_range(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", "1:2")
        assert rc == 2
        assert "lo:hi:steps" in err
        rc, _, err = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", "a:2:3")
        assert rc == 2
        assert err == "error: --range expects lo:hi:steps, got 'a:2:3'\n"

    def test_too_few_steps(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", "0:1:1")
        assert rc == 2
        assert "steps >= 2" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_huge_step_count_refused_before_allocating(self, files, capsys, monkeypatch, threads):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", refuse)
        rc, out, err = run(
            capsys, "sweep", files["grouped"], "--param", "tau",
            "--range", "0:1:10000000000000", "--threads", threads,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: --range allows at most {cli._MAX_SWEEP_STEPS} steps, got 10000000000000\n"

    def test_step_cap_is_the_row_budget(self):
        assert cli._MAX_SWEEP_STEPS == DENSE_BYTES_LIMIT // cli._SWEEP_ROW_BYTES == 2**20
        assert cli._parse_range(f"0:1:{cli._MAX_SWEEP_STEPS}").size == cli._MAX_SWEEP_STEPS
        with pytest.raises(cli.CliError, match="at most"):
            cli._parse_range(f"0:1:{cli._MAX_SWEEP_STEPS + 1}")

    def test_share_sweep_needs_two_groups(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s2"], "--param", "s_A", "--range", "0.2:0.8:3")
        assert rc == 2
        assert "two subpopulations" in err

    def test_share_out_of_range(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["grouped"], "--param", "s_A", "--range", "-0.5:0.5:2")
        assert rc == 2
        assert "lie in [0, 1]" in err

    def test_sigma_sweep_rejects_tabular_noise(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s3"], "--param", "sigma", "--range", "0:1:3")
        assert rc == 2
        assert "tabular noise kernel" in err

    def test_sweep_needs_classifier(self, files, capsys):
        # a sigma sweep on one group and a share sweep on two
        for name, param in (("s2noclf", "sigma"), ("groupednoclf", "s_A")):
            rc, _, err = run(capsys, "sweep", files[name], "--param", param, "--range", "0:1:3")
            assert rc == 2
            assert err == "error: the scenario file needs a classifier section to sweep\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate",),
        ("solve", "--objective", "efficiency", "--mode", "randomized"),
        ("solve", "--objective", "utility", "--mode", "deterministic"),
        ("sweep", "--param", "tau", "--range", "0.5:2:4"),
    ],
    ids=["evaluate", "solve-lp", "solve-threshold", "sweep-tau"],
)
def test_gaussian_noise_at_sigma_zero_is_no_noise(tmp_path, capsys, argv):
    # the noiseless channel is one game, however the file spells it; a
    # randomized table classifier and the LP need it to have no kernel
    command, *flags = argv
    results = []
    for noise in ("{kind: gaussian, sigma: 0}", "{kind: none}"):
        text = S2.replace("classifier:", f"noise: {noise}\nclassifier:")
        assert parse_scenario(text).scenario.kernel is None
        path = tmp_path / "s2.yaml"
        path.write_text(text)
        rc, out, _ = run(capsys, command, str(path), *flags)
        results.append((rc, out))
    assert results[0] == results[1]
    assert results[0][0] == 0


class TestReproduce:
    def test_twopoint_target(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ex-2pt")
        assert rc == 0
        assert "FAIL" not in out
        assert re.search(r"^ex-2pt: pass \(\d+/\d+ checks\)$", out.splitlines()[-1])

    def test_unknown_target(self, capsys):
        rc, out, err = run(capsys, "reproduce", "bogus")
        assert rc == 2
        assert out == ""
        assert "unknown reproduce target" in err
        assert "ex-3pt" in err and "thm5" in err

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ex-2pt", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["target"] == "ex-2pt"
        assert payload["passed"] is True
        assert payload["checks"]
        assert all(c["passed"] for c in payload["checks"])

    def test_json_bytes(self, capsys):
        rc, out, err = run(capsys, "reproduce", "ex-2pt", "--format", "json")
        assert (rc, err) == (0, "")
        checks = [
            ("accuracy of the half-half classifier", "0.75 (atol 1e-12)", "0.75"),
            ("strategy spend", "0 (atol 1e-12)", "0"),
            ("efficiency", "0.75 (atol 1e-12)", "0.75"),
            ("best deterministic accuracy", "0.5 (atol 1e-12)", "0.5"),
            ("best covered-classifier efficiency (LP)", "0.75 (atol 1e-12)", "0.75"),
            ("LP recovers the half-half classifier (max error)", "0 (atol 1e-12)", "0"),
            ("half-half classifier beats the deterministic optimum", "> 0.5", "0.75"),
            ("half-half classifier is unstable", "false", "false"),
            ("best unilateral improvement", "0.25 (atol 1e-12)", "0.25"),
        ]
        records = ",\n".join(
            "    {\n"
            f'      "name": "{name}",\n'
            f'      "expected": "{expected}",\n'
            f'      "actual": "{actual}",\n'
            '      "passed": true\n'
            "    }"
            for name, expected, actual in checks
        )
        assert out == (
            '{\n  "target": "ex-2pt",\n  "passed": true,\n  "checks": [\n' + records + "\n  ]\n}\n"
        )

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ex-2pt", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "name,expected,actual,passed"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_csv_quotes_cells_that_hold_commas(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "thm3", "--format", "csv")
        assert rc == 0
        assert out == (
            "name,expected,actual,passed\n"
            'optimal threshold serves the minority group worse,U_A < U_B,'
            '"U_A=0.502298898034, U_B=0.503902548857",true\n'
            "accuracy gap clears the discretization budget,> 0.00019975,0.00160365082299,true\n"
            "optimal threshold sits nearer the majority's ideal point,closer to B than to A,"
            '"|tau-peak_A|=1.02668586268, |tau-peak_B|=0.226628274631",true\n'
            "simulated optimum matches the closed form within two grid steps,|diff| <= 0.04,"
            "|2.28 - 2.30056653525| = 0.0206,true\n"
            "simulated sweep tracks the closed-form sweep pointwise,"
            "max error <= 0.00019975,3.47279e-05,true\n"
        )

    def test_tol_override_can_fail(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ex-noise", "--tol", "1e-300")
        assert rc in (0, 1)
        # A target with approximate checks must fail under an absurd budget.
        rc, out, _ = run(capsys, "reproduce", "thm4", "--tol", "1e-300")
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("-1", "-1"), ("inf", "inf"), ("-inf", "-inf")])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, tol, shown, fmt):
        rc, out, err = run(capsys, "reproduce", "ex-2pt", f"--tol={tol}", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == f"error: --tol needs a finite nonnegative number, got {shown}\n"

    def test_tol_zero_still_checks(self, capsys):
        rc, out, err = run(capsys, "reproduce", "ex-2pt", "--tol", "0")
        assert (rc, err) == (0, "")
        assert "(atol 0)" in out

    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_every_target_passes(self, capsys, target):
        rc, out, err = run(capsys, "reproduce", target)
        assert rc == 0
        assert re.fullmatch(rf"{target}: pass \((\d+)/\1 checks\)", out.splitlines()[-1])
        assert err == ""


class TestFlagScope:
    """Each flag belongs to the one subcommand that reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "s2", "--threads", "2"),
            ("solve", "s2", "--objective", "utility", "--mode", "deterministic", "--threads", "2"),
            ("reproduce", "ex-2pt", "--threads", "2"),
            ("evaluate", "s2", "--tol", "1e-3"),
            ("solve", "s2", "--objective", "utility", "--mode", "deterministic", "--tol", "1e-3"),
            ("sweep", "s2", "--param", "tau", "--range", "0.5:2:2", "--tol", "1e-3"),
        ],
    )
    def test_flag_on_another_command_is_a_usage_error(self, files, capsys, argv):
        argv = [files.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err

    def test_reproduce_takes_tol(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ex-2pt", "--tol", "1e-3")
        assert rc == 0
        assert "(atol 0.001)" in out


INSTANCE = """\
gaussian_instance:
  t: 1.0
  d: 100.0
  sigma_A: 0.5
  sigma_B: 1.0
  s_A: 0.25
  n: 201
"""

INSTANCE_CUT = INSTANCE + "classifier:\n  kind: threshold\n  tau: 0.5\n"

INSTANCE_TABLE = INSTANCE + "classifier:\n  kind: table\n  probs: [%s]\n" % ", ".join(
    ["0.0"] * 101 + ["1.0"] * 100
)


@pytest.fixture()
def instance_files(tmp_path):
    texts = {
        "default": INSTANCE,
        "cut": INSTANCE_CUT,
        "table": INSTANCE_TABLE,
        "huge": INSTANCE.replace("n: 201", "n: 20001"),
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestInstanceSweep:
    """Sweeps on a gaussian_instance; expected rows as the loader first gave them."""

    def test_sigma_sweep_rebuilds_the_instance(self, instance_files, capsys):
        rc, out, _ = run(capsys, "sweep", instance_files["cut"], "--param", "sigma", "--range", "0:1:3")
        assert rc == 0
        assert out == (
            "param,U,U_A,U_B,gap,E\n"
            "0,0.501230445193,0.503167617669,0.500584721034,0.00258289663558,0.373943526025\n"
            "0.5,0.502333133935,0.503240495541,0.502030680067,0.0012098154745,0.311627177935\n"
            "1,0.502646153512,0.502646153512,0.502646153512,0,0.502646153512\n"
        )

    def test_tau_sweep_keeps_the_strict_default_cut(self, instance_files, capsys):
        rc, out, _ = run(
            capsys, "sweep", instance_files["default"], "--param", "tau", "--range", "-0.08:0.08:3"
        )
        assert rc == 0
        assert out == (
            "param,U,U_A,U_B,gap,E\n"
            "-0.08,0.50058768217,0.501850359085,0.500166789865,0.00168356922033,0.422931710311\n"
            "0,0.500661743828,0.502036799557,0.500203391918,0.0018334076389,0.416215503902\n"
            "0.08,0.50074176361,0.502227722452,0.500246443996,0.00198127845591,0.409321526441\n"
        )

    def test_sigma_sweep_rejects_table_classifier(self, instance_files, capsys):
        rc, out, err = run(capsys, "sweep", instance_files["table"], "--param", "sigma", "--range", "0:1:3")
        assert rc == 2
        assert out == ""
        assert err == (
            "error: a table classifier is tied to one grid; sigma sweeps on a "
            "gaussian_instance rebuild the grid, so use a threshold classifier\n"
        )

    def test_sigma_row_outside_the_regime(self, instance_files, capsys):
        rc, out, err = run(capsys, "sweep", instance_files["cut"], "--param", "sigma", "--range", "0:20:2")
        assert rc == 2
        assert out == ""
        assert "d >= 8 max(t, sigma)" in err

    def test_oversized_instance_refused_at_load(self, instance_files, capsys):
        rc, out, err = run(capsys, "evaluate", instance_files["huge"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: line 2: gaussian_instance: n: 20001 points need")



# scales from 1e-323 (subnormal) up past the largest float (read as inf),
# scales inside GaussianInstance's range of t and d, and its ends with their outer neighbours
_SCALES = st.one_of(
    st.builds(lambda m, e: float(f"{m:.3f}e{e}"), st.floats(1.0, 9.999), st.integers(-323, 308)),
    st.builds(lambda m, e: float(f"{m:.3f}e{e}"), st.floats(1.0, 9.999), st.integers(-153, 152)),
    st.sampled_from(
        [2.0**-511, 2.0**511, math.nextafter(2.0**-511, 0.0), math.nextafter(2.0**511, math.inf)]
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    t=_SCALES,
    d=_SCALES,
    sigma_a=_SCALES,
    sigma_b=_SCALES,
    sigma=st.one_of(st.just(0.0), _SCALES),
)
def test_instance_scales_exit_0_or_with_one_error_line(tmp_path_factory, t, d, sigma_a, sigma_b, sigma):
    d = max(d, 8.0 * max(t, sigma))  # d >= 8 max(t, sigma), or inf when that overflows
    path = tmp_path_factory.getbasetemp() / "scales.yaml"
    # repr writes 1e-320 and 1e+300, which the loader reads as numbers
    path.write_text(
        f"gaussian_instance: {{t: {t!r}, d: {d!r}, sigma_A: {sigma_a!r}, "
        f"sigma_B: {sigma_b!r}, s_A: 0.5, sigma: {sigma!r}, n: 201}}\n"
    )
    out, err = io.StringIO(), io.StringIO()
    # a numpy RuntimeWarning is an error here (pyproject), so it fails the run
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["evaluate", str(path)])
    in_range = all(2.0**-511 <= v <= 2.0**511 for v in (t, d))
    # the grid then spans at most 2 sqrt(2) d, so any finite cost scale from
    # 2**-511 up keeps the costs finite; a smaller one may or may not
    fits = in_range and 2.0**-511 <= min(sigma_a, sigma_b) and max(sigma_a, sigma_b) < math.inf
    if rc == 0:
        assert in_range and err.getvalue() == "", err.getvalue()
    else:
        assert not fits and rc == 2 and out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "name, param, text, err",
    [
        ("cut", "sigma", "-0.1:1:8", "error: sigma values must be nonnegative, got -0.1\n"),
        ("s2det", "sigma", "-0.1:1:8", "error: sigma values must be nonnegative, got -0.1\n"),
        ("grouped", "s_A", "-0.5:0.5:2", "error: s_A values must lie in [0, 1], got -0.5\n"),
        ("grouped", "s_A", "0.25:1.5:6", "error: s_A values must lie in [0, 1], got 1.25\n"),
    ],
    ids=["instance-sigma", "discrete-sigma", "s_A-first-row", "s_A-fifth-row"],
)
def test_bad_sweep_value_refused_before_any_row(
    files, instance_files, capsys, monkeypatch, threads, name, param, text, err
):
    # the --range value is named, not a document field, and no row runs, so
    # a threaded sweep writes the same one line as a serial one
    path = instance_files.get(name) or files[name]
    rows = []
    monkeypatch.setattr(cli, "_sweep_row", lambda *args: rows.append(args))
    rc, out, got = run(capsys, "sweep", path, "--param", param, "--range", text, "--threads", threads)
    assert (rc, out, got) == (2, "", err)
    assert rows == []

def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=str(os.path.dirname(os.path.dirname(stratclass.__file__))))


def test_scipy_modules_load_only_where_needed(files, instance_files, capsys, tmp_path):
    cut = instance_files["cut"]
    noiseless = [
        ["evaluate", files["grouped"]],
        ["solve", files["s2"], "--objective", "utility", "--mode", "deterministic"],
        ["sweep", files["grouped"], "--param", "tau", "--range", "-1:1:3", "--threads", "2"],
        ["reproduce", "ex-noise"],
    ]
    gaussian = [
        ["solve", cut, "--objective", "utility", "--mode", "deterministic"],
        ["evaluate", cut],
        ["sweep", cut, "--param", "tau", "--range", "-0.08:0.08:3"],
        ["reproduce", "thm4"],
    ]
    lp = ["solve", files["s2"], "--objective", "efficiency", "--mode", "randomized"]
    # One fresh interpreter imports the package, then the cli, then runs the
    # commands on explicit noiseless grids, those that build a Gaussian grid
    # or kernel, and the LP solve, whose stdout is the process's own.  It
    # records, in the file named by argv[1], the exit codes and which of the
    # deferred scipy modules were loaded after each step, and whether the
    # thread pool module was (scipy.special imports it, so only the steps
    # before the first Gaussian command can show that the cli does not).
    # (A module-level string here would be read as a YAML document by
    # test_certified_sweep.)
    script = """\
import contextlib, io, json, sys

report_path, phases, lp = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])

def loaded():
    deferred = ("scipy.optimize", "scipy.sparse", "scipy.special")
    return sorted(m for m in deferred if m in sys.modules)

import stratclass
report = {"codes": [], "after_package": loaded()}
from stratclass import cli
report["after_cli"] = loaded()
report["pool_after_cli"] = "concurrent.futures" in sys.modules
for name, commands in phases:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            report["codes"].append(cli.main(argv))
    report["after_" + name] = loaded()
    report["pool_after_" + name] = "concurrent.futures" in sys.modules
report["codes"].append(cli.main(lp))
report["after_lp"] = loaded()
with open(report_path, "w") as f:
    json.dump(report, f)
"""
    report_path = tmp_path / "report.json"
    phases = [["noiseless", noiseless], ["gaussian", gaussian]]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(report_path), json.dumps(phases), json.dumps(lp)],
        env=_fresh_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(report_path.read_text())
    assert report["codes"] == [0] * 9
    assert report["after_package"] == []
    assert report["after_cli"] == []
    assert report["after_noiseless"] == []
    assert not report["pool_after_cli"] and not report["pool_after_noiseless"]
    assert report["after_gaussian"] == ["scipy.special"]
    assert report["after_lp"] == ["scipy.optimize", "scipy.sparse", "scipy.special"]
    rc, out, _ = run(capsys, *lp)
    assert rc == 0
    assert proc.stdout == out.encode()


def test_threads_change_no_byte_of_a_warning_sweep(instance_files):
    # Each run is a fresh process, so every row's knife-edge warnings reach
    # stderr, and its first cdf import happens during the run.
    argv = ["sweep", instance_files["cut"], "--param", "sigma", "--range", "0:1:16"]
    script = """\
import sys
from stratclass import cli
sys.exit(cli.main(sys.argv[1:]) if "scipy.special" not in sys.modules else 3)
"""
    outputs = []
    for threads in ("1", "2", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--threads", threads],
            env=_fresh_env(),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, proc.stderr))
    assert b"KnifeEdgeWarning" in outputs[0][1]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
