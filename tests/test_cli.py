"""Command line behaviour: output shapes, exit codes, determinism."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from stratclass import model
from stratclass.cli import main
from stratclass.reproduce import TARGETS
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

    def test_sigma_sweep_builds_no_more_kernels_than_fit(self, files, capsys, monkeypatch):
        # each row in flight builds its own kernel; with room for two 2 x 2
        # kernels, four threads still hold at most two at once
        build = model.NoiseKernel.gaussian
        lock = threading.Lock()
        live, peaks = [0], []

        def counted(cls, space, sigma):
            with lock:
                live[0] += 1
                peaks[-1] = max(peaks[-1], live[0])
            try:
                time.sleep(0.1)
                return build(space, sigma)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(model.NoiseKernel, "gaussian", classmethod(counted))
        args = ("sweep", files["s2det"], "--param", "sigma", "--range", "0.1:1:8")
        outs = []
        for limit in (model.DENSE_BYTES_LIMIT, 2 * 8 * 2 * 2):
            monkeypatch.setattr(model, "DENSE_BYTES_LIMIT", limit)
            peaks.append(0)
            rc, out, _ = run(capsys, *args, "--threads", "4")
            assert rc == 0
            outs.append(out)
        assert peaks == [4, 2]
        assert outs[0] == outs[1] == run(capsys, *args)[1]

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

    def test_too_few_steps(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s2"], "--param", "tau", "--range", "0:1:1")
        assert rc == 2
        assert "steps >= 2" in err

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

    def test_sigma_sweep_needs_classifier(self, files, capsys):
        rc, _, err = run(capsys, "sweep", files["s2noclf"], "--param", "sigma", "--range", "0:1:3")
        assert rc == 2
        assert "classifier section" in err


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
