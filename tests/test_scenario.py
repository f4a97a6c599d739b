"""Scenario files: parsing, validation diagnostics, and round trips."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import yaml

from stratclass import (
    ScenarioError,
    ValidationError,
    build_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    subpop_accuracies,
    threshold_sweep,
)
from stratclass import model
from stratclass.cli import main
from stratclass.scenario import noise_rebuilder

TWOPOINT = """\
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

NOISY = """\
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
    label: dear
    cost:
      kind: shift
      a: [0.0, 0.8, 1.6]
  - share: 0.75
    label: cheap
    cost:
      kind: shift
      a: [0.0, 0.4, 0.8]
classifier:
  kind: threshold
  tau: 0.0
"""

INSTANCE = """\
gaussian_instance:
  t: 1.0
  d: 100.0
  sigma_A: 0.5
  sigma_B: 1.0
  s_A: 0.25
  n: 201
"""


class TestParsing:
    def test_twopoint_document(self):
        loaded = parse_scenario(TWOPOINT)
        scen = loaded.scenario
        assert scen.k == 1
        assert scen.space.points.tolist() == [1.0, 2.0]
        assert scen.pop.pi.tolist() == [0.5, 0.5]
        assert scen.cost_fns[0].costs[0, 1] == 0.5
        assert scen.kernel is None
        assert loaded.classifier.probs.tolist() == [0.5, 1.0]
        assert loaded.instance is None

    def test_noise_section(self):
        loaded = parse_scenario(NOISY)
        assert loaded.scenario.kernel is not None
        assert loaded.scenario.kernel.rows[0].tolist() == [0.5, 0.5]

    def test_subpopulations(self):
        loaded = parse_scenario(GROUPED)
        scen = loaded.scenario
        assert scen.k == 2
        assert scen.shares.tolist() == [0.25, 0.75]
        assert scen.labels == ("dear", "cheap")
        assert scen.cost_fns[0].costs[0, 2] == pytest.approx(1.6, abs=0)
        assert scen.cost_fns[1].costs[0, 1] == pytest.approx(0.4, abs=0)
        # Non-strict threshold at 0 accepts the top two points.
        assert loaded.classifier.probs.tolist() == [0.0, 1.0, 1.0]

    def test_threshold_strict_flag(self):
        text = GROUPED.replace("  tau: 0.0", "  tau: 0.0\n  strict: true")
        loaded = parse_scenario(text)
        assert loaded.classifier.probs.tolist() == [0.0, 0.0, 1.0]

    def test_gaussian_noise_section(self):
        text = NOISY.replace(
            "noise:\n  kind: tabular\n  rows:\n    - [0.5, 0.5]\n    - [0.0, 1.0]",
            "noise:\n  kind: gaussian\n  sigma: 0.0",
        )
        loaded = parse_scenario(text)
        assert loaded.scenario.kernel is None

    def test_linear_cost_kind(self):
        text = """\
features: [0.0, 1.0, 2.0]
pi: [0.2, 0.3, 0.5]
h: [0.0, 0.5, 1.0]
cost:
  kind: linear
  sigma: 1.0
"""
        loaded = parse_scenario(text)
        root_2pi = float(np.sqrt(2.0 * np.pi))
        assert loaded.scenario.cost_fns[0].costs[0, 2] == pytest.approx(2.0 / root_2pi, rel=1e-15)
        assert loaded.classifier is None

    def test_gaussian_instance_document(self):
        loaded = parse_scenario(INSTANCE)
        assert loaded.instance is not None
        assert loaded.instance.sigma_a == 0.5
        assert loaded.scenario.space.n == 201
        # Default classifier: the strict zero cut.
        pts = loaded.scenario.space.points
        assert np.array_equal(loaded.classifier.probs, (pts > 0.0).astype(float))

    def test_instance_share_of_b(self, tmp_path, capsys):
        # s_B may be given, and must close the shares with s_A = 0.25
        good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
        good.write_text(INSTANCE + "  s_B: 0.75\n")
        bad.write_text(INSTANCE + "  s_B: 0.7\n")
        assert parse_scenario(good.read_text()).instance.s_b == 0.75
        assert main(["evaluate", str(good)]) == 0
        assert capsys.readouterr().out == (
            "U=0.500661743828\nC=0.0844462399253\nE=0.416215503902\n"
            "U_A=0.502036799557\nU_B=0.500203391918\ngap=0.0018334076389\n"
        )
        assert main(["evaluate", str(bad)]) == 2
        assert capsys.readouterr() == ("", "error: line 2: gaussian_instance: shares must sum to 1\n")


class TestDiagnostics:
    def test_bad_mass_reports_line(self):
        # a Population refusal is reported at the field it names
        text = TWOPOINT.replace("pi: [0.5, 0.5]", "pi: [0.5, 0.4]")
        with pytest.raises(ScenarioError, match="^line 2: pi: ") as err:
            parse_scenario(text)
        assert "sum to 1" in str(err.value)

    def test_bad_field_reports_its_own_line(self):
        text = TWOPOINT.replace("h: [0.0, 1.0]", "h: [0.0, oops]")
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario(text)

    def test_unknown_key_rejected(self):
        text = TWOPOINT + "surprise: 1\n"
        with pytest.raises(ScenarioError, match="surprise"):
            parse_scenario(text)

    def test_unknown_cost_kind(self):
        text = TWOPOINT.replace("kind: tabular", "kind: mystery")
        with pytest.raises(ScenarioError, match="mystery"):
            parse_scenario(text)

    def test_instance_clashes_with_discrete_sections(self):
        with pytest.raises(ScenarioError, match="gaussian_instance"):
            parse_scenario(INSTANCE + "features: [0.0, 1.0]\n")

    def test_cost_and_subpopulations_are_exclusive(self):
        text = GROUPED + """\
cost:
  kind: shift
  a: [0.0, 0.1, 0.2]
"""
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_missing_cost_entirely(self):
        text = "features: [0.0, 1.0]\npi: [0.5, 0.5]\nh: [0.0, 1.0]\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_not_yaml(self):
        with pytest.raises(ScenarioError):
            parse_scenario("features: [0.0, 1.0")

    def test_non_mapping_document(self):
        with pytest.raises(ScenarioError):
            parse_scenario("- 1\n- 2\n")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [TWOPOINT, NOISY, GROUPED, INSTANCE])
    def test_dump_then_parse_is_identical(self, text):
        first = parse_scenario(text)
        second = parse_scenario(dump_scenario(first.source))
        assert np.array_equal(first.scenario.pop.pi, second.scenario.pop.pi)
        assert np.array_equal(first.scenario.pop.h, second.scenario.pop.h)
        for a, b in zip(first.scenario.cost_fns, second.scenario.cost_fns):
            assert np.array_equal(a.costs, b.costs)
        if first.scenario.kernel is None:
            assert second.scenario.kernel is None
        else:
            assert np.array_equal(first.scenario.kernel.rows, second.scenario.kernel.rows)
        if first.classifier is None:
            assert second.classifier is None
        else:
            assert np.array_equal(first.classifier.probs, second.classifier.probs)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        first = parse_scenario(GROUPED)
        save_scenario(first.source, path)
        second = load_scenario(path)
        assert second.scenario.labels == ("dear", "cheap")
        assert np.array_equal(first.classifier.probs, second.classifier.probs)

    def test_build_from_plain_dict(self):
        loaded = build_scenario(
            {
                "features": [0.0, 1.0],
                "pi": [0.5, 0.5],
                "h": [0.0, 1.0],
                "cost": {"kind": "tabular", "matrix": [[0.0, 0.5], [0.0, 0.0]]},
            }
        )
        assert loaded.scenario.k == 1
        assert loaded.classifier is None


ANCHORED = """\
features: &grid [-1.0, 0.0, 1.0]
pi: [0.25, 0.5, 0.25]
h: [0.2, 0.5, 0.8]
subpopulations:
  - &dear
    share: 0.25
    cost: {kind: shift, a: [0.0, 0.8, 1.6]}
  - <<: *dear
    share: 0.75
classifier: {kind: threshold, tau: 0.0, strict: true}
"""


class TestOneParse:
    @pytest.mark.parametrize("text", [TWOPOINT, NOISY, GROUPED, INSTANCE, ANCHORED])
    def test_data_is_what_safe_load_gives(self, text):
        assert parse_scenario(text).source == yaml.safe_load(text)

    def test_merged_entry_keeps_its_own_line(self):
        text = ANCHORED.replace("share: 0.75", "share: oops")
        with pytest.raises(ScenarioError, match="line 9: subpopulations.1.share"):
            parse_scenario(text)


class TestThresholdCut:
    @pytest.mark.parametrize(
        "text, cut",
        [
            (INSTANCE, (0.0, True)),
            (INSTANCE + "classifier:\n  kind: threshold\n  tau: 0.5\n", (0.5, False)),
            (GROUPED, (0.0, False)),
            (ANCHORED, (0.0, True)),
            (TWOPOINT, None),
            (TWOPOINT[: TWOPOINT.index("classifier:")], None),
        ],
    )
    def test_loader_records_the_cut(self, text, cut):
        assert parse_scenario(text).threshold == cut


NOISY_GROUPED = GROUPED.replace("classifier:", "noise:\n  kind: gaussian\n  sigma: 0.3\nclassifier:")


class TestNoiseRebuild:
    """A rebuild at sigma v is the document written with sigma v."""

    @staticmethod
    def assert_same_game(rebuilt, parsed):
        (scen, clf), want = rebuilt, parsed
        assert np.array_equal(clf.probs, want.classifier.probs)
        reports = [subpop_accuracies(clf, scen), subpop_accuracies(want.classifier, want.scenario)]
        assert dataclasses.astuple(reports[0]) == dataclasses.astuple(reports[1])
        sweeps = [threshold_sweep(scen), threshold_sweep(want.scenario)]
        assert [dataclasses.astuple(p) for p in sweeps[0]] == [
            dataclasses.astuple(p) for p in sweeps[1]
        ]

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("classifier", ["", "classifier:\n  kind: threshold\n  tau: 0.5\n"])
    def test_instance(self, sigma, classifier):
        rebuilt = noise_rebuilder(parse_scenario(INSTANCE + classifier))(sigma)
        parsed = parse_scenario(INSTANCE + f"  sigma: {sigma!r}\n" + classifier)
        assert rebuilt[0].space.points.tobytes() == parsed.scenario.space.points.tobytes()
        self.assert_same_game(rebuilt, parsed)

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 0.7])
    def test_discrete(self, sigma):
        rebuilt = noise_rebuilder(parse_scenario(NOISY_GROUPED))(sigma)
        noise = f"kind: gaussian\n  sigma: {sigma!r}" if sigma else "kind: none"
        parsed = parse_scenario(NOISY_GROUPED.replace("kind: gaussian\n  sigma: 0.3", noise))
        assert (rebuilt[0].kernel is None) == (sigma == 0)
        self.assert_same_game(rebuilt, parsed)

    def test_tabular_kernel_refused(self):
        with pytest.raises(ValidationError, match="tabular noise kernel has no sigma"):
            noise_rebuilder(parse_scenario(NOISY))

    def test_rebuilt_rows_are_checked_like_a_load(self):
        rebuild = noise_rebuilder(parse_scenario(INSTANCE))
        with pytest.raises(ScenarioError, match=r"^gaussian_instance: d: the closed forms"):
            rebuild(20.0)


LINEAR = """\
features: [-1.0, 0.0, 1.0]
pi: [0.25, 0.5, 0.25]
h: [0.2, 0.5, 0.8]
cost: {kind: linear, sigma: 0.5}
classifier: {kind: threshold, tau: 0.0}
"""


def _edit(text: str, old: str, new: str) -> str:
    """``text`` with its one ``old`` replaced by ``new``."""
    assert text.count(old) == 1, old
    return text.replace(old, new)


class TestRefusedDocuments:
    """Documents the loader must refuse with a line, which the CLI maps to exit 2."""

    @pytest.mark.parametrize(
        "text, where",
        [
            ("features: &x [*x]\n", "line 1: features.0"),
            ("features: &x\n  - 1.0\n  - *x\n", "line 1: features.1"),
            ("features: [0.0]\nextra: &m\n  inner:\n    deeper: *m\n", "line 4: extra.inner.deeper"),
        ],
    )
    def test_alias_cycle(self, text, where, tmp_path, capsys):
        with pytest.raises(ScenarioError, match="alias refers to a node that contains it") as err:
            parse_scenario(text)
        assert str(err.value).startswith(where)
        path = tmp_path / "cycle.yaml"
        path.write_text(text)
        assert main(["evaluate", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                _edit(LINEAR, "cost: {kind: linear, sigma: 0.5}", "cost: linear"),
                "line 4: cost: expected a mapping, got str",
                id="section-not-a-mapping",
            ),
            pytest.param(
                _edit(LINEAR, "features: [-1.0, 0.0, 1.0]", "features: []"),
                "line 1: features: expected a non-empty list of numbers",
                id="empty-vector",
            ),
            pytest.param(
                _edit(TWOPOINT, "matrix:\n    - [0.0, 0.5]\n    - [0.0, 0.0]", "matrix: []"),
                "line 6: cost.matrix: expected a non-empty list of rows",
                id="empty-matrix",
            ),
            pytest.param(
                _edit(TWOPOINT, "    - [0.0, 0.0]\n", "    - [0.0]\n"),
                "line 7: cost.matrix: rows have inconsistent lengths",
                id="ragged-rows",
            ),
            pytest.param(
                _edit(LINEAR, "sigma: 0.5", "sigma: 0.0"),
                "line 4: cost.sigma: sigma must be positive",
                id="linear-sigma-zero",
            ),
            pytest.param(
                _edit(LINEAR, "sigma: 0.5", "sigma: -2"),
                "line 4: cost.sigma: sigma must be positive",
                id="linear-sigma-negative",
            ),
            pytest.param(
                _edit(NOISY, "kind: tabular\n  rows", "kind: laplace\n  rows"),
                "line 10: noise.kind: unknown noise kind 'laplace' (none, tabular, gaussian)",
                id="unknown-noise-kind",
            ),
            pytest.param(
                _edit(LINEAR, "kind: threshold", "kind: forest"),
                "line 5: classifier.kind: unknown classifier kind 'forest' (threshold, table)",
                id="unknown-classifier-kind",
            ),
            pytest.param(
                _edit(LINEAR, "tau: 0.0}", "tau: 0.0, strict: 1}"),
                "line 5: classifier.strict: strict must be a boolean",
                id="strict-not-a-bool",
            ),
            pytest.param(
                _edit(INSTANCE, "n: 201", "n: 201.0"),
                "line 7: gaussian_instance.n: n must be an integer",
                id="n-not-an-integer",
            ),
            pytest.param(
                GROUPED[: GROUPED.index("subpopulations:")]
                + "subpopulations: []\n"
                + GROUPED[GROUPED.index("classifier:") :],
                "line 4: subpopulations: expected a non-empty list",
                id="no-subpopulations",
            ),
            pytest.param(
                _edit(GROUPED, "label: dear", "label: 3"),
                "line 6: subpopulations.0.label: label must be a string",
                id="label-not-a-string",
            ),
            pytest.param(
                _edit(GROUPED, "    label: cheap\n", ""),
                "line 5: subpopulations: label all subpopulations or none",
                id="partial-labels",
            ),
            pytest.param(
                _edit(LINEAR, "h: [0.2, 0.5, 0.8]", "h: [0.2, 0.5]"),
                "line 3: h: expected 3 entries, got (2,)",
                id="h-length",
            ),
            pytest.param(
                _edit(LINEAR, "pi: [0.25, 0.5, 0.25]", "pi: [0.25, 0.25, 0.25, 0.25]"),
                "line 2: pi: expected 3 entries, got (4,)",
                id="pi-length",
            ),
            pytest.param(
                _edit(LINEAR, "h: [0.2, 0.5, 0.8]", "h: [0.8, 0.5, 0.2]"),
                "line 3: h: must be monotone nondecreasing",
                id="decreasing-h",
            ),
            # the model's own checks, reported at the section that built the object
            pytest.param(
                _edit(TWOPOINT, "    - [0.0, 0.0]\n", "    - [0.0, 0.0]\n" * 3),
                "line 5: cost: costs: expected a 2x2 matrix, got (4, 2)",
                id="cost-matrix-shape",
            ),
            pytest.param(
                _edit(GROUPED, "a: [0.0, 0.8, 1.6]", "a: [0.0, 0.8]"),
                "line 8: subpopulations.0.cost: a: expected 3 entries, got (2,)",
                id="shift-a-length",
            ),
            pytest.param(
                _edit(TWOPOINT, "probs: [0.5, 1.0]", "probs: [0.5]"),
                "line 10: classifier: probs: expected 2 entries, got (1,)",
                id="probs-length",
            ),
            pytest.param(
                _edit(NOISY, "    - [0.0, 1.0]\n", "    - [0.0, 1.0]\n" * 2),
                "line 10: noise: rows: expected a 2x2 matrix, got (3, 2)",
                id="kernel-shape",
            ),
            pytest.param(
                _edit(GROUPED, "share: 0.75", "share: 1.25").replace("share: 0.25", "share: -0.25"),
                "line 5: subpopulations: shares: entries must be nonnegative",
                id="negative-share",
            ),
            pytest.param(
                _edit(GROUPED, "label: cheap", "label: dear"),
                "line 5: subpopulations: labels: must be distinct, 'dear' repeats",
                id="repeated-label",
            ),
            # construction would keep only the last value of a repeated key
            pytest.param(
                _edit(TWOPOINT, "  probs: [0.5, 1.0]\n", "  probs: [0.5, 1.0]\n  kind: threshold\n"),
                "line 12: classifier.kind: duplicate key",
                id="repeated-key-block",
            ),
            pytest.param(
                _edit(LINEAR, "tau: 0.0}", "tau: 0.0, tau: 5.0}"),
                "line 5: classifier.tau: duplicate key",
                id="repeated-key-flow",
            ),
            pytest.param(
                _edit(GROUPED, "    label: cheap\n", "    label: cheap\n    share: 0.5\n"),
                "line 12: subpopulations.1.share: duplicate key",
                id="repeated-key-in-entry",
            ),
        ],
    )
    def test_refusal_names_its_line(self, text, message):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert str(err.value) == message

    def test_refused_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.yaml"
        path.write_text(_edit(TWOPOINT, "    - [0.0, 0.0]\n", "    - [0.0]\n"))
        assert main(["evaluate", str(path)]) == 2
        where = "line 7: cost.matrix: rows have inconsistent lengths"
        assert capsys.readouterr() == ("", f"error: {where}\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            pytest.param(
                _edit(LINEAR, "tau: 0.0}", "tau: 1.0, tau: 5.0}"),
                "line 5: classifier.tau: duplicate key",
                id="repeated-key",
            ),
            pytest.param(
                _edit(GROUPED, "label: cheap", "label: dear"),
                "line 5: subpopulations: labels",
                id="repeated-label",
            ),
        ],
    )
    def test_repeat_exits_2(self, text, where, tmp_path, capsys):
        path = tmp_path / "repeat.yaml"
        path.write_text(text)
        assert main(["evaluate", str(path), "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {where}")

    def test_shared_anchor_still_loads(self):
        text = GROUPED.replace(
            "cost:\n      kind: shift\n      a: [0.0, 0.8, 1.6]",
            "cost: &c\n      kind: shift\n      a: [0.0, 0.8, 1.6]",
        ).replace("cost:\n      kind: shift\n      a: [0.0, 0.4, 0.8]", "cost: *c")
        assert "cost: *c" in text and "cost: &c" in text
        first, second = parse_scenario(text).scenario.cost_fns
        assert np.array_equal(first.costs, second.costs)

    def test_grid_multiplier_is_not_a_field(self, tmp_path, capsys):
        text = INSTANCE + "  grid_halfwidth_mult: 12.0\n"
        where = "line 8: gaussian_instance.grid_halfwidth_mult: unknown field"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert str(err.value).startswith(where)
        path = tmp_path / "mult.yaml"
        path.write_text(text)
        assert main(["evaluate", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("sigma: 0.5", "sigma: .nan", "line 4: cost.sigma"),
            ("sigma: 0.5", "sigma: .inf", "line 4: cost.sigma"),
            ("tau: 0.0", "tau: .inf", "line 5: classifier.tau"),
            ("tau: 0.0", "tau: -.inf", "line 5: classifier.tau"),
            ("tau: 0.0", "tau: " + "9" * 400, "line 5: classifier.tau"),
            ("[-1.0, 0.0, 1.0]", "[-1.0, 0.0, .inf]", "line 1: features.2"),
        ],
    )
    def test_non_finite_number(self, old, new, where, tmp_path, capsys):
        text = LINEAR.replace(old, new)
        with pytest.raises(ScenarioError, match="expected a finite number") as err:
            parse_scenario(text)
        assert str(err.value).startswith(where)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["evaluate", str(path)]) == 2
        assert f"{where}: expected a finite number" in capsys.readouterr().err

    @pytest.fixture()
    def kernel_limit(self, monkeypatch):
        """A limit one byte below a three-point kernel; no n x n array gets built."""

        def stop(points):
            raise AssertionError("a refused kernel reached its cell edges")

        monkeypatch.setattr(model, "DENSE_BYTES_LIMIT", 8 * 3 * 3 - 1)
        monkeypatch.setattr(model, "_cell_edges", stop)

    def test_oversized_kernel_refused_at_its_section(self, kernel_limit, tmp_path, capsys):
        text = LINEAR.replace("classifier:", "noise: {kind: gaussian, sigma: 1.0}\nclassifier:")
        where = "line 5: noise: n: 3 points need"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert str(err.value).startswith(where)
        path = tmp_path / "noisy.yaml"
        path.write_text(text)
        assert main(["evaluate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")

    def test_oversized_kernel_refused_on_every_sigma_row(self, kernel_limit, tmp_path, capsys):
        rebuild = noise_rebuilder(parse_scenario(LINEAR))
        for sigma in (0.25, 0.5, 1.0):
            with pytest.raises(ValidationError, match=r"^n: 3 points need .* GB"):
                rebuild(sigma)
        path = tmp_path / "linear.yaml"
        path.write_text(LINEAR)
        assert main(["sweep", str(path), "--param", "sigma", "--range", "0.5:1:3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: n: 3 points need")
