"""Recorded CLI output, replayed in-process byte for byte.

The benchmark's seed-0 scenario files come from ``perfbench/workloads.py``
and each op's exit code and stdout from ``perfbench/golden/*.json``; both
are read, never written, so a re-recording of the goldens is followed here
without an edit.  ``reproduce thm4`` is in no workload, so its stdout is
pinned below.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stratclass.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_golden_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

CASES = [
    pytest.param(name, record, id=f"{name}-{i}-{record['argv'][0]}")
    for name in workloads.WORKLOADS
    for i, record in enumerate(json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())["ops"])
]


@pytest.mark.parametrize("name, record", CASES)
def test_golden_op(name, record, tmp_path, capsys):
    scenario = tmp_path / f"{name}-seed0.yaml"
    scenario.write_text(workloads.scenario_yaml(name, 0))
    rc = main(workloads.op_argv(tuple(record["argv"]), str(scenario)))
    assert (rc, capsys.readouterr().out) == (record["exit"], record["stdout"])


THM4 = """\
pass no contestant in either group moves: expected 0 moves actual 0 in A, 0 in B
pass accuracy gap between the groups: expected 0 (atol 1e-09) actual 0
pass simulated accuracy vs closed form: expected 0.502820947918 (atol 0.00028249) actual 0.502820947918
pass optimal simulated threshold is the zero cut: expected |tau| <= 0.0282843 actual -0.0282842712475
thm4: pass (4/4 checks)
"""


def test_reproduce_thm4_output(capsys):
    assert main(["reproduce", "thm4"]) == 0
    assert capsys.readouterr().out == THM4
