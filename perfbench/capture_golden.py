"""Record the seed-0 stdout and exit code of every op into perfbench/golden/.

Run from the root of a checkout, once per change that is meant to alter the
CLI's output (none is, so far):

    python3 perfbench/capture_golden.py

Later benchmark runs compare each op's stdout with these files byte for
byte; a mismatch counts as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import run_op


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    import stratclass.cli as cli

    work = root / ".perfbench_runs"
    work.mkdir(exist_ok=True)
    out_dir = Path(__file__).resolve().parent / "golden"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        scenario = work / f"{workload.name}-seed0.yaml"
        scenario.write_text(workloads.scenario_yaml(workload.name, 0))
        ops = []
        for op in workload.ops:
            rec = run_op(cli, workloads.op_argv(op, str(scenario)))
            if rec["error"] or rec["rc"] != 0:
                print(f"error: {' '.join(op)} failed: {rec['error'] or rec['rc']}", file=sys.stderr)
                return 1
            ops.append({"argv": list(op), "exit": rec["rc"], "stdout": rec["stdout"]})
        path = out_dir / f"{workload.name}.json"
        path.write_text(json.dumps({"seed": 0, "ops": ops}, indent=1) + "\n")
        print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
