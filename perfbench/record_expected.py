#!/usr/bin/env python3
"""Record the solve workloads' results into expected.json.

    python3 perfbench/record_expected.py

The file is the benchmark's result gate: a later change that moves F beyond
1e-9 relative, or any support, iteration count or PDE-solve count, shows up
as failed checks.  Re-record only for a change that is meant to alter results,
and say so where the change is described.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    recorded = {}
    for workload in WORKLOADS.values():
        if workload.seeded:
            continue
        for tiny in (False, True):
            key = workload.name + ("@tiny" if tiny else "")
            out = HERE.parent / ".perfbench_out" / key
            out.mkdir(parents=True, exist_ok=True)
            outcome, results = workload.rep(workload.setup(0, tiny), out, [])
            if outcome.failed or not results:
                sys.exit(f"{key}: the run failed; nothing recorded")
            recorded[key] = results
            print(f"{key}: {len(results)} runs, {outcome.pde_solves} PDE solves")
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
