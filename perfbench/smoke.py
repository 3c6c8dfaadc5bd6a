#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload run.py knows and both modes it checks that the run
exits 0, prints every metric by name and unit plus error_rate, and ends
with a result object whose metrics are exactly the listed ones, all checks
passing.  It then checks that a deliberately wrong expected value shows up
as failed checks and a non-zero error_rate rather than as a traceback, and
that a directory holding only BENCHMARK.json and the benchmark exits
non-zero without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_DIR = ROOT / ".perfbench_out" / "smoke"
TINY = ["--seed", "1", "--seconds", "0.2", "--tiny"]

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def printed(stdout, name):
    """Value and unit of a "name = value unit" line."""
    m = re.search(rf"^{re.escape(name)} = (\S+) (\S+)", stdout, re.M)
    return (float(m.group(1)), m.group(2)) if m else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for workload in WORKLOAD_NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(["--workload", workload, "--trace", str(trace), *TINY])
            res = result_of(proc)
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
            if res is None:
                problems.append(f"{label}: no result line")
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys {sorted(res)}")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{label}: checks failed: {res['failed']} of {res['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == want, f"{label}: metrics {got} != {want}")
            for name, unit in {**want, "error_rate": "ratio"}.items():
                line = printed(proc.stdout, name)
                expect(line is not None and line[1] == unit, f"{label}: no line '{name} = <value> {unit}'")

    expected = json.loads((HERE / "expected.json").read_text())
    expected["solve-n320@tiny"][0][1] *= 1.0 + 1e-6  # F off by 1e-6 relative
    SMOKE_DIR.mkdir(parents=True, exist_ok=True)
    wrong = SMOKE_DIR / "wrong_expected.json"
    wrong.write_text(json.dumps(expected))
    proc = bench(["--workload", "solve-n320", "--trace", "0", *TINY, "--expected", str(wrong)])
    res = result_of(proc)
    rate = printed(proc.stdout, "error_rate")
    expect(proc.returncode == 0 and res is not None and res["correct"] is False and res["failed"] > 0,
           f"wrong expected value: not reported as failed checks: {proc.stdout[-300:]}")
    expect(rate is not None and rate[0] > 0, "wrong expected value: error_rate is not above 0")
    expect("Traceback" not in proc.stderr, "wrong expected value: traceback printed")

    bare = SMOKE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and result_of(proc) is None,
           f"without the package sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
