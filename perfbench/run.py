#!/usr/bin/env python3
"""Benchmark of the l0control package, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # each workload in a fresh process

Workloads: solve-n320, neumann-n128, sweep-n40, oracle (see workloads.py);
BENCHMARK.json lists solve-n320 and oracle (README.md says why).  Run it
from the repository root; it imports the package from ./src.

A run sets up its workload, does one untimed warm-up repetition, then for
--seconds sets up afresh and repeats the workload, with a gc.collect()
before each set-up and repetition (medians -> setup_s, run_s).  A set-up
cheaper than SETUP_SECONDS repeats within its round.  With --trace 1 it
alternates untraced and traced repetitions and reports per-layer numbers
from the traced ones (spans from spans.py); trace.overhead_s is the traced
minus the untraced median.

Every metric is printed as "name = value unit"; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.  Failed
result checks are counted (error_rate = failed / attempted) and never stop
the timing.
"""

import os

# one BLAS/OpenMP thread: the package is single-threaded and extra threads
# only add contention noise on a small host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SECONDS = 0.1
WORKLOAD_NAMES = ("solve-n320", "neumann-n128", "sweep-n40", "oracle")

END_TO_END = {"setup_s": "s", "run_s": "s", "setup_rss_mb": "MB"}
PER_LAYER = {
    "fem.solve.calls": "count",
    "fem.solve.s": "s",
    "fem.solve.ms_per_call": "ms",
    "fem.assemble.calls": "count",
    "fem.assemble.s": "s",
    "fem.element_means.s": "s",
    "problem.value_and_grad.calls": "count",
    "problem.value_and_grad.self_s": "s",
    "problem.eval_f.calls": "count",
    "problem.eval_f.self_s": "s",
    "problem.eval_g.self_s": "s",
    "problem.budget.pde_solves": "count",
    "prox.array.calls": "count",
    "prox.array.s": "s",
    "prox.scalar.calls": "count",
    "prox.scalar.s": "s",
    "solver.iterations": "count",
    "solver.trials": "count",
    "solver.rejected_trials": "count",
    "solver.accept_ratio": "ratio",
    "solver.select_step.self_s": "s",
    "solver.run.self_s": "s",
    "solver.fp_residual.s": "s",
    "reference.batch.calls": "count",
    "reference.batch.s": "s",
    "reference.grid_points": "count",
    "reference.grid_bytes_computed": "bytes",
    "experiments.write.calls": "count",
    "experiments.write.s": "s",
    "experiments.write.bytes": "bytes",
    "trace.covered_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOAD_NAMES)}, or all")
    p.add_argument("--seed", type=int, default=0, help="seed of the oracle's instance draws")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--expected", type=Path, default=HERE / "expected.json",
                   help="recorded results the solve workloads are checked against")
    args = p.parse_args(argv)
    if args.workload not in WORKLOAD_NAMES + ("all",):
        p.error(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def host_probe():
    """Fixed CPU work, timed; a diagnostic of host speed, never used to scale a metric."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((128, 128))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
        total = 0
        for k in range(100_000):
            total += k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rep(workload, state, out, expected, tally):
    gc.collect()
    t0 = time.perf_counter()
    outcome, _ = workload.rep(state, out, expected)
    wall = time.perf_counter() - t0
    tally.attempted += outcome.attempted
    tally.failed += outcome.failed
    return wall, outcome


def layer_metrics(layers, covered, outcome):
    """Per-layer metrics of one traced repetition."""

    def get(name, key):
        return layers[name][key] if name in layers else 0

    solves = get("fem.solve", "calls")
    m = {
        "fem.solve.calls": solves,
        "fem.solve.s": get("fem.solve", "s"),
        "fem.solve.ms_per_call": 1e3 * get("fem.solve", "s") / solves if solves else 0.0,
        "fem.element_means.s": get("fem.element_means", "s"),
        "problem.value_and_grad.calls": get("problem.value_and_grad", "calls"),
        "problem.value_and_grad.self_s": get("problem.value_and_grad", "self_s"),
        "problem.eval_f.calls": get("problem.eval_f", "calls"),
        "problem.eval_f.self_s": get("problem.eval_f", "self_s"),
        "problem.eval_g.self_s": get("problem.eval_g", "self_s"),
        "problem.budget.pde_solves": outcome.pde_solves,
        "prox.array.calls": get("prox.array", "calls"),
        "prox.array.s": get("prox.array", "s"),
        "prox.scalar.calls": get("prox.scalar", "calls"),
        "prox.scalar.s": get("prox.scalar", "s"),
        "solver.iterations": outcome.iterations,
        "solver.trials": outcome.trials,
        "solver.rejected_trials": outcome.trials - outcome.iterations,
        "solver.accept_ratio": outcome.iterations / outcome.trials if outcome.trials else 0.0,
        "solver.select_step.self_s": get("solver.select_step", "self_s"),
        "solver.run.self_s": get("solver.run", "self_s"),
        "solver.fp_residual.s": get("solver.fp_residual", "s"),
        "reference.batch.calls": get("reference.batch", "calls"),
        "reference.batch.s": get("reference.batch", "s"),
        "reference.grid_points": outcome.grid_points,
        "reference.grid_bytes_computed": 8 * outcome.grid_points,
        "experiments.write.calls": get("experiments.write", "calls"),
        "experiments.write.s": get("experiments.write", "s"),
        "experiments.write.bytes": get("experiments.write", "bytes"),
        "trace.covered_s": covered,
    }
    # every linear solve is a counted PDE solve, except the two of each
    # fp_residual gradient and the one of each vertex-rule objective
    expected_solves = (
        outcome.pde_solves
        + 2 * get("solver.fp_residual", "calls")
        + get("experiments.vertex_rule_objective", "calls")
    )
    return m, solves == expected_solves, expected_solves


def setup_round(workload, args, times):
    """Set up until the round has taken SETUP_SECONDS (at least once).

    Appends each set-up time to `times` and returns the last state.  The
    caller drops its previous state first, so two never coexist.
    """
    spent = 0.0
    while spent < SETUP_SECONDS:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.tiny)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return state


def measure(workload, args):
    from spans import Recorder, instrument, summarize
    from workloads import Outcome

    key = workload.name + ("@tiny" if args.tiny else "")
    expected = []
    if not workload.seeded:
        expected = json.loads(args.expected.read_text())[key]
    out = OUT / key
    out.mkdir(parents=True, exist_ok=True)
    tally = Outcome()  # checks of the whole run
    lines = [("host_probe_s", host_probe(), "s (diagnostic only)")]

    recorder = Recorder()
    if args.trace:
        with instrument(recorder), recorder.run("setup") as setup_bounds:
            state = workload.setup(args.seed, args.tiny)
    else:
        setup_times = []
        state = setup_round(workload, args, setup_times)
        setup_rss_mb = peak_rss_mb()

    timed_rep(workload, state, out, expected, tally)  # warm-up, untimed

    plain, traced, samples = [], [], []
    start = time.perf_counter()
    i = 0
    while not plain or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        if args.trace and i % 2:
            with instrument(recorder), recorder.run(f"rep-{i}") as bounds:
                wall, outcome = timed_rep(workload, state, out, expected, tally)
            traced.append(wall)
            layers, covered = summarize(recorder.spans, *bounds)
            metrics, identity_ok, want = layer_metrics(layers, covered, outcome)
            tally.attempted += 1
            if not identity_ok:
                tally.failed += 1
                print(f"check failed: fem.solve.calls {metrics['fem.solve.calls']} != {want}", file=sys.stderr)
            samples.append(metrics)
        else:
            if not args.trace:
                # a fresh set-up before each repetition spreads the set-up
                # samples over the whole run, as the repetitions are
                state = None
                state = setup_round(workload, args, setup_times)
            wall, outcome = timed_rep(workload, state, out, expected, tally)
            plain.append(wall)
        i += 1

    run_s = statistics.median(plain)
    lines += [
        ("repetitions", len(plain), "count"),
        ("run_s.samples", plain, "s"),
        ("pde_solves", outcome.pde_solves, "count (per repetition)"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
    if args.trace:
        setup_layers, _ = summarize(recorder.spans, *setup_bounds)
        metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
        # counts repeat exactly; keep them whole numbers
        metrics.update({name: int(metrics[name]) for name in metrics if PER_LAYER[name] in ("count", "bytes")})
        assemble = setup_layers.get("fem.assemble", {"calls": 0, "s": 0.0})
        metrics["fem.assemble.calls"] = assemble["calls"]
        metrics["fem.assemble.s"] = assemble["s"]
        metrics["trace.overhead_s"] = statistics.median(traced) - run_s
        report = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        lines += [
            ("run_s", run_s, "s (untraced repetitions of this run)"),
            ("trace.run_s", statistics.median(traced), "s"),
            ("trace.repetitions", len(traced), "count"),
        ]
        recorder.write(out / f"spans-seed{args.seed}.jsonl")
    else:
        values = {"setup_s": statistics.median(setup_times), "run_s": run_s, "setup_rss_mb": setup_rss_mb}
        report = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        lines.append(("setup_repeats", len(setup_times), "count"))

    error_rate = tally.failed / tally.attempted
    lines.append(("error_rate", error_rate, f"ratio (failed {tally.failed} of {tally.attempted} checks)"))
    for name, value, unit in lines:
        print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in report.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so that peak_rss_mb is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"# workload {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", str(args.expected)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "l0control" / "__init__.py").is_file():
        print(f"error: the l0control sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    return measure(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
