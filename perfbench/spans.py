"""Layer spans recorded from outside the package.

`instrument` swaps selected functions and methods of the l0control modules
for timing wrappers and puts the originals back when it exits; the package
itself is not modified.  Every call becomes one span
``[run_id, span_id, parent_id, name, start, end, bytes]``.  Spans stay in
memory until `Recorder.write` puts them in a JSON-lines file.

A span name is the layer metric prefix it feeds (``fem.solve``,
``prox.scalar``, ...).  A layer's self time is the duration of its spans
minus the time their child spans cover; everything runs on one thread, so
children nest strictly inside their parent.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from l0control import experiments, fem, prox, reference, solver
from l0control import problem as problemmod

# (owner, attribute, span name).  Callers inside the package look these names
# up on the module or class at call time, so the wrappers see every call.
TARGETS = (
    (fem.AssembledPDE, "solve", "fem.solve"),
    (fem, "assemble", "fem.assemble"),
    (fem, "element_means", "fem.element_means"),
    (problemmod, "make_problem", "problem.make_problem"),
    (problemmod.ControlProblem, "value_and_grad", "problem.value_and_grad"),
    (problemmod.SwitchingProblem, "value_and_grad", "problem.value_and_grad"),
    (problemmod.ControlProblem, "eval_f", "problem.eval_f"),
    (problemmod.SwitchingProblem, "eval_f", "problem.eval_f"),
    (problemmod.ControlProblem, "eval_g", "problem.eval_g"),
    (problemmod.SwitchingProblem, "eval_g", "problem.eval_g"),
    (prox, "prox_l0_array", "prox.array"),
    (prox, "prox_l0_set_arrays", "prox.array"),
    (prox, "prox_l1_array", "prox.array"),
    (prox, "prox_switch_arrays", "prox.array"),
    (prox, "prox_l0", "prox.scalar"),
    (prox, "box_hard_threshold", "prox.scalar"),
    (prox, "hard_threshold", "prox.scalar"),
    (prox, "prox_l1", "prox.scalar"),
    (prox, "prox_switch", "prox.scalar"),
    (solver, "run", "solver.run"),
    (solver, "select_step", "solver.select_step"),
    (solver, "fp_residual", "solver.fp_residual"),
    (reference, "penalized_quadratic_batch", "reference.batch"),
    (reference, "switch_batch", "reference.batch"),
    (experiments, "run_beta_sweep", "experiments.command"),
    (experiments, "run_switching", "experiments.command"),
    (experiments, "run_table1", "experiments.command"),
    (experiments, "vertex_rule_objective", "experiments.vertex_rule_objective"),
    # the two report writers build their rows before calling _write_csv;
    # every CSV and JSON file the experiments write passes through the last two
    (experiments, "write_report_csv", "experiments.write"),
    (experiments, "write_control_csv", "experiments.write"),
    (experiments, "_write_csv", "experiments.write"),
    (experiments, "_write_json", "experiments.write"),
)

WRITE_SPAN = "experiments.write"


class Recorder:
    """In-memory span store for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_bytes = name == WRITE_SPAN

        def timed(*args, **kwargs):
            rec = [self.run_id, len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, 0]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if count_bytes:
                rec[6] = os.path.getsize(result)
            return result

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def run(self, run_id):
        """Tag the spans recorded inside the block; yields their index range."""
        self.run_id = run_id
        first = len(self.spans)
        bounds = [first, first]
        try:
            yield bounds
        finally:
            bounds[1] = len(self.spans)
            self.run_id = None

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("run", "span", "parent", "name", "start", "end", "bytes")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))))
                fh.write("\n")


@contextmanager
def instrument(recorder):
    """Route every TARGETS call through `recorder` inside the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, recorder.wrap(name, vars(owner)[attr]))
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def summarize(spans, lo, hi):
    """Per-name totals over spans[lo:hi].

    Returns (layers, covered) where layers[name] has ``calls`` (entries into
    the layer from another layer or from outside), ``s`` (time inside those
    entries, children included), ``self_s`` (time not covered by child
    spans) and ``bytes`` (the size of the files those entries wrote);
    covered is the total time of the root spans.
    """
    child = defaultdict(float)
    for rec in spans[lo:hi]:
        if rec[2] >= 0:
            child[rec[2]] += rec[5] - rec[4]
    layers = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
    covered = 0.0
    for rec in spans[lo:hi]:
        _, sid, parent, name, start, end, nbytes = rec
        dur = end - start
        entry = layers[name]
        entry["self_s"] += dur - child[sid]
        if parent < 0:
            covered += dur
        if parent < 0 or spans[parent][3] != name:
            entry["calls"] += 1
            entry["s"] += dur
            entry["bytes"] += nbytes
    return layers, covered
