"""The benchmark's workloads: set-up, one timed repetition, and its checks.

The three solve workloads use the paper's parameters (alpha = beta = 0.01,
b = 4, BT-0 with L_hat0 = 0.01) and are fixed configurations; only the
oracle's instance draws depend on the seed.  Each repetition returns an
Outcome whose `attempted`/`failed` counts feed `error_rate`: a solve
workload makes one check per solver run, the oracle one per instance.
"""

from __future__ import annotations

import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from l0control import experiments as ex
from l0control import fem, prox, reference, solver
from l0control import problem as problemmod

F_RTOL = 1e-9
# criterion 1's admission rule
ORACLE_OBJ_TOL = 1e-10
ORACLE_ARG_TOL = 1e-8
ORACLE_ADMIT_TOL = 1e-9
# The reference sizes one search grid per call from the call's widest row, so
# on one 10^4-row batch a single extreme draw sets the cost of every row and
# the run time swings with the seed.  The benchmark calls it on blocks of this
# many rows (its own inner chunk size), which keeps run_s seed-independent.
REFERENCE_BLOCK = 64


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    pde_solves: int = 0
    iterations: int = 0
    trials: int = 0
    grid_points: int = 0

    def add_reports(self, labelled_reports, results):
        for label, report in labelled_reports:
            self.pde_solves += report.pde_solves
            self.iterations += report.iterations
            self.trials += sum(r.trials for r in report.records)
            results.append(
                [label, report.final_F, report.records[-1].support, report.iterations, report.pde_solves]
            )


def paper_config(mesh_n, pde="dirichlet"):
    return ex.RunConfig(
        mesh_n=mesh_n, alpha=0.01, beta=0.01, bound=4.0, strategy="bt0", lhat0=0.01, pde=pde
    )


def check_results(results, expected, outcome):
    """One check per expected run: F to F_RTOL relative; the rest exactly."""
    outcome.attempted += len(expected)
    for i, want in enumerate(expected):
        got = results[i] if i < len(results) else None
        ok = (
            got is not None
            and got[0] == want[0]
            and abs(got[1] - want[1]) <= F_RTOL * abs(want[1])
            and got[2:] == want[2:]
        )
        if not ok:
            outcome.failed += 1
            print(f"check failed: {want[0]}: got {got}, expected {want}", file=sys.stderr)


def guarded(fn, outcome, checks):
    """Run fn(); an exception counts `checks` failures instead of ending the run."""
    try:
        fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome.attempted += checks
        outcome.failed += checks


class SolveWorkload:
    """The `solve` command's work on one operator: run, fp_residual, three files."""

    seeded = False

    def __init__(self, name, pde, mesh_n, tiny_n):
        self.name, self.pde = name, pde
        self.sizes = {False: mesh_n, True: tiny_n}

    def setup(self, seed, tiny):
        cfg = paper_config(self.sizes[tiny], self.pde)
        operator = fem.assemble(fem.build_mesh(cfg.mesh_n), ex.PDE_NAMES[cfg.pde])
        return cfg, operator

    def rep(self, state, out, expected):
        cfg, operator = state
        outcome = Outcome()
        results = []

        def work():
            problem = problemmod.make_problem(ex.build_spec(cfg), pde=operator)
            report = solver.run(problem, ex.build_options(cfg))
            ex.write_report_csv(out / "report.csv", report)
            ex.write_control_csv(out / "final_control.csv", report.final_control)
            ex._write_json(out / "summary.json", ex._summary_payload(report))
            outcome.add_reports([("solve", report)], results)

        guarded(work, outcome, len(expected))
        if outcome.failed == 0:
            check_results(results, expected, outcome)
        return outcome, results


@contextmanager
def shared_operators(operators):
    """Let the experiment commands reuse the operators built in set-up.

    The commands keep a per-call operator cache; this routes its lookups to
    `operators` so that assembly stays in set-up, as one CLI session sharing
    a factorization would.
    """
    original = ex._assemble_once
    ex._assemble_once = lambda cache, mesh_n, pde_kind: operators[(mesh_n, pde_kind)]
    try:
        yield
    finally:
        ex._assemble_once = original


class SweepWorkload:
    """beta-sweep --pareto, switching, table1 and beta-sweep on one shared operator."""

    seeded = False

    def __init__(self, name, mesh_n, tiny_n):
        self.name = name
        self.sizes = {False: mesh_n, True: tiny_n}

    def setup(self, seed, tiny):
        cfg = paper_config(self.sizes[tiny])
        kind = ex.PDE_NAMES[cfg.pde]
        return cfg, {(cfg.mesh_n, kind): fem.assemble(fem.build_mesh(cfg.mesh_n), kind)}

    def rep(self, state, out, expected):
        cfg, operators = state
        outcome = Outcome()
        results = []

        def work():
            with shared_operators(operators):
                pareto = ex.run_beta_sweep(cfg, pareto=True, out=out)
                switching = ex.run_switching(cfg, out=out)
                table1 = ex.run_table1(cfg, out=out)
                plain = ex.run_beta_sweep(cfg, out=out)
            labelled = [(f"pareto-l0-{i}", r) for i, r in enumerate(pareto["l0"])]
            labelled += [(f"pareto-l1-{i}", r) for i, r in enumerate(pareto["l1"])]
            labelled += [(f"switching-{i}", r) for i, r in enumerate(switching)]
            labelled += [(f"table1-{i}", r) for i, r in enumerate(table1)]
            labelled += [(f"beta-sweep-{i}", r) for i, r in enumerate(plain)]
            outcome.add_reports(labelled, results)

        guarded(work, outcome, len(expected))
        if outcome.failed == 0:
            check_results(results, expected, outcome)
        return outcome, results


def _draw_l0(rng, n):
    g = rng.uniform(-3, 3, n)
    u = rng.uniform(-2, 2, n)
    L = rng.uniform(0, 2, n)
    alpha = rng.uniform(0.01, 2, n)
    beta = rng.uniform(0.01, 2, n)
    b = rng.choice([0.6, 1.0, 1.4, math.inf], n)
    inf_rows = np.isinf(b)
    # keep the unbounded rows inside a manageable search radius
    alpha[inf_rows] = rng.uniform(0.5, 1.5, inf_rows.sum())
    L[inf_rows] = rng.uniform(0.0, 1.0, inf_rows.sum())
    g[inf_rows] = rng.uniform(-1.5, 1.5, inf_rows.sum())
    u[inf_rows] = rng.uniform(-1.0, 1.0, inf_rows.sum())
    return g, u, L, alpha, beta, b


def _blocks(rows):
    """Split row indices into REFERENCE_BLOCK-row blocks."""
    return np.array_split(rows, max(1, math.ceil(rows.size / REFERENCE_BLOCK)))


def _grid_size(radius, step):
    """Grid points per row of reference._rowwise_grid_min (kept even)."""
    n = int(math.ceil(2.0 * radius / step)) + 2
    return n + n % 2


class OracleWorkload:
    """Criterion 1: scalar prox maps against the brute-force reference."""

    seeded = True

    def __init__(self, name, instances, tiny_instances):
        self.name = name
        self.sizes = {False: instances, True: tiny_instances}

    def setup(self, seed, tiny):
        n = self.sizes[tiny]
        rng = np.random.default_rng(seed)
        l0 = _draw_l0(rng, n)
        q = rng.uniform(-3, 3, n)
        s = rng.uniform(0, 2, n)
        bb = rng.choice([0.6, 1.0, 1.4, math.inf], n)
        q[np.isinf(bb)] = rng.uniform(-2.5, 2.5, int(np.isinf(bb).sum()))
        l1 = _draw_l0(rng, n)
        switch = tuple(rng.uniform(lo, hi, n) for lo, hi in
                       ((-2, 2), (-2, 2), (-1, 1), (-1, 1), (0, 2), (0.01, 1), (0.01, 1)))
        return n, l0, (q, s, bb), l1, switch

    def _penalized(self, a2, a1, abs_w, supp_w, b, vertex, outcome):
        """Reference minimum and candidates per block, finite and infinite boxes apart."""
        finite = ~np.isinf(b)
        radius = np.where(finite, b, np.abs(vertex) + np.sqrt(supp_w / a2) + 0.5)
        out_min = np.empty(a2.shape[0])
        cands = np.empty((a2.shape[0], 5))
        cvals = np.empty((a2.shape[0], 5))
        for group in (np.flatnonzero(finite), np.flatnonzero(~finite)):
            for rows in _blocks(group):
                outcome.grid_points += rows.size * _grid_size(float(radius[rows].max()), reference.GRID_STEP)
                m, c, v = reference.penalized_quadratic_batch(
                    a2[rows], a1[rows], abs_w[rows], supp_w[rows], radius[rows]
                )
                out_min[rows] = m
                cands[rows] = c
                cvals[rows] = v
        return out_min, cands, cvals

    @staticmethod
    def _count_bad(values, objective_values, oracle_min, cands, cvals):
        admitted = cvals <= (oracle_min + ORACLE_ADMIT_TOL)[:, None]
        dist = np.abs(cands - values[:, None])
        dist[~admitted] = np.inf
        bad_obj = np.abs(objective_values - oracle_min) > ORACLE_OBJ_TOL
        bad_arg = dist.min(axis=1) > ORACLE_ARG_TOL
        return int(np.count_nonzero(bad_obj | bad_arg))

    def rep(self, state, out, expected):
        n, l0, box, l1, switch = state
        outcome = Outcome()
        zeros = np.zeros(n)
        checks = (("prox_l0", self._check_l0, l0), ("box_hard_threshold", self._check_box, box),
                  ("prox_l1", self._check_l1, l1), ("prox_switch", self._check_switch, switch))
        for name, check, draws in checks:

            def work():
                bad = check(n, draws, zeros, outcome)
                outcome.attempted += n
                outcome.failed += bad
                if bad:
                    print(f"check failed: {name}: {bad} of {n} instances", file=sys.stderr)

            guarded(work, outcome, n)
        return outcome, []

    def _check_l0(self, n, draws, zeros, outcome):
        g, u, L, alpha, beta, b = draws
        a2 = 0.5 * (L + alpha)
        a1 = g - L * u
        oracle_min, cands, cvals = self._penalized(a2, a1, zeros, beta, b, -a1 / (2 * a2), outcome)
        elems, idx = [], []
        for i in range(n):
            for v in prox.prox_l0(g[i], u[i], prox.ProxParams(L[i], alpha[i], beta[i], b[i])).values:
                elems.append(v)
                idx.append(i)
        elems = np.array(elems)
        idx = np.array(idx)
        obj = a2[idx] * elems**2 + a1[idx] * elems + beta[idx] * (elems != 0.0)
        return self._count_bad(elems, obj, oracle_min[idx], cands[idx], cvals[idx])

    def _check_box(self, n, draws, zeros, outcome):
        q, s, bb = draws
        a2 = np.full(n, 0.5)
        oracle_min, cands, cvals = self._penalized(a2, -q, zeros, s, bb, q, outcome)
        elems, idx = [], []
        for i in range(n):
            for v in prox.box_hard_threshold(q[i], s[i], bb[i]).values:
                elems.append(v)
                idx.append(i)
        elems = np.array(elems)
        idx = np.array(idx)
        obj = 0.5 * elems**2 - q[idx] * elems + s[idx] * (elems != 0.0)
        return self._count_bad(elems, obj, oracle_min[idx], cands[idx], cvals[idx])

    def _check_l1(self, n, draws, zeros, outcome):
        g, u, L, alpha, gamma, b = draws
        a2 = 0.5 * (L + alpha)
        a1 = g - L * u
        oracle_min, cands, cvals = self._penalized(a2, a1, gamma, zeros, b, -a1 / (2 * a2), outcome)
        vals = np.array([prox.prox_l1(g[i], u[i], L[i], alpha[i], gamma[i], b[i]) for i in range(n)])
        obj = a2 * vals**2 + a1 * vals + gamma * np.abs(vals)
        return self._count_bad(vals, obj, oracle_min, cands, cvals)

    def _check_switch(self, n, draws, zeros, outcome):
        g1, g2, u1, u2, L, alpha, beta = draws
        o_min = np.empty(n)
        cands = np.empty((n, 4, 2))
        cvals = np.empty((n, 4))
        m1 = np.abs((L * u1 - g1) / (L + alpha))
        m2 = np.abs((L * u2 - g2) / (L + alpha))
        for rows in _blocks(np.arange(n)):
            r = max(3.0, float(m1[rows].max()) + 0.5, float(m2[rows].max()) + 0.5)
            outcome.grid_points += 2 * rows.size * _grid_size(r, 1e-3)
            o_min[rows], cands[rows], cvals[rows] = reference.switch_batch(
                g1[rows], g2[rows], u1[rows], u2[rows], L[rows], alpha[rows], beta[rows]
            )
        p1 = np.empty(n)
        p2 = np.empty(n)
        for i in range(n):
            p = prox.prox_switch(prox.SwitchingPoint(g1[i], g2[i]), prox.SwitchingPoint(u1[i], u2[i]),
                                 L[i], alpha[i], beta[i])
            p1[i], p2[i] = p.u1, p.u2
        obj = (
            g1 * p1 + g2 * p2
            + 0.5 * L * ((p1 - u1) ** 2 + (p2 - u2) ** 2)
            + 0.5 * alpha * (p1**2 + p2**2)
            + beta * ((p1 != 0.0) & (p2 != 0.0))
        )
        admitted = cvals <= (o_min + ORACLE_ADMIT_TOL)[:, None]
        dist = np.maximum(np.abs(cands[:, :, 0] - p1[:, None]), np.abs(cands[:, :, 1] - p2[:, None]))
        dist[~admitted] = np.inf
        bad = (np.abs(obj - o_min) > ORACLE_OBJ_TOL) | (dist.min(axis=1) > ORACLE_ARG_TOL)
        return int(np.count_nonzero(bad))


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-n320", "dirichlet", 320, 16),
        SolveWorkload("neumann-n128", "neumann", 128, 8),
        SweepWorkload("sweep-n40", 40, 8),
        OracleWorkload("oracle", 10_000, 200),
    )
}
