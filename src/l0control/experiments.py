"""Configured experiment runs and their flat-file outputs.

Every command takes a RunConfig (flat key-value view of problem and solver
parameters), runs the thresholding solver and writes CSV files plus a JSON
summary into the output directory.  Output is deterministic: fixed column
order, fixed float formatting ("%.12g"), rows in run order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fem
from . import problem as problemmod
from . import reference
from . import solver as solvermod
from .prox import ProxParams, SwitchingPoint, prox_l0, prox_l1, prox_switch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SELFTEST = 4

PDE_NAMES = {
    "dirichlet": fem.DIRICHLET_POISSON,
    "neumann": fem.NEUMANN_HELMHOLTZ,
}

TABLE1_BT_WEIGHTS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
TABLE2_BETAS = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
PARETO_BETAS = tuple(0.5 * 0.7**l for l in range(16))
SWITCHING_BETAS = (0.1, 0.01, 0.001)
UNSOLVABLE_WEIGHTS = (0.01, 0.1, 1.0, 10.0)


class ConfigError(ValueError):
    """Invalid run configuration (unknown key or out-of-range value)."""


@dataclass
class RunConfig:
    """Flat run configuration; every field maps to one CLI flag/config key."""

    mesh_n: int = 40
    alpha: float = 0.01
    beta: float = 0.01
    gamma: float = None
    bound: float = 4.0
    penalty: str = "l0"
    pde: str = "dirichlet"
    strategy: str = "bt0"
    lhat0: float = 0.01
    theta: float = 0.5
    eta: float = 1e-4
    imax: int = 40
    lfixed: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-12
    out: str = "."
    seed: int = 0
    full: bool = False
    ydzero: bool = False
    no_bound: bool = False

    def validate(self):
        """Reject bad values before any run starts.

        Ranges are checked where the values are used (ProblemSpec,
        StepStrategy, SolverOptions); this adds only what those never see.
        """
        if self.pde not in PDE_NAMES:
            raise ConfigError(f"pde must be dirichlet|neumann, got {self.pde!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        build_spec(self)
        build_options(self)
        return self


_BOOL_KEYS = {"full", "ydzero", "no_bound"}


def parse_config_file(path):
    """Read a line-based "key = value" file into a config dict.

    Keys are the RunConfig field names (dashes accepted); unknown keys are
    rejected.  Blank lines and lines starting with '#' are ignored.
    """
    known = {f.name: f for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def _coerce(key, val):
    if key in _BOOL_KEYS:
        low = val.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {val!r}")
    if key in ("mesh_n", "imax", "max_iter", "seed"):
        try:
            return int(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {val!r}") from exc
    if key in ("penalty", "pde", "strategy", "out"):
        return val
    try:
        return float(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {val!r}") from exc


def build_spec(config: RunConfig, y_d=None):
    penalty = config.penalty
    bound = math.inf if config.no_bound else config.bound
    beta = config.beta
    if penalty == "l1" and config.gamma is not None:
        beta = config.gamma
    if y_d is None:
        y_d = problemmod.zero_target if config.ydzero else problemmod.default_target
    try:
        return problemmod.ProblemSpec(
            alpha=config.alpha,
            beta=beta,
            bound=bound,
            penalty=penalty,
            pde=PDE_NAMES[config.pde],
            y_d=y_d,
            mesh_n=config.mesh_n,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_options(config: RunConfig):
    try:
        strategy = solvermod.StepStrategy(
            kind=config.strategy,
            L_fixed=config.lfixed,
            L_hat0=config.lhat0,
            theta=config.theta,
            eta=config.eta,
            I_max=config.imax,
        )
        return solvermod.SolverOptions(
            strategy=strategy, max_iterations=config.max_iter, stop_tol=config.tol
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_report_csv(path, report):
    header = ["k", "L", "trials", "f", "g", "F", "support", "step_norm", "chi_dist", "pde_solves"]
    rows = [
        (r.k, r.L, r.trials, r.f, r.g, r.F, r.support, r.step_norm, r.chi_dist, r.pde_solves)
        for r in report.records
    ]
    return _write_csv(path, header, rows)


def write_control_csv(path, control):
    if isinstance(control, fem.ControlField):
        cent = control.mesh.centroids()
        rows = [
            (i, cent[i, 0], cent[i, 1], control.values[i])
            for i in range(control.mesh.num_triangles)
        ]
        return _write_csv(path, ["triangle_index", "centroid_x", "centroid_y", "value"], rows)
    n = control.layout.mesh.n
    centers = (np.arange(n) + 0.5) / n
    rows = [(centers[j], control.u1[j], control.u2[j]) for j in range(n)]
    return _write_csv(path, ["x1", "u1", "u2"], rows)


def vertex_rule_objective(problem, u):
    """Objective with the misfit quadratured by the interior vertex rule.

    Uses the lumped (row-sum) mass and drops Dirichlet boundary nodes from
    the misfit, i.e. the FD-style norm h^2 * sum over interior nodes, the
    metric FD-based implementations of this problem report.  Emitted as a
    supplementary CSV column for cross-code comparison; not used anywhere in
    the iteration.
    """
    y = fem.solve_state(problem.pde, u)
    r = y.values - problem.target.values
    if problem.spec.pde == fem.DIRICHLET_POISSON:
        r = r.copy()
        r[problem.mesh.boundary_nodes] = 0.0
    lump = np.asarray(problem.pde.mass.sum(axis=1)).ravel()
    return 0.5 * float((r * r) @ lump) + problem.eval_g(u)


def summary_line(report):
    return (
        f"F={report.final_F:.9g} L0={report.records[-1].support:.9g} "
        f"pde={report.pde_solves} iters={report.iterations} term={report.termination}"
    )


def _summary_payload(report):
    return {
        "F": report.final_F,
        "f": report.final_f,
        "g": report.final_g,
        "support": report.records[-1].support,
        "pde_solves": report.pde_solves,
        "iterations": report.iterations,
        "termination": report.termination,
        "fp_residual": report.fp_residual,
        "fp_residual_L": report.fp_residual_L,
    }


def run_solve(config: RunConfig, out=None):
    """Single configured run; writes report.csv, final_control.csv, summary.json."""
    out = Path(out if out is not None else config.out)
    spec = build_spec(config)
    problem = problemmod.make_problem(spec)
    report = solvermod.run(problem, build_options(config))
    write_report_csv(out / "report.csv", report)
    write_control_csv(out / "final_control.csv", report.final_control)
    _write_json(out / "summary.json", _summary_payload(report))
    return report


def _assemble_once(cache, mesh_n, pde_kind):
    key = (mesh_n, pde_kind)
    if key not in cache:
        cache[key] = fem.assemble(fem.build_mesh(mesh_n), pde_kind)
    return cache[key]


def run_table1(config: RunConfig, out=None):
    """Line-search strategy comparison: 8 BT weights plus BT-W and BT-0."""
    out = Path(out if out is not None else config.out)
    mesh_n = 500 if config.full else config.mesh_n
    rows = []
    reports = []
    pde_cache = {}
    cases = [("bt", w) for w in TABLE1_BT_WEIGHTS] + [("btw", 0.01), ("bt0", 0.01)]
    for kind, lhat0 in cases:
        cfg = replace(config, strategy=kind, lhat0=lhat0, mesh_n=mesh_n)
        spec = build_spec(cfg)
        problem = problemmod.make_problem(spec, pde=_assemble_once(pde_cache, mesh_n, spec.pde))
        report = solvermod.run(problem, build_options(cfg), compute_fp_residual=False)
        rows.append(
            (
                report.final_F,
                report.records[-1].support,
                report.pde_solves,
                lhat0,
                kind,
                vertex_rule_objective(problem, report.final_control),
            )
        )
        reports.append(report)
    _write_csv(
        out / "table1.csv",
        ["F", "support", "pde_solves", "L_hat0", "strategy", "F_vertex"],
        rows,
    )
    return reports


def run_beta_sweep(config: RunConfig, betas=None, pareto=False, out=None):
    """Support-vs-beta sweep (unbounded controls) or the two-penalty trade-off sweep.

    Plain mode forces b = +inf and emits (beta, support) per run.  Pareto
    mode keeps the configured bound and runs both penalties over the beta
    grid, emitting (beta, f, support) series for each.
    """
    out = Path(out if out is not None else config.out)
    mesh_n = 500 if config.full else config.mesh_n
    pde_cache = {}
    if pareto:
        betas = tuple(betas) if betas else PARETO_BETAS
        all_reports = {}
        for kind in ("l0", "l1"):
            rows = []
            reports = []
            for beta in betas:
                cfg = replace(config, penalty=kind, beta=beta, gamma=None, mesh_n=mesh_n)
                spec = build_spec(cfg)
                problem = problemmod.make_problem(spec, pde=_assemble_once(pde_cache, mesh_n, spec.pde))
                report = solvermod.run(problem, build_options(cfg), compute_fp_residual=False)
                rows.append((beta, report.final_f, report.records[-1].support))
                reports.append(report)
            _write_csv(out / f"pareto_{kind}.csv", ["beta", "f", "support"], rows)
            all_reports[kind] = reports
        return all_reports

    betas = tuple(betas) if betas else TABLE2_BETAS
    rows = []
    reports = []
    for beta in betas:
        cfg = replace(config, beta=beta, no_bound=True, mesh_n=mesh_n)
        spec = build_spec(cfg)
        problem = problemmod.make_problem(spec, pde=_assemble_once(pde_cache, mesh_n, spec.pde))
        report = solvermod.run(problem, build_options(cfg), compute_fp_residual=False)
        rows.append((beta, report.records[-1].support))
        reports.append(report)
    _write_csv(out / "beta_sweep.csv", ["beta", "support"], rows)
    return reports


def run_mesh_study(config: RunConfig, n_list=None, out=None):
    """Same problem across mesh resolutions; emits (h, F, support, pde_solves)."""
    out = Path(out if out is not None else config.out)
    if n_list is None:
        n_list = (10, 20, 40, 80, 160, 320, 640) if config.full else (10, 20, 40)
    rows = []
    reports = []
    for n in n_list:
        if n < 4:
            raise ConfigError(f"mesh study needs n >= 4, got {n}")
        cfg = replace(config, mesh_n=int(n))
        spec = build_spec(cfg)
        problem = problemmod.make_problem(spec)
        report = solvermod.run(problem, build_options(cfg), compute_fp_residual=False)
        rows.append(
            (
                problem.mesh.mesh_size,
                report.final_F,
                report.records[-1].support,
                report.pde_solves,
                vertex_rule_objective(problem, report.final_control),
            )
        )
        reports.append(report)
    _write_csv(out / "mesh_study.csv", ["h", "F", "support", "pde_solves", "F_vertex"], rows)
    return reports


def run_unsolvable(config: RunConfig, out=None):
    """Constant-target configuration without a minimizer (Neumann operator).

    Reports the stationarity residual of the convexified solution (a constant
    control) for several prox weights, runs the solver, and measures the
    distance of the final control to the minimizer of the smooth part.
    """
    out = Path(out if out is not None else config.out)
    alpha, beta = config.alpha, config.beta
    if not (alpha > 0 and beta > 0):
        raise ConfigError("the unsolvable configuration needs alpha > 0 and beta > 0")
    cfg = replace(config, pde="neumann", penalty="l0", no_bound=True)
    spec = build_spec(cfg, y_d=problemmod.unsolvable_target(alpha, beta))
    problem = problemmod.make_problem(spec)

    u_bar = fem.ControlField(problem.mesh, np.full(problem.mesh.num_triangles, math.sqrt(beta / alpha)))
    with problem.budget.paused():
        grad_bar = problem.grad_f(u_bar)
        grad_dev = float(np.abs(grad_bar.values + math.sqrt(2 * alpha * beta)).max())
        fp_rows = [(L, solvermod.fp_residual(problem, u_bar, L, grad=grad_bar)) for L in UNSOLVABLE_WEIGHTS]
    _write_csv(out / "unsolvable_fp.csv", ["L", "fp_residual"], fp_rows)

    report = solvermod.run(problem, build_options(cfg))
    smooth_min = spec.y_d(0.0, 0.0) / (1.0 + alpha)
    dist = math.sqrt(
        problem.mesh.triangle_area * float(((report.final_control.values - smooth_min) ** 2).sum())
    )
    write_report_csv(out / "report.csv", report)
    write_control_csv(out / "final_control.csv", report.final_control)
    payload = _summary_payload(report)
    payload.update(
        {
            "grad_at_ubar_dev": grad_dev,
            "smooth_minimizer": smooth_min,
            "distance_to_smooth_minimizer": dist,
            "fp_residuals": {str(L): r for L, r in fp_rows},
        }
    )
    _write_json(out / "summary.json", payload)
    return report, fp_rows, dist


def run_switching(config: RunConfig, betas=None, out=None):
    """Two-band switching runs over a beta grid; emits overlap table and profiles."""
    out = Path(out if out is not None else config.out)
    betas = tuple(betas) if betas else SWITCHING_BETAS
    if config.mesh_n % 4:
        raise ConfigError(f"switching runs need 4 | mesh_n, got {config.mesh_n}")
    rows = []
    reports = []
    pde_cache = {}
    for beta in betas:
        cfg = replace(config, penalty="switching", pde="dirichlet", beta=beta, no_bound=True)
        spec = build_spec(cfg, y_d=problemmod.switching_target)
        problem = problemmod.make_problem(
            spec, pde=_assemble_once(pde_cache, config.mesh_n, fem.DIRICHLET_POISSON)
        )
        report = solvermod.run(problem, build_options(cfg), compute_fp_residual=False)
        rows.append((beta, report.final_F, report.records[-1].support))
        write_control_csv(out / f"switching_controls_beta{_fmt(beta)}.csv", report.final_control)
        reports.append(report)
    _write_csv(out / "switching.csv", ["beta", "F", "overlap"], rows)
    return reports


def run_selftest(config: RunConfig, out=None, n_random=300):
    """Fast self-check: prox operators vs the brute-force reference, gradient
    vs finite differences, mesh sanity, and a trivial zero-target solve.

    Prints one PASS/FAIL line per check and returns True iff all pass.
    """
    rng = np.random.default_rng(config.seed)
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")

    worst = 0.0
    ok = True
    for _ in range(n_random):
        g = rng.uniform(-3, 3)
        u = rng.uniform(-2, 2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 2)
        beta = rng.uniform(0.01, 2)
        b = rng.choice([0.5, 1.0, 2.0, math.inf])
        sol = prox_l0(g, u, ProxParams(L=L, alpha=alpha, beta=beta, bound=b))
        best, argmins = reference.prox_l0_reference(g, u, L, alpha, beta, b)
        for v in sol.values:
            val = g * v + 0.5 * L * (v - u) ** 2 + 0.5 * alpha * v * v + (beta if v else 0.0)
            worst = max(worst, abs(val - best))
            if abs(val - best) > 1e-10 or min(abs(v - a) for a in argmins) > 1e-8:
                ok = False
    check("prox_l0 vs brute force", ok, f"(n={n_random}, worst objective gap {worst:.2e})")

    ok = True
    for _ in range(n_random):
        g = rng.uniform(-3, 3)
        u = rng.uniform(-2, 2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 2)
        gamma = rng.uniform(0.01, 2)
        b = rng.choice([0.5, 1.0, 2.0, math.inf])
        v = prox_l1(g, u, L, alpha, gamma, b)
        best, argmins = reference.prox_l1_reference(g, u, L, alpha, gamma, b)
        val = g * v + 0.5 * L * (v - u) ** 2 + 0.5 * alpha * v * v + gamma * abs(v)
        if abs(val - best) > 1e-10 or min(abs(v - a) for a in argmins) > 1e-8:
            ok = False
    check("prox_l1 vs brute force", ok, f"(n={n_random})")

    ok = True
    for _ in range(max(n_random // 3, 50)):
        g1, g2 = rng.uniform(-2, 2, size=2)
        u1, u2 = rng.uniform(-1, 1, size=2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 1)
        beta = rng.uniform(0.01, 1)
        p = prox_switch(SwitchingPoint(g1, g2), SwitchingPoint(u1, u2), L, alpha, beta)
        best, argmins = reference.prox_switch_reference(g1, g2, u1, u2, L, alpha, beta)
        val = (
            g1 * p.u1 + g2 * p.u2
            + 0.5 * L * ((p.u1 - u1) ** 2 + (p.u2 - u2) ** 2)
            + 0.5 * alpha * (p.u1**2 + p.u2**2)
            + (beta if p.u1 * p.u2 != 0 else 0.0)
        )
        if abs(val - best) > 1e-10:
            ok = False
        if min(max(abs(p.u1 - a1), abs(p.u2 - a2)) for a1, a2 in argmins) > 1e-8:
            ok = False
    check("prox_switch vs brute force", ok)

    # adjoint gradient vs central differences on a small mesh, both operators
    ok = True
    worst = 0.0
    for pde_name in ("dirichlet", "neumann"):
        cfg = replace(config, mesh_n=8, pde=pde_name, penalty="l0")
        spec = build_spec(cfg)
        problem = problemmod.make_problem(spec)
        for _ in range(4):
            u = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            du = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            _, grad = problem.value_and_grad(u)
            pair = fem.l2_inner_control(grad, du)
            eps = 1e-5
            up = fem.ControlField(problem.mesh, u.values + eps * du.values)
            um = fem.ControlField(problem.mesh, u.values - eps * du.values)
            fd = (problem.eval_f(up) - problem.eval_f(um)) / (2 * eps)
            rel = abs(pair - fd) / max(abs(fd), 1e-14)
            worst = max(worst, rel)
            if rel > 1e-6:
                ok = False
    check("adjoint gradient vs finite differences", ok, f"(worst rel {worst:.2e})")

    mesh = fem.build_mesh(8)
    check(
        "mesh counts",
        mesh.num_triangles == 128 and mesh.num_nodes == 81 and abs(mesh.triangle_area - 1 / 128) < 1e-15,
    )

    cfg = replace(config, mesh_n=8, ydzero=True, penalty="l0", pde="dirichlet")
    spec = build_spec(cfg)
    problem = problemmod.make_problem(spec)
    report = solvermod.run(problem, build_options(cfg))
    check("zero-target solve", report.final_F == 0.0 and report.iterations == 1)

    return all(results)
