"""Configured experiment runs and their flat-file outputs.

Every command takes a RunConfig (flat key-value view of problem and solver
parameters), runs the thresholding solver and writes CSV files plus a JSON
summary into the output directory.  Output is deterministic: fixed column
order, fixed float formatting ("%.12g"), rows in run order, "\r\n" line ends
and no quoting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fem
from . import problem as problemmod
from . import reference
from . import solver as solvermod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SELFTEST = 4
EXIT_BROKEN_PIPE = 141

PDE_NAMES = {
    "dirichlet": fem.DIRICHLET_POISSON,
    "neumann": fem.NEUMANN_HELMHOLTZ,
}

TABLE1_BT_WEIGHTS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
TABLE2_BETAS = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
PARETO_BETAS = tuple(0.5 * 0.7**l for l in range(16))
SWITCHING_BETAS = (0.1, 0.01, 0.001)
MESH_STUDY_NS = (10, 20, 40)
UNSOLVABLE_WEIGHTS = (0.01, 0.1, 1.0, 10.0)
# selftest's random draws per thresholding prox map, and for the paired switching map
SELFTEST_DRAWS = 300
SELFTEST_SWITCH_DRAWS = 100


class ConfigError(ValueError):
    """Bad config-file syntax, key or type, `pde`, `seed`, or a failed command-specific check."""


@dataclass
class RunConfig:
    """Flat run configuration; every field maps to one CLI flag/config key."""

    mesh_n: int = 40
    alpha: float = 0.01
    beta: float = 0.01
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
    ydzero: bool = False

    def validate(self):
        """Reject bad values before any run starts.

        ConfigError covers `pde` and `seed`, which nothing downstream sees;
        ProblemSpec, StepStrategy and SolverOptions raise ValueError for the rest.
        """
        if self.pde not in PDE_NAMES:
            raise ConfigError(f"pde must be dirichlet|neumann, got {self.pde!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        build_spec(self)
        build_options(self)
        return self


# annotations are the strings "int", "float", "str", "bool" (postponed evaluation)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path):
    """Read a line-based "key = value" file into a config dict.

    Keys are the RunConfig field names (dashes accepted); unknown keys are
    rejected.  Blank lines and lines starting with '#' are ignored.
    """
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return values


def _coerce(key, val):
    """Parse a config-file value as the type of RunConfig field `key`."""
    kind = _FIELD_TYPES[key]
    if kind == "str":
        return val
    if kind == "bool":
        if val.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{key}: expected a boolean, got {val!r}")
        return _BOOL_WORDS[val.lower()]
    parse, noun = (int, "an integer") if kind == "int" else (float, "a number")
    try:
        return parse(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {noun}, got {val!r}") from exc


def build_spec(config: RunConfig, y_d=None):
    if y_d is None:
        y_d = problemmod.zero_target if config.ydzero else problemmod.default_target
    return problemmod.ProblemSpec(
        alpha=config.alpha,
        beta=config.beta,
        bound=config.bound,
        penalty=config.penalty,
        pde=PDE_NAMES[config.pde],
        y_d=y_d,
        mesh_n=config.mesh_n,
    )


def build_options(config: RunConfig):
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


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


# a field holding one of these would need csv quoting, which the writer never does
_UNQUOTABLE = (",", '"', "\r", "\n")


# rows per %-pass: a few hundred kB of strings and tuples per pass stay in the
# heap, where whole-column buffers (MBs) would be mapped and faulted in afresh
_BLOCK = 2048


def _column(col):
    """(printf spec, values) of one column; float and int arrays skip _fmt.

    An object array is taken as strings formatted already (see _formatted).
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return "%s", _distinct_formatted(col)
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return "%d", col
    if isinstance(col, np.ndarray) and col.dtype == object:
        return "%s", col
    values = [_fmt(v) for v in col]
    for v in values:
        if any(c in v for c in _UNQUOTABLE):
            raise ValueError(f"CSV field {v!r} would need quoting")
    return "%s", values


def _formatted(values):
    """The "%.12g" strings of a float array, as an object array of its shape."""
    # no "%.12g" string holds a newline
    strings = ("%.12g\n" * values.size % tuple(values.ravel().tolist())).split("\n")
    return np.array(strings[:-1], dtype=object).reshape(values.shape)


def _distinct_formatted(col):
    """The "%.12g" strings of a float array, each distinct value formatted once.

    Values are told apart by their float64 bit patterns, so -0.0 still prints
    "-0"; every NaN prints "nan".
    """
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return _formatted(distinct.view(np.float64))[inverse]


def _write_csv(path, header, columns):
    """Write the header and the columns as CSV rows, _BLOCK rows per %-pass."""
    path = Path(path)
    formatted = [_column(col) for col in columns]
    nrows = len(formatted[0][1]) if formatted else 0
    if any(len(values) != nrows for _, values in formatted):
        raise ValueError(f"CSV columns differ in length: {[len(values) for _, values in formatted]}")
    head = ",".join(_column(header)[1]) + "\r\n"
    row = ",".join(spec for spec, _ in formatted) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for start in range(0, nrows, _BLOCK):
            block = [values[start : start + _BLOCK] for _, values in formatted]
            flat = [None] * (len(block[0]) * len(block))
            for j, values in enumerate(block):
                flat[j :: len(block)] = values.tolist() if isinstance(values, np.ndarray) else values
            fh.write((row * len(block[0])) % tuple(flat))
    return path


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_report_csv(path, report):
    header = [f.name for f in fields(solvermod.IterationRecord)]
    return _write_csv(path, header, [report.column(name) for name in header])


def write_control_csv(path, control):
    if isinstance(control, fem.ControlField):
        # 2n distinct values per centroid coordinate, formatted once each and
        # spread over triangle 2 (n iy + ix) + t of square (ix, iy)
        n = control.mesh.n
        x, y = (_formatted(axis) for axis in control.mesh.centroid_axes())
        cent_x = np.broadcast_to(x, (n, n, 2)).ravel()
        cent_y = np.broadcast_to(y[:, None, :], (n, n, 2)).ravel()
        columns = [np.arange(control.mesh.num_triangles), cent_x, cent_y, control.values]
        return _write_csv(path, ["triangle_index", "centroid_x", "centroid_y", "value"], columns)
    n = control.mesh.n
    centers = (np.arange(n) + 0.5) / n
    return _write_csv(path, ["x1", "u1", "u2"], [centers, control.u1, control.u2])


def vertex_rule_objective(problem, u):
    """Objective with the misfit quadratured by the interior vertex rule.

    Uses the lumped (row-sum) mass and drops Dirichlet boundary nodes from
    the misfit, i.e. the FD-style norm h^2 * sum over interior nodes, the
    metric FD-based implementations of this problem report.  Emitted as a
    supplementary CSV column for cross-code comparison; not used anywhere in
    the iteration, so its state solve is not in a report's pde_solves.
    """
    r = problem.state(u) - problem.target
    if problem.spec.pde == fem.DIRICHLET_POISSON:
        r[problem.mesh.boundary_nodes] = 0.0
    # the row sums of the CSR form: the diagonal storage sums a row in another
    # order, which rounds some interior rows differently (n = 49, 98, 103, ...)
    lump = np.asarray(problem.pde.mass.tocsr().sum(axis=1)).ravel()
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


def _sweep_specs(cfgs, y_d=None):
    """(config, ProblemSpec) of every run of a sweep, all built before the first run.

    A bad later value then fails before any run solves or writes anything.
    """
    return [(cfg, build_spec(cfg, y_d=y_d)) for cfg in cfgs]


def _sweep_run(cfg, spec, pde_cache):
    """One run of a sweep on the operator shared through pde_cache, without fp residual."""
    problem = problemmod.make_problem(spec, pde=_assemble_once(pde_cache, spec.mesh_n, spec.pde))
    return problem, solvermod.run(problem, build_options(cfg), compute_fp_residual=False)


def run_table1(config: RunConfig, out=None):
    """Line-search strategy comparison: 8 BT weights plus BT-W and BT-0."""
    out = Path(out if out is not None else config.out)
    rows, reports, pde_cache = [], [], {}
    cases = [("bt", w) for w in TABLE1_BT_WEIGHTS] + [("btw", 0.01), ("bt0", 0.01)]
    for cfg, spec in _sweep_specs([replace(config, strategy=kind, lhat0=lhat0) for kind, lhat0 in cases]):
        problem, report = _sweep_run(cfg, spec, pde_cache)
        support, F_vertex = report.records[-1].support, vertex_rule_objective(problem, report.final_control)
        rows.append((report.final_F, support, report.pde_solves, cfg.lhat0, cfg.strategy, F_vertex))
        reports.append(report)
    header = ["F", "support", "pde_solves", "L_hat0", "strategy", "F_vertex"]
    _write_csv(out / "table1.csv", header, list(zip(*rows)))
    return reports


def run_beta_sweep(config: RunConfig, betas=None, pareto=False, out=None):
    """Support-vs-beta sweep (unbounded controls) or the two-penalty trade-off sweep.

    Plain mode forces b = +inf and emits (beta, support) per run.  Pareto
    mode keeps the configured bound and runs both penalties over the beta
    grid, emitting (beta, f, support) series for each.
    """
    out = Path(out if out is not None else config.out)
    pde_cache = {}
    if pareto:
        betas = tuple(betas) if betas else PARETO_BETAS
        all_reports = {}
        sweeps = {kind: _sweep_specs([replace(config, penalty=kind, beta=b) for b in betas])
                  for kind in ("l0", "l1")}
        for kind, runs in sweeps.items():
            reports = [_sweep_run(cfg, spec, pde_cache)[1] for cfg, spec in runs]
            columns = [betas, [r.final_f for r in reports], [r.records[-1].support for r in reports]]
            _write_csv(out / f"pareto_{kind}.csv", ["beta", "f", "support"], columns)
            all_reports[kind] = reports
        return all_reports

    betas = tuple(betas) if betas else TABLE2_BETAS
    runs = _sweep_specs([replace(config, beta=b, bound=math.inf) for b in betas])
    reports = [_sweep_run(cfg, spec, pde_cache)[1] for cfg, spec in runs]
    supports = [r.records[-1].support for r in reports]
    _write_csv(out / "beta_sweep.csv", ["beta", "support"], [betas, supports])
    return reports


def run_mesh_study(config: RunConfig, n_list=None, out=None):
    """Same problem across mesh resolutions; emits (h, F, support, pde_solves)."""
    out = Path(out if out is not None else config.out)
    rows, reports = [], []
    n_list = n_list or MESH_STUDY_NS
    for n in n_list:
        if n < 4:
            raise ConfigError(f"mesh study needs n >= 4, got {n}")
        fem.check_mesh_fits(int(n))
    for cfg, spec in _sweep_specs([replace(config, mesh_n=int(n)) for n in n_list]):
        problem, report = _sweep_run(cfg, spec, {})
        support, F_vertex = report.records[-1].support, vertex_rule_objective(problem, report.final_control)
        rows.append((problem.mesh.mesh_size, report.final_F, support, report.pde_solves, F_vertex))
        reports.append(report)
    _write_csv(out / "mesh_study.csv", ["h", "F", "support", "pde_solves", "F_vertex"], list(zip(*rows)))
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
    cfg = replace(config, pde="neumann", penalty="l0", bound=math.inf)
    spec = build_spec(cfg, y_d=problemmod.unsolvable_target(alpha, beta))
    problem = problemmod.make_problem(spec)

    u_bar = fem.ControlField(problem.mesh, np.full(problem.mesh.num_triangles, math.sqrt(beta / alpha)))
    grad_bar = problem.value_and_grad(u_bar)[1]
    grad_dev = float(np.abs(grad_bar.values + math.sqrt(2 * alpha * beta)).max())
    fp_rows = [(L, solvermod.fp_residual(problem, u_bar, L, grad=grad_bar)) for L in UNSOLVABLE_WEIGHTS]
    _write_csv(out / "unsolvable_fp.csv", ["L", "fp_residual"], list(zip(*fp_rows)))

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
    rows, reports, pde_cache = [], [], {}
    cfgs = [replace(config, penalty="switching", pde="dirichlet", beta=b, bound=math.inf) for b in betas]
    for cfg, spec in _sweep_specs(cfgs, y_d=problemmod.switching_target):
        _, report = _sweep_run(cfg, spec, pde_cache)
        rows.append((cfg.beta, report.final_F, report.records[-1].support))
        write_control_csv(out / f"switching_controls_beta{_fmt(cfg.beta)}.csv", report.final_control)
        reports.append(report)
    _write_csv(out / "switching.csv", ["beta", "F", "overlap"], list(zip(*rows)))
    return reports


def run_selftest(config: RunConfig):
    """Fast self-check: prox operators vs the brute-force reference, gradient
    vs finite differences, mesh sanity, and a trivial zero-target solve.

    Prints one PASS/FAIL line per check and returns True iff all pass.
    """
    rng = np.random.default_rng(config.seed)
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")

    def draw(n, *ranges):
        return [rng.uniform(lo, hi, n) for lo, hi in ranges]

    n = SELFTEST_DRAWS
    for penalty in ("l0", "l1"):
        # weight is beta or gamma; every element of an l0 prox set is checked against its row
        g, u, L, alpha, weight = draw(n, (-3, 3), (-2, 2), (0, 2), (0.01, 2), (0.01, 2))
        b = rng.choice([0.5, 1.0, 2.0, math.inf], n)
        fail, gap = reference.check_prox(penalty, g, u, L, alpha, weight, b)
        detail = f"(n={n}, worst objective gap {gap.max():.2e})" if penalty == "l0" else f"(n={n})"
        check(f"prox_{penalty} vs brute force", not fail.any(), detail)

    n = SELFTEST_SWITCH_DRAWS
    g1, g2, u1, u2, L, alpha, beta = draw(n, (-2, 2), (-2, 2), (-1, 1), (-1, 1), (0, 2), (0.01, 1), (0.01, 1))
    fail, _ = reference.check_prox("switching", (g1, g2), (u1, u2), L, alpha, beta)
    check("prox_switch vs brute force", not fail.any())

    # adjoint gradient vs central differences on a small mesh, both operators
    worst = 0.0
    for pde_name in ("dirichlet", "neumann"):
        cfg = replace(config, mesh_n=8, pde=pde_name, penalty="l0")
        spec = build_spec(cfg)
        problem = problemmod.make_problem(spec)
        for _ in range(4):
            u = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            du = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            _, grad = problem.value_and_grad(u)
            pair = problem.mesh.triangle_area * float(grad.values @ du.values)
            eps = 1e-5
            up = fem.ControlField(problem.mesh, u.values + eps * du.values)
            um = fem.ControlField(problem.mesh, u.values - eps * du.values)
            fd = (problem.eval_f(up) - problem.eval_f(um)) / (2 * eps)
            worst = max(worst, abs(pair - fd) / max(abs(fd), 1e-14))  # a NaN ratio leaves worst as it is
    check("adjoint gradient vs finite differences", worst <= 1e-6, f"(worst rel {worst:.2e})")

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
