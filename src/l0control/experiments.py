"""Configured experiment runs and their flat-file outputs.

Every command takes a RunConfig (flat key-value view of problem and solver
parameters), runs the thresholding solver and writes CSV files plus a JSON
summary into the output directory.  Output is deterministic: fixed column
order, fixed float formatting ("%.12g"), rows in run order, "\r\n" line ends
and no quoting.
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import fem
from . import problem as problemmod
from . import reference
from . import solver as solvermod

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


def _setting(default, help, **flag):
    """A RunConfig field; its metadata holds the argparse keywords of its flag."""
    return field(default=default, metadata={"help": help, **flag})


# the solver keys of RunConfig take their defaults from here
_SOLVER_DEFAULTS = solvermod.SolverOptions()


@dataclass
class RunConfig:
    """Flat run configuration: each field is one config key and one CLI flag."""

    mesh_n: int = _setting(40, "grid subdivisions per side")
    alpha: float = _setting(0.01, "quadratic control-cost weight")
    beta: float = _setting(0.01, "support-penalty weight (the l1 weight in l1 mode)")
    bound: float = _setting(4.0, 'box bound on the control (number or "inf")')
    penalty: str = _setting("l0", "penalty kind", choices=problemmod.PENALTY_KINDS)
    pde: str = _setting("dirichlet", "state operator", choices=list(PDE_NAMES))
    strategy: str = _setting(_SOLVER_DEFAULTS.strategy, "step-size rule", choices=solvermod.STRATEGY_KINDS)
    lhat0: float = _setting(_SOLVER_DEFAULTS.lhat0, "initial prox weight for the adaptive rules")
    theta: float = _setting(_SOLVER_DEFAULTS.theta, "weight reduction factor in (0,1)")
    eta: float = _setting(_SOLVER_DEFAULTS.eta, "decrease-condition constant")
    imax: int = _setting(_SOLVER_DEFAULTS.imax, "maximal widening steps")
    lfixed: float = _setting(_SOLVER_DEFAULTS.lfixed, "prox weight for strategy=fixed")
    max_iter: int = _setting(_SOLVER_DEFAULTS.max_iter, "iteration cap")
    tol: float = _setting(_SOLVER_DEFAULTS.tol, "stop when |F_{k+1}-F_k| <= tol")
    out: str = _setting(".", "output directory (default '.')", metavar="DIR")
    seed: int = _setting(0, "seed for randomized subcommands")
    ydzero: bool = _setting(False, "use the zero tracking target")

    def validate(self):
        """Reject bad values before any run starts.

        ConfigError covers `pde` and `seed`, which nothing downstream sees;
        ProblemSpec and SolverOptions raise ValueError for the rest.
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
    rejected.  Blank lines and lines starting with '#' are ignored, and so is
    a leading UTF-8 byte-order mark.
    """
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
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
    """The config's solver keys, copied by name into SolverOptions."""
    return solvermod.SolverOptions(**{f.name: getattr(config, f.name) for f in fields(solvermod.SolverOptions)})


# a field holding one of these would need csv quoting, which the writer never does
_UNQUOTABLE = (",", '"', "\r", "\n")


# rows per %-pass: a few hundred kB of strings and tuples per pass stay in the
# heap, where whole-column buffers (MBs) would be mapped and faulted in afresh
_BLOCK = 2048


def _column(col):
    """(printf spec, values array) of one column, read through np.asarray.

    An object array is taken as strings formatted already (see _formatted);
    any other array that is neither float nor integer holds labels.
    """
    col = np.asarray(col)
    if col.dtype.kind == "f":
        return "%s", _distinct_formatted(col)
    if col.dtype.kind in "iu":
        return "%d", col
    if col.dtype == object:
        return "%s", col
    for v in col.astype(str).tolist():
        if any(c in v for c in _UNQUOTABLE):
            raise ValueError(f"CSV field {v!r} would need quoting")
    return "%s", col


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
                flat[j :: len(block)] = values.tolist()
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
    # the row sums as CSR's sum(axis=1) rounds them; mass @ ones adds a row in
    # another order, which rounds some interior rows differently (n = 49, 98, 103, ...)
    lump = problem.pde.mass.row_sums()
    return 0.5 * float((r * r) @ lump) + problem.eval_g(u)


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


def _writable(paths):
    """The paths as a list, each checked to open for writing; creates nothing.

    Raises the OSError that opening would for a directory, under a nearest
    existing ancestor that is not a directory, or without write permission.
    Each command checks its files before its first solve.
    """
    paths = [Path(p) for p in paths]
    for path in paths:
        # a missing parent directory is made when the file is written
        found = next(p for p in (path, *path.parents) if p.exists())
        if path.is_dir():
            code = errno.EISDIR
        elif found != path and not found.is_dir():
            code = errno.ENOTDIR
        elif not os.access(found, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))
    return paths


def _run_files(out):
    """The paths of a run's report.csv, final_control.csv and summary.json."""
    return out / "report.csv", out / "final_control.csv", out / "summary.json"


def _write_run(files, report, **extra):
    """A run's report.csv, final_control.csv and summary.json (its summary plus `extra`)."""
    report_csv, control_csv, summary = files
    write_report_csv(report_csv, report)
    write_control_csv(control_csv, report.final_control)
    _write_json(summary, {**_summary_payload(report), **extra})


def run_solve(config: RunConfig):
    """Single configured run; writes report.csv, final_control.csv, summary.json."""
    files = _writable(_run_files(Path(config.out)))
    problem = problemmod.ControlProblem(build_spec(config))
    report = solvermod.run(problem, build_options(config))
    _write_run(files, report)
    return report


def _assemble_once(cache, mesh_n, pde_kind):
    """The operator of (mesh_n, pde_kind); the cache keeps only the last one assembled."""
    key = (mesh_n, pde_kind)
    if key not in cache:
        cache.clear()
        cache[key] = fem.assemble(fem.build_mesh(mesh_n), pde_kind)
    return cache[key]


def _sweep(cfgs, outputs, y_d=None):
    """Yield (config, problem, report) of each run of a sweep, run without fp residual.

    Every spec is built and every output path checked before the first
    run, so a bad later value or a file that cannot be written fails before
    any run solves or writes anything.  Consecutive runs on one mesh and
    operator share it through _assemble_once.
    """
    runs = [(cfg, build_spec(cfg, y_d=y_d)) for cfg in cfgs]
    _writable(outputs)
    cache = {}
    for cfg, spec in runs:
        problem = problemmod.ControlProblem(spec, pde=_assemble_once(cache, spec.mesh_n, spec.pde))
        yield cfg, problem, solvermod.run(problem, build_options(cfg), compute_fp_residual=False)


def run_table1(config: RunConfig, out=None):
    """Line-search strategy comparison: 8 BT weights plus BT-W and BT-0."""
    table = Path(out if out is not None else config.out) / "table1.csv"
    rows, reports = [], []
    cases = [("bt", w) for w in TABLE1_BT_WEIGHTS] + [("btw", 0.01), ("bt0", 0.01)]
    cfgs = [replace(config, strategy=kind, lhat0=lhat0) for kind, lhat0 in cases]
    for cfg, problem, report in _sweep(cfgs, [table]):
        support, F_vertex = report.records[-1].support, vertex_rule_objective(problem, report.final_control)
        rows.append((report.final_F, support, report.pde_solves, cfg.lhat0, cfg.strategy, F_vertex))
        reports.append(report)
    header = ["F", "support", "pde_solves", "L_hat0", "strategy", "F_vertex"]
    _write_csv(table, header, list(zip(*rows)))
    return reports


def run_beta_sweep(config: RunConfig, betas=None, pareto=False, out=None):
    """Support-vs-beta sweep (unbounded controls) or the two-penalty trade-off sweep.

    Plain mode forces b = +inf and emits (beta, support) per run.  Pareto
    mode keeps the configured bound and runs both penalties over the beta
    grid, emitting (beta, f, support) series for each.
    """
    out = Path(out if out is not None else config.out)
    if pareto:
        betas = tuple(betas) if betas else PARETO_BETAS
        cfgs = [replace(config, penalty=kind, beta=b) for kind in ("l0", "l1") for b in betas]
        tables = {kind: out / f"pareto_{kind}.csv" for kind in ("l0", "l1")}
        reports = [report for _, _, report in _sweep(cfgs, tables.values())]
        all_reports = {"l0": reports[: len(betas)], "l1": reports[len(betas) :]}
        for kind, runs in all_reports.items():
            columns = [betas, [r.final_f for r in runs], [r.records[-1].support for r in runs]]
            _write_csv(tables[kind], ["beta", "f", "support"], columns)
        return all_reports

    betas = tuple(betas) if betas else TABLE2_BETAS
    cfgs = [replace(config, beta=b, bound=math.inf) for b in betas]
    table = out / "beta_sweep.csv"
    reports = [report for _, _, report in _sweep(cfgs, [table])]
    supports = [r.records[-1].support for r in reports]
    _write_csv(table, ["beta", "support"], [betas, supports])
    return reports


def run_mesh_study(config: RunConfig, n_list=None):
    """Same problem across mesh resolutions; emits (h, F, support, pde_solves)."""
    rows, reports = [], []
    n_list = n_list or MESH_STUDY_NS
    for n in n_list:
        if n < 4:
            raise ConfigError(f"mesh study needs n >= 4, got {n}")
        fem.check_mesh_fits(int(n))
    table = Path(config.out) / "mesh_study.csv"
    for _, problem, report in _sweep([replace(config, mesh_n=int(n)) for n in n_list], [table]):
        support, F_vertex = report.records[-1].support, vertex_rule_objective(problem, report.final_control)
        rows.append((problem.mesh.mesh_size, report.final_F, support, report.pde_solves, F_vertex))
        reports.append(report)
    _write_csv(table, ["h", "F", "support", "pde_solves", "F_vertex"], list(zip(*rows)))
    return reports


def run_unsolvable(config: RunConfig):
    """Constant-target configuration without a minimizer (Neumann operator).

    Reports the stationarity residual of the convexified solution (a constant
    control) for several prox weights, runs the solver, and measures the
    distance of the final control to the minimizer of the smooth part.
    """
    out = Path(config.out)
    alpha, beta = config.alpha, config.beta
    if not (alpha > 0 and beta > 0):
        raise ConfigError("the unsolvable configuration needs alpha > 0 and beta > 0")
    cfg = replace(config, pde="neumann", penalty="l0", bound=math.inf)
    spec = build_spec(cfg, y_d=problemmod.unsolvable_target(alpha, beta))
    fp_csv, *files = _writable([out / "unsolvable_fp.csv", *_run_files(out)])
    problem = problemmod.ControlProblem(spec)

    u_bar = fem.ControlField(problem.mesh, np.full(problem.mesh.num_triangles, math.sqrt(beta / alpha)))
    grad_bar = problem.value_and_grad(u_bar)[1]
    grad_dev = float(np.abs(grad_bar.values + math.sqrt(2 * alpha * beta)).max())
    fp_rows = [(L, solvermod.fp_residual(problem, u_bar, L, grad=grad_bar)) for L in UNSOLVABLE_WEIGHTS]
    _write_csv(fp_csv, ["L", "fp_residual"], list(zip(*fp_rows)))

    report = solvermod.run(problem, build_options(cfg))
    smooth_min = spec.y_d(0.0, 0.0) / (1.0 + alpha)
    dist = math.sqrt(
        problem.mesh.triangle_area * float(((report.final_control.values - smooth_min) ** 2).sum())
    )
    _write_run(files, report, grad_at_ubar_dev=grad_dev, smooth_minimizer=smooth_min,
               distance_to_smooth_minimizer=dist, fp_residuals={str(L): r for L, r in fp_rows})
    return report, fp_rows, dist


def run_switching(config: RunConfig, betas=None, out=None):
    """Two-band switching runs over a beta grid; emits overlap table and profiles."""
    out = Path(out if out is not None else config.out)
    betas = tuple(betas) if betas else SWITCHING_BETAS
    # each run's profile file is named by its beta's "%.12g" spelling
    spelled = [f"{b:.12g}" for b in betas]
    if len(set(spelled)) < len(spelled):
        raise ConfigError(f"switching betas must differ in 12 significant digits, got {' '.join(spelled)}")
    profiles = [out / f"switching_controls_beta{s}.csv" for s in spelled]
    rows, reports = [], []
    cfgs = [replace(config, penalty="switching", pde="dirichlet", beta=b, bound=math.inf) for b in betas]
    sweep = _sweep(cfgs, [*profiles, out / "switching.csv"], y_d=problemmod.switching_target)
    for (cfg, _, report), profile in zip(sweep, profiles):
        rows.append((cfg.beta, report.final_F, report.records[-1].support))
        write_control_csv(profile, report.final_control)
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
        problem = problemmod.ControlProblem(spec)
        for _ in range(4):
            u = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            du = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            _, grad = problem.value_and_grad(u)
            pair = problem.mesh.triangle_area * float(grad.values @ du.values)
            eps = 1e-5
            up = fem.ControlField(problem.mesh, u.values + eps * du.values)
            um = fem.ControlField(problem.mesh, u.values - eps * du.values)
            fd = (problem.eval_f(up) - problem.eval_f(um)) / (2 * eps)
            # np.maximum keeps a NaN ratio (max() would drop it), so a NaN gradient or difference fails
            worst = float(np.maximum(worst, abs(pair - fd) / max(abs(fd), 1e-14)))
    check("adjoint gradient vs finite differences", worst <= 1e-6, f"(worst rel {worst:.2e})")

    mesh = fem.build_mesh(8)
    check(
        "mesh counts",
        mesh.num_triangles == 128 and mesh.num_nodes == 81 and abs(mesh.triangle_area - 1 / 128) < 1e-15,
    )

    cfg = replace(config, mesh_n=8, ydzero=True, penalty="l0", pde="dirichlet")
    spec = build_spec(cfg)
    problem = problemmod.ControlProblem(spec)
    report = solvermod.run(problem, build_options(cfg))
    check("zero-target solve", report.final_F == 0.0 and report.iterations == 1)

    return all(results)
