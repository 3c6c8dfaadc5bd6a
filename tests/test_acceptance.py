"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7 (monotone decrease and step summability) applies to every run
logged by the other criteria, so solver reports are collected in a registry
and the criterion-7 test executes last in this module.
"""

import math
import time

import numpy as np

from l0control import experiments, fem, reference
from l0control.problem import (
    ControlProblem,
    ProblemSpec,
    default_target,
    make_problem,
    switching_target,
    unsolvable_target,
)
from l0control.prox import (
    ProxParams,
    fp_membership,
    prox_l0,
    separation_threshold,
)
from l0control.solver import SolverOptions, StepStrategy, fp_residual, run

SEED = 123457
N_INSTANCES = 10_000

# registry of (report, eta) pairs for the log-level criterion
RUN_LOG = []


def benchmark_spec(**kw):
    base = dict(alpha=0.01, beta=0.01, bound=4.0, penalty="l0", pde=fem.DIRICHLET_POISSON,
                y_d=default_target, mesh_n=10)
    base.update(kw)
    return ProblemSpec(**base)


def solve_logged(spec, strategy=None, **run_kw):
    problem = spec if isinstance(spec, ControlProblem) else make_problem(spec)
    options = SolverOptions(strategy=strategy or StepStrategy(kind="bt0", L_hat0=0.01),
                            **run_kw.pop("options", {}))
    report = run(problem, options, **run_kw)
    RUN_LOG.append((report, options.strategy.eta))
    return problem, report


def draw_l0_instances(rng, n):
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


def test_criterion_1_prox_oracle_suite():
    """10^4 randomized instances per operator: the solver's array maps match the brute-force reference."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = {}

    # prox_l0 (set-valued; every element must be a global minimizer)
    g, u, L, alpha, beta, b = draw_l0_instances(rng, N_INSTANCES)
    failures["prox_l0"] = int(reference.check_prox("l0", g, u, L, alpha, beta, b)[0].sum())

    # box_hard_threshold: minimize -q*u + u^2/2 + s*(u != 0), which is prox_l0
    # at g = -q, u = 0, L = 0, alpha = 1, beta = s
    q = rng.uniform(-3, 3, N_INSTANCES)
    s = rng.uniform(0, 2, N_INSTANCES)
    bb = rng.choice([0.6, 1.0, 1.4, math.inf], N_INSTANCES)
    q[np.isinf(bb)] = rng.uniform(-2.5, 2.5, int(np.isinf(bb).sum()))
    failures["box_hard_threshold"] = int(reference.check_prox("l0", -q, 0.0, 0.0, 1.0, s, bb)[0].sum())

    # prox_l1 (single-valued)
    g, u, L, alpha, gamma, b = draw_l0_instances(rng, N_INSTANCES)
    failures["prox_l1"] = int(reference.check_prox("l1", g, u, L, alpha, gamma, b)[0].sum())

    # prox_switch (paired)
    g1, g2, u1, u2, L, alpha, beta = (rng.uniform(lo, hi, N_INSTANCES) for lo, hi in
                                      ((-2, 2), (-2, 2), (-1, 1), (-1, 1), (0, 2), (0.01, 1), (0.01, 1)))
    failures["prox_switch"] = int(reference.check_prox("switching", (g1, g2), (u1, u2), L, alpha, beta)[0].sum())

    elapsed = time.perf_counter() - t0
    assert failures == {k: 0 for k in failures}, failures
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s (limit 10s)"
    print(f"\nACCEPTANCE 1 PASS: 4x{N_INSTANCES} prox instances match brute force ({elapsed:.1f}s)")


def test_criterion_2_sigma_separation_and_variational_inequality():
    """Every randomized prox output is 0 or at least sigma, and nonzero
    outputs satisfy the first-order inequality against all box points."""
    rng = np.random.default_rng(SEED)
    g, u, L, alpha, beta, b = draw_l0_instances(rng, N_INSTANCES)
    sep_violations = 0
    vi_violations = 0
    for i in range(N_INSTANCES):
        p = ProxParams(L[i], alpha[i], beta[i], b[i])
        sigma = separation_threshold(p)
        for v in prox_l0(g[i], u[i], p).values:
            if v != 0.0 and abs(v) < sigma - 1e-12:
                sep_violations += 1
            if v == 0.0:
                continue
            slope = g[i] + L[i] * (v - u[i]) + alpha[i] * v
            probes = [0.0, v + 1e-3, v - 1e-3]
            if not math.isinf(b[i]):
                probes += [-b[i], b[i]]
                probes = [min(max(w, -b[i]), b[i]) for w in probes]
            for w in probes:
                if slope * (w - v) < -1e-9:
                    vi_violations += 1
    assert sep_violations == 0
    assert vi_violations == 0
    print(f"\nACCEPTANCE 2 PASS: separation and variational inequality hold on {N_INSTANCES} instances")


def test_criterion_3_adjoint_gradient_check():
    """<grad f, du> matches central differences to 1e-6 relative, 20 pairs per operator."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for pde_kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        problem = ControlProblem(benchmark_spec(mesh_n=16, pde=pde_kind))
        pairs = 0
        while pairs < 20:
            u = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            du = fem.ControlField(problem.mesh, rng.normal(size=problem.mesh.num_triangles))
            _, grad = problem.value_and_grad(u)
            pairing = problem.mesh.triangle_area * float(grad.values @ du.values)
            eps = 1e-5
            fp = problem.eval_f(fem.ControlField(problem.mesh, u.values + eps * du.values))
            fm = problem.eval_f(fem.ControlField(problem.mesh, u.values - eps * du.values))
            fd = (fp - fm) / (2 * eps)
            if abs(fd) < 1e-3:
                # a near-orthogonal direction leaves nothing to compare at
                # this tolerance: difference-quotient rounding alone is ~1e-10
                continue
            pairs += 1
            rel = abs(pairing - fd) / abs(fd)
            worst = max(worst, rel)
            assert rel <= 1e-6, (pde_kind, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s (limit 5s)"
    print(f"\nACCEPTANCE 3 PASS: 40 gradient pairs within 1e-6 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_fem_convergence_order():
    """Manufactured Dirichlet solution contracts by at least 3.5 per mesh doubling."""
    t0 = time.perf_counter()
    errs = []
    for n in (16, 32, 64):
        mesh = fem.build_mesh(n)
        pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
        cent = fem.element_means(mesh, mesh.nodes)
        u = fem.ControlField(mesh, 2 * np.pi**2 * np.sin(np.pi * cent[:, 0]) * np.sin(np.pi * cent[:, 1]))
        y = pde.solve(fem.nodal_load(mesh, u.values))
        exact = fem.interpolate_nodal(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
        errs.append(fem.l2_norm_state(mesh, y - exact))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    elapsed = time.perf_counter() - t0
    assert r1 >= 3.5 and r2 >= 3.5, (r1, r2)
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 PASS: error contraction {r1:.2f}, {r2:.2f} (>= 3.5, {elapsed:.1f}s)")


# target values for the coarse-mesh study: (n, F, support, pde_solves)
MESH_STUDY_TARGETS = [
    (10, 3.145593, 0.365000, 42),
    (20, 4.286681, 0.428750, 39),
    (40, 4.850340, 0.437812, 54),
]


def test_criterion_5_mesh_study_coarse_rows():
    """Coarse-mesh benchmark rows: F within 1%, support within 0.02, solves within 50%.

    The support and solve-count agreement certifies the iteration dynamics.
    The objective used here is the Galerkin one, and the F sub-checks are
    expected to fail; they are reported in full rather than silently relaxed.
    The mesh-study CSV's F_vertex column (the interior vertex rule) is the
    closest cross-code metric, and it is still 10.6%/2.6%/0.7% above the
    targets at n = 10/20/40.  The cause is open (see the README).
    """
    t0 = time.perf_counter()
    failures = []
    measured = []
    for n, F_target, supp_target, pde_target in MESH_STUDY_TARGETS:
        problem, report = solve_logged(benchmark_spec(mesh_n=n))
        F, supp, pde = report.final_F, report.records[-1].support, report.pde_solves
        measured.append((n, F, supp, pde))
        if abs(F - F_target) / F_target > 0.01:
            failures.append(f"n={n}: F={F:.6f} not within 1% of {F_target}")
        if abs(supp - supp_target) > 0.02:
            failures.append(f"n={n}: support={supp:.6f} not within 0.02 of {supp_target}")
        if abs(pde - pde_target) > 0.5 * pde_target:
            failures.append(f"n={n}: pde_solves={pde} not within 50% of {pde_target}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert not failures, "; ".join(failures) + f" | measured {measured}"
    print(f"\nACCEPTANCE 5 PASS: coarse mesh rows reproduced ({elapsed:.1f}s)")


def test_discretization_robustness_mesh_study(tmp_path):
    """The paper's claim that the method is robust with respect to discretization.

    mesh-study's problem at n = 40/80/160/320: 7 iterations at every n, PDE
    solves within a band of 8 and within 10% of their median, F converging at
    least 3x faster per halving of h (O(h^2) gives 4x), and shrinking support
    increments.
    """
    t0 = time.perf_counter()
    reports = experiments.run_mesh_study(experiments.RunConfig(out=str(tmp_path)), n_list=(40, 80, 160, 320))
    iterations = [r.iterations for r in reports]
    solves = [r.pde_solves for r in reports]
    dF = np.abs(np.diff([r.final_F for r in reports]))
    dsupp = np.abs(np.diff([r.records[-1].support for r in reports]))
    assert iterations == [7] * 4, iterations
    assert max(solves) - min(solves) <= 8, solves
    assert np.all(np.abs(np.array(solves) - np.median(solves)) <= 0.1 * np.median(solves)), solves
    assert np.all(dF[:-1] >= 3.0 * dF[1:]), dF
    assert np.all(dsupp[:-1] > dsupp[1:]), dsupp
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nDISCRETIZATION PASS: {iterations[0]} iterations, solves {solves}, "
          f"F increments {dF.round(5).tolist()} ({elapsed:.1f}s)")


BETA_TREND_TARGETS = [(0.5, 0.0), (0.1, 0.068926), (0.05, 0.173892), (0.01, 0.444780)]


def test_criterion_6_beta_trend():
    """Support measures across the unconstrained beta sweep at n = 80."""
    t0 = time.perf_counter()
    worst = 0.0
    for beta, target in BETA_TREND_TARGETS:
        _, report = solve_logged(benchmark_spec(mesh_n=80, beta=beta, bound=math.inf))
        supp = report.records[-1].support
        worst = max(worst, abs(supp - target))
        assert abs(supp - target) <= 0.03, (beta, supp, target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 6 PASS: beta-sweep supports within 0.03 (worst {worst:.4f}, {elapsed:.1f}s)")


def test_criterion_8_unsolvable_configuration():
    """The convexified solution is stationary for no tested weight, and the
    iteration converges to the minimizer of the smooth part."""
    t0 = time.perf_counter()
    alpha = beta = 0.01
    spec = benchmark_spec(alpha=alpha, beta=beta, bound=math.inf, pde=fem.NEUMANN_HELMHOLTZ,
                          y_d=unsolvable_target(alpha, beta), mesh_n=40)
    problem = ControlProblem(spec)
    ubar = fem.ControlField(problem.mesh, np.full(problem.mesh.num_triangles, math.sqrt(beta / alpha)))
    grad = problem.value_and_grad(ubar)[1]
    residuals = {L: fp_residual(problem, ubar, L, grad=grad) for L in (0.01, 0.1, 1.0, 10.0)}
    for L, r in residuals.items():
        assert r > 1e-3, (L, r)

    _, report = solve_logged(problem)
    smooth_min = spec.y_d(0.0, 0.0) / (1 + alpha)
    dist = math.sqrt(problem.mesh.triangle_area
                     * float(((report.final_control.values - smooth_min) ** 2).sum()))
    elapsed = time.perf_counter() - t0
    assert dist <= 1e-3, dist
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 8 PASS: residuals {min(residuals.values()):.2e}.. > 1e-3, "
          f"final distance {dist:.2e} ({elapsed:.1f}s)")


def test_criterion_9_pareto_dominance():
    """Across the geometric beta grid, every l1 solution with positive support
    is dominated by some l0 solution in (f, support)."""
    t0 = time.perf_counter()
    betas = [0.5 * 0.7**l for l in range(16)]
    points = {}
    for kind in ("l0", "l1"):
        pts = []
        for beta in betas:
            _, report = solve_logged(
                benchmark_spec(mesh_n=40, beta=beta, penalty=kind),
                compute_fp_residual=False,
            )
            pts.append((report.final_f, report.records[-1].support))
        points[kind] = pts
    undominated = []
    for beta, (f1, m1) in zip(betas, points["l1"]):
        if m1 <= 0.0:
            continue
        if not any(
            f0 <= f1 and m0 <= m1 and (f0 < f1 or m0 < m1) for f0, m0 in points["l0"]
        ):
            undominated.append((beta, f1, m1))
    elapsed = time.perf_counter() - t0
    assert not undominated, undominated
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 PASS: all positive-support l1 points dominated ({elapsed:.1f}s)")


def test_criterion_10_switching_overlap():
    """Large beta removes the overlap exactly; small beta leaves a large one."""
    t0 = time.perf_counter()
    overlaps = {}
    for beta in (0.1, 0.001):
        spec = ProblemSpec(alpha=1e-5, beta=beta, bound=math.inf, penalty="switching",
                           pde=fem.DIRICHLET_POISSON, y_d=switching_target, mesh_n=40)
        _, report = solve_logged(spec)
        overlaps[beta] = report.records[-1].support
    elapsed = time.perf_counter() - t0
    assert overlaps[0.1] == 0.0, overlaps
    assert overlaps[0.001] > 0.3, overlaps
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10 PASS: overlap {overlaps[0.1]} at beta=0.1, "
          f"{overlaps[0.001]:.3f} at beta=0.001 ({elapsed:.1f}s)")


def test_criterion_11_fixed_point_monotonicity_in_weight():
    """Membership in the stationarity conditions persists at 2L and 10L."""
    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 1000:
        alpha = rng.uniform(0.01, 2)
        beta = rng.uniform(0.01, 2)
        b = float(rng.choice([0.7, 1.3, math.inf]))
        L = rng.uniform(0.0, 2)
        p = ProxParams(L, alpha, beta, b)
        w = L + alpha
        root = math.sqrt(2 * beta / w)
        candidates = [(0.0, rng.uniform(-0.99, 0.99) * w * min(root, b / 2 + beta / (w * b) if b < math.inf else root))]
        if root <= b:
            m = rng.uniform(root, min(b, 3 * root))
            sign = float(rng.choice([-1.0, 1.0]))
            candidates.append((sign * m, -alpha * sign * m))
        if b < math.inf:
            edge = alpha * b if root <= b else w * (b / 2 + beta / (w * b)) - L * b
            candidates.append((-b, edge + rng.uniform(0, 1)))
            candidates.append((b, -(edge + rng.uniform(0, 1))))
        for u, g in candidates:
            if not fp_membership(u, g, p):
                continue
            checked += 1
            for L2 in (2 * L + 1e-6, 10 * L + 1e-5):
                assert fp_membership(u, g, ProxParams(L2, alpha, beta, b)), (u, g, L, L2, alpha, beta, b)
    print(f"\nACCEPTANCE 11 PASS: {checked} memberships persist at 2L and 10L")


def test_criterion_12_budget_accounting(solve_calls):
    """A scripted 3-iteration run consumes exactly 2 per iteration plus one per trial."""
    problem = ControlProblem(benchmark_spec(mesh_n=8))
    options = SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01), max_iterations=3)
    report = run(problem, options, compute_fp_residual=False)
    RUN_LOG.append((report, options.strategy.eta))
    trials = sum(report.column("trials"))
    assert report.iterations == 3
    assert report.pde_solves == 2 * 3 + trials
    assert len(solve_calls) == report.pde_solves
    print(f"\nACCEPTANCE 12 PASS: pde_solves = 2*3 + {trials}")


def test_criterion_7_monotone_decrease_and_summability():
    """F never increases and the squared steps are bounded by (F0 - F_end)/eta
    on every run logged by this module (runs last by position)."""
    assert RUN_LOG, "no runs were logged"
    for report, eta in RUN_LOG:
        Fs = [report.initial_F] + report.column("F")
        for a, b in zip(Fs, Fs[1:]):
            assert b <= a + 1e-14
        steps = sum(s**2 for s in report.column("step_norm"))
        assert steps <= (Fs[0] - Fs[-1]) / eta + 1e-12
    print(f"\nACCEPTANCE 7 PASS: {len(RUN_LOG)} logged runs monotone and summable")
