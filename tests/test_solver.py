"""Thresholding iteration: steps, strategies, logging, diagnostics."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import benchmark_spec, separation_threshold
from test_fem import mass_matrix

from l0control import experiments, fem, solver
from l0control.problem import (
    ControlProblem,
    ProblemSpec,
    SwitchingControl,
    switching_target,
    unsolvable_target,
    zero_target,
)
from l0control.prox import (
    ProxParams,
    prox_l0,
    prox_l0_array,
    prox_l0_set_arrays,
    prox_l1_array,
    prox_switch_arrays,
)
from l0control.solver import (
    Evaluation,
    NonFiniteError,
    SolverOptions,
    StepSearchError,
    StepStrategy,
    descent_ok,
    fp_residual,
    iht_step,
    run,
    select_step,
)


class ToyProblem:
    """One control field on the 2-cell mesh with f(u) = (Lf/2)||u - t||^2.

    The gradient Lipschitz constant is exactly Lf, so descent decisions are
    predictable and strategy traces can be checked by hand.
    """

    def __init__(self, alpha=1.0, beta=1.0, bound=2.0, lipschitz=1.0, target=(1.0, -1.0)):
        self.spec = ProblemSpec(alpha=alpha, beta=beta, bound=bound, penalty="l0",
                                pde=fem.DIRICHLET_POISSON, y_d=zero_target, mesh_n=1)
        self.mesh = fem.build_mesh(1)
        self.lipschitz = lipschitz
        self.target = np.asarray(target, dtype=float)

    def zero_control(self):
        return fem.ControlField(self.mesh, np.zeros(2))

    def eval_f(self, u):
        d = u.values - self.target
        return 0.5 * self.lipschitz * self.mesh.triangle_area * float(d @ d)

    def value_and_grad(self, u):
        d = u.values - self.target
        f = 0.5 * self.lipschitz * self.mesh.triangle_area * float(d @ d)
        return f, fem.ControlField(self.mesh, self.lipschitz * d)

    def eval_g(self, u):
        s = self.spec
        quad = 0.5 * s.alpha * u.norm_sq(1.0)
        return quad + s.beta * u.support_measure()


# ---------------------------------------------------------------------------
# strategy containers


def test_strategy_defaults_match_stated_values():
    s = StepStrategy()
    assert s.theta == 0.5 and s.eta == 1e-4 and s.I_max == 40


def test_strategy_validation():
    with pytest.raises(ValueError):
        StepStrategy(kind="newton")
    with pytest.raises(ValueError):
        StepStrategy(theta=1.0)
    with pytest.raises(ValueError):
        StepStrategy(eta=0.0)
    with pytest.raises(ValueError):
        StepStrategy(I_max=0)
    with pytest.raises(ValueError):
        StepStrategy(L_hat0=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(stop_tol=0.0)


@pytest.mark.parametrize("value", [1.5, 2.5, 4.0, True])
@pytest.mark.parametrize("build, name", [
    (lambda n: StepStrategy(I_max=n), "I_max"),
    (lambda n: SolverOptions(max_iterations=n), "max_iterations"),
    (lambda n: benchmark_spec(mesh_n=n), "mesh_n"),
], ids=["I_max", "max_iterations", "mesh_n"])
def test_count_settings_reject_non_integers(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value}$"):
        build(value)


# ---------------------------------------------------------------------------
# descent test


def test_descent_ok_cases():
    mesh = fem.build_mesh(1)
    u = fem.ControlField(mesh, np.zeros(2))
    v = fem.ControlField(mesh, np.ones(2))
    at_u = Evaluation(u, 1.0, 0.0)
    assert descent_ok(at_u, Evaluation(u, 1.0, 0.0), 1e-4)             # no move, no change
    assert not descent_ok(at_u, Evaluation(v, 1.1, 0.0), 1e-4)         # ascent rejected
    assert descent_ok(at_u, Evaluation(v, 1.0 - 1e-3, 0.0), 1e-4)      # 1e-4*1 <= 1e-3


# ---------------------------------------------------------------------------
# the exact subproblem step


def test_iht_step_zero_gradient_zero_point():
    p = ToyProblem()
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.zeros(2))
    assert np.all(iht_step(p, u, grad, 1.0).values == 0.0)


def test_iht_step_matches_scalar_prox():
    p = ToyProblem(alpha=1.0, beta=1.0, bound=2.0)
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.full(2, -3.0))
    out = iht_step(p, u, grad, 1.0)
    assert out.values == pytest.approx([1.5, 1.5])


def test_iht_step_rejects_degenerate_weights():
    p = ToyProblem(alpha=0.0, bound=math.inf)
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.ones(2))
    with pytest.raises(ValueError):
        iht_step(p, u, grad, -1.0)
    with pytest.raises(ValueError):
        iht_step(p, u, grad, 0.0)


def test_iht_step_is_global_subproblem_minimizer(rng):
    # the prox output beats 10^4 random feasible controls on the 2x2 mesh
    spec = benchmark_spec(mesh_n=2, alpha=0.3, beta=0.2, bound=1.5)
    problem = ControlProblem(spec)
    mesh = problem.mesh
    area = mesh.triangle_area

    def subproblem_value(vals, grad, u_k, L):
        s = spec
        return float(
            area
            * (
                grad * (vals - u_k)
                + 0.5 * L * (vals - u_k) ** 2
                + 0.5 * s.alpha * vals**2
                + s.beta * (vals != 0.0)
            ).sum()
        )

    for trial in range(3):
        grad = rng.normal(size=mesh.num_triangles)
        u_k = rng.uniform(-1, 1, size=mesh.num_triangles)
        L = rng.uniform(0, 2)
        out = iht_step(problem, fem.ControlField(mesh, u_k), fem.ControlField(mesh, grad), L)
        best = subproblem_value(out.values, grad, u_k, L)
        samples = rng.uniform(-1.5, 1.5, size=(10_000, mesh.num_triangles))
        samples[rng.uniform(size=samples.shape) < 0.3] = 0.0
        for vals in samples:
            assert best <= subproblem_value(vals, grad, u_k, L) + 1e-12


# ---------------------------------------------------------------------------
# the one prox dispatch against the former per-penalty branches


def _branch_iht_step(spec, u_k, grad, L):
    """Oracle: the step as three per-penalty branches, one array map each."""
    if spec.penalty == "l0":
        return prox_l0_array(grad.values, u_k.values, L, spec.alpha, spec.beta, spec.bound)
    if spec.penalty == "l1":
        return prox_l1_array(grad.values, u_k.values, L, spec.alpha, spec.beta, spec.bound)
    return np.stack(prox_switch_arrays(grad.u1, grad.u2, u_k.u1, u_k.u2, L, spec.alpha, spec.beta))


def _branch_fp_residual(spec, u, grad, L):
    """Oracle: the residual as three per-penalty branches."""
    w = L + spec.alpha
    if spec.penalty == "l0":
        zero_ok, v, v_ok = prox_l0_set_arrays(grad.values, u.values, L, spec.alpha, spec.beta, spec.bound)
        dist = np.where(zero_ok, np.abs(u.values), np.inf)
        dist = np.minimum(dist, np.where(v_ok, np.abs(u.values - v), np.inf))
        return w * float(dist.max(initial=0.0))
    if spec.penalty == "l1":
        v = prox_l1_array(grad.values, u.values, L, spec.alpha, spec.beta, spec.bound)
        return w * float(np.abs(u.values - v).max(initial=0.0))
    v1, v2 = prox_switch_arrays(grad.u1, grad.u2, u.u1, u.u2, L, spec.alpha, spec.beta)
    return w * float(max(np.abs(u.u1 - v1).max(initial=0.0), np.abs(u.u2 - v2).max(initial=0.0)))


def _bits(x):
    """Bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _edge_cells(L, alpha, beta, bound, rng):
    """(u, g) per cell: every shifted argument q = (L*u - g)/(L+alpha) that ends
    on a threshold of one of the three maps, 1e-13 and 2e-12 either side of it,
    on and past the bound, at +-0.0, with u = +-0.0; then random cells."""
    w = L + alpha
    thresholds = [math.sqrt(2.0 * beta / w), beta / w]
    if not math.isinf(bound):
        thresholds += [0.5 * bound + beta / w / bound, bound, 1.5 * bound]
    qs = [0.0, -0.0] + [t + d for t in thresholds for d in (0.0, 1e-13, -1e-13, 2e-12, -2e-12)]
    qs += [-q for q in qs[2:]]
    # with u = +-0.0 and w a power of two, q = -g/w holds exactly
    u = np.array([0.0, -0.0] * len(qs))
    g = np.repeat(-w * np.array(qs), 2)
    u = np.concatenate([u, rng.normal(size=40)])
    g = np.concatenate([g, rng.normal(size=40)])
    return u, g


@pytest.mark.parametrize("L, alpha, beta, bound", [
    (0.75, 0.25, 0.3, math.inf),
    (0.75, 0.25, 0.3, 0.5),      # sqrt(2s) > b: the bounded zero threshold
    (0.0, 0.5, 0.1, 2.0),        # L = 0 with alpha > 0
    (1.5, 0.5, 0.02, 1.0),
])
@pytest.mark.parametrize("penalty", ["l0", "l1", "switching"])
def test_prox_dispatch_matches_per_penalty_branches_bit_for_bit(penalty, L, alpha, beta, bound):
    rng = np.random.default_rng(7)
    # a switching problem takes no bound; its edge cells are still those of the bound
    spec = ProblemSpec(alpha=alpha, beta=beta, bound=math.inf if penalty == "switching" else bound,
                       penalty=penalty, mesh_n=4)
    problem = SimpleNamespace(spec=spec)
    u, g = _edge_cells(L, alpha, beta, bound, rng)
    # the step and the residual never read the mesh
    if penalty == "switching":
        # each edge cell beside itself, its other-signed-u twin and a random partner
        i = np.tile(np.arange(u.size), 3)
        j = np.concatenate([np.arange(u.size), np.arange(u.size) ^ 1, rng.permutation(u.size)])
        u_k = SwitchingControl(None, np.stack([u[i], u[j]]))
        grad = SwitchingControl(None, np.stack([g[i], g[j]]))
    else:
        u_k, grad = fem.ControlField(None, u), fem.ControlField(None, g)
    step = iht_step(problem, u_k, grad, L)
    assert type(step) is type(u_k) and step.values.shape == u_k.values.shape
    np.testing.assert_array_equal(_bits(step.values), _bits(_branch_iht_step(spec, u_k, grad, L)))

    def residuals_agree(at, g_at):
        return _bits(fp_residual(problem, at, L, grad=g_at)) == _bits(_branch_fp_residual(spec, at, g_at, L))

    # the residual at the edge cells, at the step they give and at random
    # controls, over the whole field and one cell (strip) at a time
    for values in [u_k.values, step.values, rng.normal(size=u_k.values.shape)]:
        at = replace(u_k, values=values)
        assert residuals_agree(at, grad)
        for c in range(values.shape[-1]):
            cell = np.s_[..., c:c + 1]
            assert residuals_agree(replace(at, values=values[cell]), replace(grad, values=grad.values[cell])), c


@pytest.mark.parametrize("n", [128, 129, 181])  # 2n^2 cells: exactly one block, one cell over, several blocks
@pytest.mark.parametrize("penalty", ["l0", "l1", "switching"])
def test_iht_step_in_blocks_equals_the_whole_field_selection(penalty, n):
    rng = np.random.default_rng(n)
    L, alpha, beta, bound = 0.75, 0.25, 0.3, 0.5
    spec = ProblemSpec(alpha=alpha, beta=beta, bound=math.inf if penalty == "switching" else bound,
                       penalty=penalty, mesh_n=4)
    # the edge cells (threshold ties and their neighbours) spread over every block, random cells between
    cells = 2 * n * n
    u, g = rng.normal(size=(2, 2, cells))
    edge_u, edge_g = _edge_cells(L, alpha, beta, bound, rng)
    at = rng.choice(cells, size=(2, edge_u.size), replace=False)
    u[:, at], g[:, at] = edge_u, edge_g
    if penalty == "switching":
        # 2n^2 strips per control: the step never reads the mesh
        u_k, grad = SwitchingControl(None, u), SwitchingControl(None, g)
    else:
        u_k, grad = fem.ControlField(None, u[0]), fem.ControlField(None, g[0])
    zero_ok, v, _ = solver._prox_sets(spec, u_k.values, grad.values, L)
    whole = np.where(zero_ok, 0.0, v)
    assert (cells == fem.BLOCK_CELLS) == (n == 128)
    step = iht_step(SimpleNamespace(spec=spec), u_k, grad, L)
    assert type(step) is type(u_k)
    np.testing.assert_array_equal(_bits(step.values), _bits(whole))


def _one_pass_fp_residual(spec, u, grad, L):
    """Oracle: the residual's one formula over the whole field at once."""
    zero_ok, v, v_ok = solver._prox_sets(spec, u.values, grad.values, L)
    dist = np.minimum(np.where(zero_ok, np.abs(u.values), np.inf), np.where(v_ok, np.abs(u.values - v), np.inf))
    return (L + spec.alpha) * float(dist.max(initial=0.0))


@pytest.mark.parametrize("n", [4, 40, 320])  # 2n^2 cells: 32 and 3,200 in one block, 204,800 in 7
@pytest.mark.parametrize("penalty", ["l0", "l1", "switching"])
def test_fp_residual_in_blocks_equals_the_one_pass_formula(penalty, n, monkeypatch):
    rng = np.random.default_rng(n)
    L, alpha, beta, bound = 0.75, 0.25, 0.3, 0.5
    spec = ProblemSpec(alpha=alpha, beta=beta, bound=math.inf if penalty == "switching" else bound,
                       penalty=penalty, mesh_n=4)
    problem = SimpleNamespace(spec=spec)
    cells = 2 * n * n
    u, g = rng.normal(size=(2, 2, cells))
    edge_u, edge_g = _edge_cells(L, alpha, beta, bound, rng)
    # as many edge cells as the field holds, at distinct cells in both rows
    m = min(edge_u.size, cells // 2)
    at = rng.choice(cells, size=(2, m), replace=False)
    u[:, at], g[:, at] = edge_u[:m], edge_g[:m]
    make = SwitchingControl if penalty == "switching" else lambda mesh, v: fem.ControlField(mesh, v[0])
    u_k, grad = make(None, u), make(None, g)
    # the controls: the edge cells, their prox step (residual 0 at the cells it keeps) and each with
    # one cell of its largest distance in the first, a middle and the last block
    controls = [u_k, iht_step(problem, u_k, grad, L)]
    for c in (0, cells // 2, cells - 1):
        values = u_k.values.copy()
        values[..., c] = 50.0
        controls.append(replace(u_k, values=values))
    # and a NaN gradient in the last cell, whose residual (inf or NaN by penalty) the blocks must keep
    nan_grad = replace(grad, values=grad.values.copy())
    nan_grad.values[..., cells - 1] = np.nan
    # the default blocks, and blocks of a fifth of the field so that every field takes five
    for block in (fem.BLOCK_CELLS, cells // 5 + 1):
        monkeypatch.setattr(fem, "BLOCK_CELLS", block)
        for at_u, g_at in [(c, grad) for c in controls] + [(u_k, nan_grad)]:
            with np.errstate(invalid="ignore"):
                got, want = fp_residual(problem, at_u, L, grad=g_at), _one_pass_fp_residual(spec, at_u, g_at, L)
            assert _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want)), (block, got, want)


# ---------------------------------------------------------------------------
# step-size selection traces (hand-run on the toy problem)


def test_select_step_fixed_applies_without_test():
    p = ToyProblem(lipschitz=1.0)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    strat = StepStrategy(kind="fixed", L_fixed=2.0)
    L, ev_next, trials = select_step(p, strat, ev, grad)
    assert L == 2.0 and trials == 1
    # the one trial is evaluated, f and g, and handed back
    assert ev_next.f == p.eval_f(ev_next.u) and ev_next.g == p.eval_g(ev_next.u)
    expect = prox_l0(grad.values[0], 0.0, ProxParams(2.0, 1.0, 1.0, 2.0)).canonical
    assert ev_next.u.values == pytest.approx([expect, expect])


def test_select_step_bt_accepts_initial_when_descending():
    # Lf = 0.2 < alpha = 1: even L = 0 descends, so BT accepts L_hat0 at once
    p = ToyProblem(lipschitz=0.2)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    L, _, trials = select_step(p, StepStrategy(kind="bt", L_hat0=0.01), ev, grad)
    assert L == 0.01 and trials == 1


def test_select_step_bt_doubles_until_accepted():
    # Lf = 30 forces several weight increases before the decrease condition holds
    p = ToyProblem(lipschitz=30.0, target=(0.5, 0.5), beta=0.01)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    L, _, trials = select_step(p, StepStrategy(kind="bt", L_hat0=1.0), ev, grad)
    assert L > 1.0
    assert trials == int(round(math.log2(L / 1.0))) + 1
    # the accepted weight survives its own descent test by construction
    u2 = iht_step(p, u, grad, L)
    assert descent_ok(ev, Evaluation(u2, p.eval_f(u2), p.eval_g(u2)), 1e-4)


def test_select_step_widening_keeps_last_accepted():
    # Lf small: widening succeeds I_max times; with I_max=1 the trace is
    # L_hat0 accepted (trial 1), theta*L_hat0 accepted (trial 2), stop
    p = ToyProblem(lipschitz=0.2)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    strat = StepStrategy(kind="btw", L_hat0=0.01, I_max=1)
    L, _, trials = select_step(p, strat, ev, grad)
    assert L == pytest.approx(0.005)
    assert trials == 2


def test_select_step_widening_runs_all_imax_when_everything_descends():
    p = ToyProblem(lipschitz=0.2)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    strat = StepStrategy(kind="btw", L_hat0=0.01, I_max=5)
    L, _, trials = select_step(p, strat, ev, grad)
    assert L == pytest.approx(0.01 * 0.5**5)
    assert trials == 6


def test_select_step_zero_first_accepts_zero():
    p = ToyProblem(lipschitz=0.2)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    L, _, trials = select_step(p, StepStrategy(kind="bt0", L_hat0=0.01), ev, grad)
    assert L == 0.0 and trials == 1


def test_select_step_zero_first_skips_illegal_zero():
    # alpha = 0 and no bound: the L = 0 subproblem is not coercive
    p = ToyProblem(alpha=0.0, bound=math.inf, lipschitz=0.2, beta=0.05)
    u = p.zero_control()
    _, grad = p.value_and_grad(u)
    ev = Evaluation(u, p.eval_f(u), p.eval_g(u))
    L, _, trials = select_step(p, StepStrategy(kind="bt0", L_hat0=1.0), ev, grad)
    assert L > 0.0


def test_select_step_raises_on_inconsistent_objective():
    class Lying(ToyProblem):
        def eval_f(self, u):
            return 1e6  # objective never improves, gradient says otherwise

    p = Lying(lipschitz=1.0)
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.full(2, -3.0))
    with pytest.raises(StepSearchError):
        select_step(p, StepStrategy(kind="bt", L_hat0=0.01), Evaluation(u, 1.0, 0.0), grad)


def test_select_step_flat_objective_accepts_zero_move_at_large_weight():
    # an exactly flat objective is handled without the fallback: once the
    # weight is large enough the prox returns the current point and the
    # decrease condition holds as 0 <= 0
    class Flat(ToyProblem):
        def eval_f(self, u):
            return 7.0

    p = Flat(lipschitz=1.0)
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.full(2, -3.0))
    ev = Evaluation(u, 7.0, p.eval_g(u))
    L, ev_next, trials = select_step(p, StepStrategy(kind="bt", L_hat0=0.01), ev, grad, flat_tol=1e-12)
    assert np.all(ev_next.u.values == u.values)
    assert trials < solver.MAX_INCREASES


def test_select_step_stagnation_returns_zero_move():
    # objective stuck epsilon above F_k for every trial: numerically
    # stationary, reported as a zero step instead of a failure
    class AlmostFlat(ToyProblem):
        def eval_f(self, u):
            return 7.0 + 1e-13

    p = AlmostFlat(lipschitz=1.0)
    u = p.zero_control()
    grad = fem.ControlField(p.mesh, np.full(2, -3.0))
    ev = Evaluation(u, 7.0, p.eval_g(u))
    L, ev_next, trials = select_step(p, StepStrategy(kind="bt", L_hat0=0.01), ev, grad, flat_tol=1e-12)
    # the flat exit hands back the record it was given, evaluating nothing more
    assert ev_next is ev
    assert ev_next.u is u
    assert ev_next.F == 7.0 + p.eval_g(u)
    assert ev_next.g == p.eval_g(u)
    assert trials == solver.MAX_INCREASES + 1
    with pytest.raises(StepSearchError):
        select_step(p, StepStrategy(kind="bt", L_hat0=0.01), ev, grad, flat_tol=1e-16)


# ---------------------------------------------------------------------------
# full runs


def test_run_zero_target_terminates_immediately():
    problem = ControlProblem(benchmark_spec(mesh_n=6, y_d=zero_target))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01)))
    assert report.final_F == 0.0
    assert report.iterations == 1
    assert report.termination == solver.TOLERANCE
    assert np.all(report.final_control.values == 0.0)
    assert report.fp_residual == 0.0


def test_run_benchmark_coarse_logs_and_invariants(solve_calls):
    problem = ControlProblem(benchmark_spec(mesh_n=10))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01)))
    eta = 1e-4
    Fs = [report.initial_F] + report.column("F")
    assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))
    assert sum(s**2 for s in report.column("step_norm")) <= (Fs[0] - Fs[-1]) / eta + 1e-12
    # sigma-separation of every logged iterate is checked on the final one
    sigma = separation_threshold(
        ProxParams(report.records[-1].L, problem.spec.alpha, problem.spec.beta, problem.spec.bound)
    )
    nz = report.final_control.values[report.final_control.values != 0.0]
    assert np.abs(nz).min() >= sigma - 1e-12
    # chi summability bound from the descent condition
    sigma_min = min(
        separation_threshold(ProxParams(r.L, problem.spec.alpha, problem.spec.beta, problem.spec.bound))
        for r in report.records
    )
    assert sum(report.column("chi_dist")) <= (Fs[0] - Fs[-1]) / (eta * sigma_min**2) + 1e-12
    # the paper's count: 2 per iteration plus one per trial; the final
    # residual's gradient costs 2 more solves that it leaves out
    assert report.pde_solves == 2 * report.iterations + sum(report.column("trials"))
    assert len(solve_calls) == report.pde_solves + 2
    # converged run is nearly stationary at its terminal weight
    assert report.fp_residual <= 1e-6


def test_run_sigma_separation_every_iteration():
    problem = ControlProblem(benchmark_spec(mesh_n=8))
    options = SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01))
    u = problem.zero_control()
    _, grad = problem.value_and_grad(u)
    ev = Evaluation(u, problem.eval_f(u), problem.eval_g(u))
    for _ in range(6):
        L, ev, _ = select_step(problem, options.strategy, ev, grad)
        sigma = separation_threshold(ProxParams(L, problem.spec.alpha, problem.spec.beta, problem.spec.bound))
        nz = ev.u.values[ev.u.values != 0.0]
        if nz.size:
            assert np.abs(nz).min() >= sigma - 1e-12
        _, grad = problem.value_and_grad(ev.u)


def test_run_fixed_strategy_counts_violations():
    # fixed weight far below the toy Lipschitz constant: the iteration
    # overshoots and the objective increases, which is logged, not enforced
    p = ToyProblem(lipschitz=8.0, target=(0.5, -0.5), beta=0.01, bound=2.0)
    report = run(p, SolverOptions(strategy=StepStrategy(kind="fixed", L_fixed=1.0), max_iterations=12))
    assert report.monotonicity_violations > 0
    assert all(r.trials == 1 for r in report.records)
    assert report.pde_solves == 3 * report.iterations


class NaNObjectiveProblem(ToyProblem):
    """The toy problem with an objective that evaluates to NaN off the start point."""

    gradients = trials = 0

    def value_and_grad(self, u):
        self.gradients += 1
        return super().value_and_grad(u)

    def eval_f(self, u):
        self.trials += 1
        return math.nan


@pytest.mark.parametrize("strategy", [StepStrategy(kind="fixed", L_fixed=1.0),
                                      StepStrategy(kind="bt0", L_hat0=0.01)])
def test_run_stops_on_non_finite_objective(strategy):
    problem = NaNObjectiveProblem(lipschitz=2.0, target=(0.5, -0.5), beta=0.01, bound=2.0)
    with pytest.raises(NonFiniteError, match="trial weight"):
        run(problem, SolverOptions(strategy=strategy, max_iterations=50))
    # the first NaN trial ends the run, whatever the step rule: no 50
    # iterations of F=nan for the fixed weight, no walk up the whole weight
    # ladder for BT-0
    assert (problem.gradients, problem.trials) == (1, 1)


def count_calls(obj, *names):
    """Replace each named method of obj by a wrapper that counts its calls; returns the counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _method=getattr(obj, name)):
            counts[_name] += 1
            return _method(*args)
        setattr(obj, name, counted)
    return counts


def test_run_evaluates_g_once_per_trial_and_at_the_start_point():
    # the loop takes the accepted trial's f and g, and a flat exit the current
    # point's: it evaluates g itself only at the start; f runs once per trial,
    # the gradient once per iteration and once more for the final residual
    bt0 = StepStrategy(kind="bt0", L_hat0=0.01)
    for p, options in [
        (ToyProblem(lipschitz=2.0, target=(0.5, -0.5), beta=0.01, bound=2.0), SolverOptions(strategy=bt0)),
        # the flat exit of test_run_flat_exit_takes_the_residual_at_the_last_moving_weight
        (ControlProblem(benchmark_spec(mesh_n=16)), SolverOptions(strategy=bt0, stop_tol=1e-16)),
    ]:
        calls = count_calls(p, "eval_f", "eval_g", "value_and_grad")
        report = run(p, options)
        assert report.termination == solver.TOLERANCE and report.iterations > 1
        trials = sum(report.column("trials"))
        assert calls == {"eval_f": trials, "eval_g": 1 + trials, "value_and_grad": report.iterations + 1}


def test_run_flat_exit_takes_the_residual_at_the_last_moving_weight():
    # at tol = 1e-16 the run reaches a stationary iterate whose whole weight
    # ladder is rejected: the last step stays put, so it is logged, and the
    # residual taken, at the weight that produced the final control, not at
    # the ladder's top weight
    problem = ControlProblem(benchmark_spec(mesh_n=16))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01), stop_tol=1e-16))
    last, moved = report.records[-1], report.records[-2]
    assert last.step_norm == 0.0 and last.trials > solver.MAX_INCREASES
    assert moved.step_norm > 0.0
    assert report.termination == solver.TOLERANCE
    assert report.fp_residual_L == last.L == moved.L
    assert report.fp_residual <= 1e-6


BT0 = StepStrategy(kind="bt0", L_hat0=0.01)


@pytest.mark.parametrize("spec_kw, strategy", [
    ({}, BT0),
    ({"penalty": "l1", "bound": math.inf}, BT0),
    ({"penalty": "switching", "bound": math.inf, "alpha": 1e-5, "y_d": switching_target, "mesh_n": 8}, BT0),
    ({"pde": fem.NEUMANN_HELMHOLTZ}, BT0),
    ({}, StepStrategy(kind="fixed", L_fixed=1.0)),
], ids=["l0", "l1", "switching", "l0-neumann", "fixed"])
def test_reported_solves_are_the_solves_performed(spec_kw, strategy, solve_calls):
    problem = ControlProblem(benchmark_spec(**spec_kw))
    report = run(problem, SolverOptions(strategy=strategy, max_iterations=20), compute_fp_residual=False)
    assert len(solve_calls) == report.pde_solves == report.records[-1].pde_solves
    trials = np.cumsum(report.column("trials"))
    assert report.column("pde_solves") == [2 * k + t for k, t in enumerate(trials, start=1)]
    # diagnostics after the run solve the PDE but are not in the paper's count
    pde_solves = report.pde_solves
    experiments.vertex_rule_objective(problem, report.final_control)
    fp_residual(problem, report.final_control, report.records[-1].L)
    assert len(solve_calls) == pde_solves + 1 + 2
    assert report.pde_solves == pde_solves


def test_run_stops_on_non_finite_gradient():
    class NaNGradientProblem(ToyProblem):
        def value_and_grad(self, u):
            f, grad = super().value_and_grad(u)
            return f, fem.ControlField(self.mesh, np.full(2, math.nan))

    with pytest.raises(NonFiniteError, match="gradient"):
        run(NaNGradientProblem(), SolverOptions(strategy=StepStrategy(kind="fixed", L_fixed=1.0)))


def test_run_fixed_strategy_above_lipschitz_is_monotone():
    p = ToyProblem(lipschitz=0.5, target=(1.2, -0.8), beta=0.05, bound=2.0)
    report = run(p, SolverOptions(strategy=StepStrategy(kind="fixed", L_fixed=1.0), max_iterations=200))
    assert report.monotonicity_violations == 0
    Fs = [report.initial_F] + report.column("F")
    assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))


def test_run_max_iterations_termination():
    problem = ControlProblem(benchmark_spec(mesh_n=6))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01), max_iterations=2),
                 compute_fp_residual=False)
    assert report.iterations == 2
    assert report.termination == solver.MAX_ITERATIONS
    assert report.pde_solves == 2 * 2 + sum(report.column("trials"))


def test_run_large_initial_weight_collapses_to_zero():
    # large weights keep every cell below threshold, so the first accepted
    # step is u = 0 and the iteration stops there
    problem = ControlProblem(benchmark_spec(mesh_n=10))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt", L_hat0=10.0)))
    assert np.all(report.final_control.values == 0.0)
    assert report.records[-1].support == 0.0


def test_run_switching_problem_smoke():
    spec = ProblemSpec(alpha=1e-5, beta=0.01, bound=math.inf, penalty="switching",
                       pde=fem.DIRICHLET_POISSON, y_d=switching_target, mesh_n=8)
    problem = ControlProblem(spec)
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01), max_iterations=500))
    Fs = [report.initial_F] + report.column("F")
    assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))
    assert report.pde_solves == 2 * report.iterations + sum(report.column("trials"))
    assert 0.0 <= report.records[-1].support <= 1.0


# ---------------------------------------------------------------------------
# stationarity residual


def test_fp_residual_zero_at_global_minimum():
    problem = ControlProblem(benchmark_spec(mesh_n=6, y_d=zero_target))
    assert fp_residual(problem, problem.zero_control(), 0.5) == 0.0


def test_fp_residual_detects_convexified_solution():
    alpha = beta = 0.01
    spec = benchmark_spec(alpha=alpha, beta=beta, bound=math.inf, pde=fem.NEUMANN_HELMHOLTZ,
                          y_d=unsolvable_target(alpha, beta), mesh_n=16)
    problem = ControlProblem(spec)
    ubar = fem.ControlField(problem.mesh, np.full(problem.mesh.num_triangles, 1.0))
    grad = problem.value_and_grad(ubar)[1]
    for L in (0.01, 0.1, 1.0, 10.0):
        assert fp_residual(problem, ubar, L, grad=grad) > 1e-3


def test_fp_residual_monotone_in_weight_at_converged_control():
    problem = ControlProblem(benchmark_spec(mesh_n=8))
    report = run(problem, SolverOptions(strategy=StepStrategy(kind="bt0", L_hat0=0.01)))
    u = report.final_control
    grad = problem.value_and_grad(u)[1]
    base_L = max(report.fp_residual_L, 0.01)
    r0 = fp_residual(problem, u, base_L, grad=grad)
    if r0 <= 1e-10:
        for L2 in (2 * base_L, 10 * base_L):
            assert fp_residual(problem, u, L2, grad=grad) <= 1e-10


# ---------------------------------------------------------------------------
# whole problem against brute force


def dense_objective(problem):
    """(G, M, F): the dense control-to-state map, the dense (slice-summed) mass and F(u) built from them.

    G is built column by column from the states of the unit controls; F
    charges alpha/2 and beta on the cell area, independently of the
    problem's own tracking and penalty code.
    """
    mesh, spec = problem.mesh, problem.spec
    G = np.column_stack([problem.state(fem.ControlField(mesh, e)) for e in np.eye(mesh.num_triangles)])
    M = mass_matrix(mesh).toarray()

    def F(u):
        r = G @ u - problem.target
        g = 0.5 * spec.alpha * (u @ u) + spec.beta * np.count_nonzero(u)
        return 0.5 * (r @ M @ r) + mesh.triangle_area * g

    return G, M, F


def brute_force_minima(problem):
    """m[s]: the least F without its beta term over the supports A of s cells, with b = inf.

    The best control on A solves H_A u_A = b_A, with H = G^T M G + alpha area I
    and b = G^T M y_d, and there F - beta area s = c - b_A^T u_A / 2, with
    c = y_d^T M y_d / 2.  So F_min(beta) = min_s (m[s] + beta area s) for every
    beta.  All supports of one size are solved in one batch.
    """
    G, M, _ = dense_objective(problem)
    cells = problem.mesh.num_triangles
    H = G.T @ M @ G + problem.spec.alpha * problem.mesh.triangle_area * np.eye(cells)
    b = G.T @ M @ problem.target
    c = 0.5 * (problem.target @ M @ problem.target)
    m = [c]
    for size in range(1, cells + 1):
        A = np.array(list(itertools.combinations(range(cells), size)))
        u = np.linalg.solve(H[A[:, :, None], A[:, None, :]], b[A][..., None])[..., 0]
        m.append(c - 0.5 * np.max(np.einsum("ij,ij->i", b[A], u)))
    return np.array(m)


def check_runs_against_the_brute_force_minimum(mesh_n, pde, betas):
    """Run each beta with b = inf; F must match the dense objective and not lie below the global minimum."""
    spec = benchmark_spec(mesh_n=mesh_n, bound=math.inf, pde=pde)
    minima = brute_force_minima(ControlProblem(spec))
    sizes = np.arange(minima.size)
    for beta in betas:
        problem = ControlProblem(replace(spec, beta=beta))
        report = run(problem, SolverOptions())
        F = dense_objective(problem)[2]
        F_min = np.min(minima + beta * problem.mesh.triangle_area * sizes)
        assert abs(F(report.final_control.values) - report.final_F) <= 1e-12
        # the method is proven to reach a stationary point only, so a positive gap is
        # not a failure: the Neumann runs at beta = 3e-2 stop 2.7e-3 (n = 2) and
        # 1.1e-3 (n = 3) above the minimum
        assert report.final_F >= F_min - 1e-12
        print(f"n={mesh_n} {pde} beta={beta:g}: F_run - F_min = {report.final_F - F_min:.3g}"
              f" on {np.count_nonzero(report.final_control.values)} cells")


@pytest.mark.parametrize("pde, beta", [
    (fem.DIRICHLET_POISSON, 1e-4),
    (fem.DIRICHLET_POISSON, 1e-3),
    (fem.DIRICHLET_POISSON, 1e-2),
    (fem.DIRICHLET_POISSON, 3e-2),
    # the Neumann runs take hundreds to thousands of solves at n = 2; this is the fastest
    (fem.NEUMANN_HELMHOLTZ, 3e-2),
])
def test_run_against_the_brute_force_minimum(pde, beta):
    # n = 2: 8 cells and 256 supports
    check_runs_against_the_brute_force_minimum(2, pde, [beta])


@pytest.mark.parametrize("pde, betas", [
    (fem.DIRICHLET_POISSON, [1e-4, 1e-3, 1e-2, 3e-2]),
    (fem.NEUMANN_HELMHOLTZ, [3e-2]),
])
def test_run_against_the_brute_force_minimum_at_n3(pde, betas):
    # n = 3: 18 cells and 262,144 supports, one minimum per support size for all betas
    check_runs_against_the_brute_force_minimum(3, pde, betas)


def test_random_runs_at_n2_stay_on_the_dense_objective_and_above_the_minimum(solve_calls):
    # seeded numpy draws rather than hypothesis, so the draws do not move with a
    # hypothesis release; each run stops after 30 iterations, so only what holds
    # at any iterate is asserted (32 runs, 2-3 s on a 2-core x86 host)
    rng = np.random.default_rng(2026)
    gaps, cap_hits = [], []
    for _ in range(32):
        pde = (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ)[rng.integers(2)]
        alpha, beta = 10.0 ** rng.uniform(-4.0, 0.0, 2)
        kind = (solver.BT, solver.BT_W, solver.BT_0)[rng.integers(3)]
        L_hat0 = 10.0 ** rng.uniform(-4.0, 1.0)
        problem = ControlProblem(benchmark_spec(mesh_n=2, bound=math.inf, pde=pde, alpha=alpha, beta=beta))
        minima = brute_force_minima(problem)
        F_min = np.min(minima + beta * problem.mesh.triangle_area * np.arange(minima.size))
        F = dense_objective(problem)[2]
        solves_before = len(solve_calls)
        report = run(problem, SolverOptions(strategy=StepStrategy(kind=kind, L_hat0=L_hat0), max_iterations=30),
                     compute_fp_residual=False)
        assert len(solve_calls) - solves_before == report.pde_solves
        assert abs(F(report.final_control.values) - report.final_F) <= 1e-12
        assert report.final_F >= F_min - 1e-12
        Fs = [report.initial_F] + report.column("F")
        assert all(b <= a for a, b in zip(Fs, Fs[1:]))
        gaps.append((report.final_F - F_min) / F_min)
        if report.termination == solver.MAX_ITERATIONS:
            cap_hits.append(f"{pde} {kind} alpha={alpha:.2g} beta={beta:.2g} L_hat0={L_hat0:.2g}")
    q = np.quantile(gaps, [0.0, 0.5, 0.9, 1.0])
    print(f"relative gap to the minimum: min {q[0]:.3g}, median {q[1]:.3g}, p90 {q[2]:.3g}, max {q[3]:.3g};"
          f" {np.count_nonzero(np.abs(gaps) < 1e-12)} of {len(gaps)} at the minimum")
    print(f"{len(cap_hits)} runs hit the iteration cap:", *cap_hits, sep="\n  ")
