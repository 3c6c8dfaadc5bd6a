"""Tracking functional, penalties, gradients and their PDE-solve costs."""

import math

import numpy as np
import pytest

from l0control import fem
from l0control.problem import (
    ControlProblem,
    ProblemSpec,
    SwitchingControl,
    default_target,
    make_problem,
    switching_target,
    unsolvable_target,
    zero_target,
)


def benchmark_spec(**kw):
    base = dict(alpha=0.01, beta=0.01, bound=4.0, penalty="l0", pde=fem.DIRICHLET_POISSON,
                y_d=default_target, mesh_n=10)
    base.update(kw)
    return ProblemSpec(**base)


def random_control(problem, rng, scale=1.0):
    return fem.ControlField(problem.mesh, scale * rng.normal(size=problem.mesh.num_triangles))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        benchmark_spec(alpha=-1.0)
    with pytest.raises(ValueError):
        benchmark_spec(beta=0.0)
    with pytest.raises(ValueError):
        benchmark_spec(bound=0.0)
    with pytest.raises(ValueError):
        benchmark_spec(penalty="l7")
    with pytest.raises(ValueError):
        benchmark_spec(pde="transport")
    with pytest.raises(ValueError):
        benchmark_spec(mesh_n=0)
    with pytest.raises(ValueError):
        benchmark_spec(y_d=3.0)


def test_spec_switching_constraints():
    with pytest.raises(ValueError, match=r"needs 4 \| mesh_n, got 10"):
        benchmark_spec(penalty="switching", mesh_n=10, bound=math.inf)
    with pytest.raises(ValueError):
        benchmark_spec(penalty="switching", mesh_n=8, pde=fem.NEUMANN_HELMHOLTZ, bound=math.inf)
    spec = benchmark_spec(penalty="switching", mesh_n=8, alpha=1e-5, y_d=switching_target, bound=math.inf)
    assert isinstance(make_problem(spec).zero_control(), SwitchingControl)
    assert type(make_problem(benchmark_spec()).zero_control()) is fem.ControlField


def test_spec_switching_rejects_a_finite_bound():
    # the switching prox has no box; the operator and divisibility checks come first
    for bound in (4.0, 1e-3):
        with pytest.raises(ValueError, match=rf"takes no bound \(bound = inf\), got {bound}$"):
            benchmark_spec(penalty="switching", mesh_n=8, bound=bound)
    with pytest.raises(ValueError, match="Dirichlet"):
        benchmark_spec(penalty="switching", mesh_n=8, pde=fem.NEUMANN_HELMHOLTZ)
    with pytest.raises(ValueError, match=r"needs 4 \| mesh_n, got 10"):
        benchmark_spec(penalty="switching", mesh_n=10)


def test_non_finite_target_rejected():
    def half_nan(x1, x2):
        return np.where(x1 < 0.5, np.nan, x1 * x2)

    for penalty in ("l0", "l1", "switching"):
        with pytest.raises(ValueError, match="non-finite"):
            ControlProblem(benchmark_spec(penalty=penalty, mesh_n=8, y_d=half_nan, bound=math.inf))
    with pytest.raises(ValueError, match="non-finite"):
        ControlProblem(benchmark_spec(y_d=lambda x1, x2: np.full_like(x1, np.inf)))


# ---------------------------------------------------------------------------
# tracking value


def test_eval_f_zero_target_zero_control():
    p = ControlProblem(benchmark_spec(y_d=zero_target, mesh_n=6))
    assert p.eval_f(p.zero_control()) == 0.0


def test_eval_f_zero_control_equals_target_norm():
    # independent quadrature: the exact elementwise P1 norm of the interpolant
    p = ControlProblem(benchmark_spec(mesh_n=10))
    f0 = p.eval_f(p.zero_control())
    expect = 0.5 * fem.l2_norm_state(p.mesh, p.target) ** 2
    assert f0 > 0
    assert f0 == pytest.approx(expect, rel=1e-12)


def test_eval_f_quadratic_identity(rng):
    # f(2u) - 4 f(u) + 3 f(0) == 2 <y_u, y_d>_mass for the quadratic tracking term
    p = ControlProblem(benchmark_spec(mesh_n=8))
    u = random_control(p, rng)
    u2 = fem.ControlField(p.mesh, 2.0 * u.values)
    lhs = p.eval_f(u2) - 4 * p.eval_f(u) + 3 * p.eval_f(p.zero_control())
    y = p.pde.solve(fem.nodal_load(p.mesh, u.values))
    rhs = 2.0 * float(y @ (p.pde.mass @ p.target))
    assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# gradient


def test_grad_zero_when_state_matches_target(rng):
    spec = benchmark_spec(mesh_n=8, y_d=lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2) * 0.3)
    p = ControlProblem(spec)
    fr = np.setdiff1d(np.arange(p.mesh.num_nodes), p.mesh.boundary_nodes)
    system = fem._stencil_matrix(p.mesh, fem._STIFFNESS_LOCAL).tocsr()[fr][:, fr].toarray()
    # the load map's columns: the node-grid load of each unit control
    loads = np.stack([fem.nodal_load(p.mesh, e) for e in np.eye(p.mesh.num_triangles)], axis=1)[fr]
    u_vals, *_ = np.linalg.lstsq(loads, system @ p.target[fr], rcond=None)
    u = fem.ControlField(p.mesh, u_vals)
    f, grad = p.value_and_grad(u)
    assert f <= 1e-18
    assert np.abs(grad.values).max() <= 1e-9


def test_grad_matches_finite_differences(rng):
    for pde_kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        p = ControlProblem(benchmark_spec(mesh_n=8, pde=pde_kind))
        for _ in range(5):
            u = random_control(p, rng)
            du = random_control(p, rng)
            _, grad = p.value_and_grad(u)
            pairing = p.mesh.triangle_area * float(grad.values @ du.values)
            eps = 1e-5
            up = fem.ControlField(p.mesh, u.values + eps * du.values)
            um = fem.ControlField(p.mesh, u.values - eps * du.values)
            fd = (p.eval_f(up) - p.eval_f(um)) / (2 * eps)
            assert pairing == pytest.approx(fd, rel=1e-6)


def test_grad_constant_for_unsolvable_configuration():
    alpha = beta = 0.01
    spec = benchmark_spec(
        alpha=alpha, beta=beta, bound=math.inf, pde=fem.NEUMANN_HELMHOLTZ,
        y_d=unsolvable_target(alpha, beta), mesh_n=16,
    )
    p = ControlProblem(spec)
    ubar = fem.ControlField(p.mesh, np.full(p.mesh.num_triangles, math.sqrt(beta / alpha)))
    grad = p.value_and_grad(ubar)[1]
    dev = np.abs(grad.values + math.sqrt(2 * alpha * beta)).max()
    assert dev <= 10 * p.mesh.mesh_size**2
    assert dev <= 1e-10  # constants are exact on this operator


# ---------------------------------------------------------------------------
# penalty values and support bookkeeping


def test_eval_g_zero():
    p = ControlProblem(benchmark_spec(mesh_n=4))
    assert p.eval_g(p.zero_control()) == 0.0


def test_eval_g_unit_control():
    p = ControlProblem(benchmark_spec(mesh_n=4))
    u = fem.ControlField(p.mesh, np.ones(p.mesh.num_triangles))
    assert p.eval_g(u) == pytest.approx(0.015, abs=1e-14)


def test_eval_g_half_support_at_bound():
    p = ControlProblem(benchmark_spec(mesh_n=4))
    vals = np.zeros(p.mesh.num_triangles)
    vals[: p.mesh.num_triangles // 2] = 4.0
    assert p.eval_g(fem.ControlField(p.mesh, vals)) == pytest.approx(0.045, abs=1e-14)


def test_eval_g_l1_mode(rng):
    p = ControlProblem(benchmark_spec(penalty="l1", beta=0.3, alpha=0.2, mesh_n=4))
    u = random_control(p, rng)
    expect = 0.5 * 0.2 * u.norm_sq(1.0) + 0.3 * p.mesh.triangle_area * np.abs(u.values).sum()
    assert p.eval_g(u) == pytest.approx(expect, rel=1e-12)


def test_support_measure_and_chi():
    p = ControlProblem(benchmark_spec(mesh_n=4))
    zero = p.zero_control()
    assert zero.support_measure() == 0.0
    full = fem.ControlField(p.mesh, np.ones(p.mesh.num_triangles))
    assert full.support_measure() == pytest.approx(1.0)
    chi = full.support_mask()
    assert chi.dtype == bool and chi.shape == (2 * 4 * 4,)
    assert set(np.unique(chi)) == {1.0}
    half = np.zeros(p.mesh.num_triangles)
    half[::2] = 1.0
    c1 = fem.ControlField(p.mesh, half).support_mask()
    c2 = fem.ControlField(p.mesh, 1.0 - half).support_mask()
    assert full.measure(c1 != c2) == pytest.approx(1.0)
    assert full.measure(c1 != c1) == 0.0


def test_l1_equivalence_check():
    p = ControlProblem(benchmark_spec(penalty="l1", mesh_n=4))
    b = p.spec.bound
    assert p.l1_equivalence_check(p.zero_control())
    vals = np.zeros(p.mesh.num_triangles)
    vals[0] = b / 2
    assert not p.l1_equivalence_check(fem.ControlField(p.mesh, vals))
    bang = np.zeros(p.mesh.num_triangles)
    bang[::3] = b
    bang[1::5] = -b
    u = fem.ControlField(p.mesh, bang)
    assert p.l1_equivalence_check(u)
    # the key identity b*||u||_0 = ||u||_L1 for bang-bang fields
    assert b * u.support_measure() == pytest.approx(
        p.mesh.triangle_area * np.abs(bang).sum(), abs=1e-10
    )
    with pytest.raises(ValueError):
        ControlProblem(benchmark_spec(penalty="l1", bound=math.inf, mesh_n=4)).l1_equivalence_check(u)


# ---------------------------------------------------------------------------
# PDE-solve costs


def test_budget_one_iteration_three_solves(rng, solve_calls):
    p = ControlProblem(benchmark_spec(mesh_n=6))
    assert len(solve_calls) == 0
    u = p.zero_control()
    _, grad = p.value_and_grad(u)     # state + adjoint
    assert len(solve_calls) == 2
    trial = random_control(p, rng)
    p.eval_f(trial)                   # one trial evaluation
    assert len(solve_calls) == 3
    p.eval_g(trial)                   # penalty is PDE-free
    assert len(solve_calls) == 3


def test_preassembled_operator_is_shared():
    spec1 = benchmark_spec(mesh_n=6, beta=0.02)
    base = ControlProblem(spec1)
    spec2 = benchmark_spec(mesh_n=6, beta=0.05)
    shared = ControlProblem(spec2, pde=base.pde)
    assert shared.pde is base.pde
    assert shared.mesh is base.mesh
    with pytest.raises(ValueError):
        ControlProblem(benchmark_spec(mesh_n=8), pde=base.pde)
    with pytest.raises(ValueError):
        ControlProblem(benchmark_spec(mesh_n=6, pde=fem.NEUMANN_HELMHOLTZ), pde=base.pde)


def test_shared_operator_budget_for_l0_and_switching(rng, solve_calls):
    pde = fem.assemble(fem.build_mesh(8), fem.DIRICHLET_POISSON)
    l0 = ControlProblem(benchmark_spec(mesh_n=8), pde=pde)
    sw = ControlProblem(switching_spec(), pde=pde)
    assert l0.pde is sw.pde and l0.mesh is sw.mesh
    assert type(l0.zero_control()) is fem.ControlField and type(sw.zero_control()) is SwitchingControl
    controls = {
        "l0": (l0, random_control(l0, rng)),
        "switching": (sw, SwitchingControl(sw.mesh, rng.normal(size=(2, 8)))),
    }
    for penalty, (p, u) in controls.items():
        solve_calls.clear()
        p.eval_f(u)
        assert len(solve_calls) == 1, penalty
        _, grad = p.value_and_grad(u)
        assert len(solve_calls) == 3, penalty
        assert type(grad) is type(u) and grad.values.shape == u.values.shape


def test_state_is_one_counted_solve_of_the_load(rng, solve_calls):
    for spec in (benchmark_spec(mesh_n=8),
                 benchmark_spec(penalty="switching", mesh_n=8, y_d=switching_target, bound=math.inf)):
        p = ControlProblem(spec)
        u = random_control(p, rng) if spec.penalty == "l0" else SwitchingControl(p.mesh, rng.normal(size=(2, 8)))
        cells = u.cells()
        solve_calls.clear()
        y = p.state(u)
        assert len(solve_calls) == 1, spec.penalty
        assert np.array_equal(y, p.pde.solve(fem.nodal_load(p.mesh, cells))), spec.penalty


# ---------------------------------------------------------------------------
# switching problem


def switching_spec(beta=0.01, n=8):
    return ProblemSpec(alpha=1e-5, beta=beta, bound=math.inf, penalty="switching",
                       pde=fem.DIRICHLET_POISSON, y_d=switching_target, mesh_n=n)


def test_switching_zero_control_and_overlap():
    p = ControlProblem(switching_spec())
    z = p.zero_control()
    assert z.support_measure() == 0.0
    assert p.eval_g(z) == 0.0
    vals = np.zeros((2, 8))
    vals[0, :4] = 1.0
    vals[1, 2:6] = 1.0
    u = SwitchingControl(p.mesh, vals)
    assert u.support_measure() == pytest.approx(2 / 8)
    expect = 0.5 * 1e-5 * (vals**2).sum() / 8 + 0.01 * 2 / 8
    assert p.eval_g(u) == pytest.approx(expect, rel=1e-12)


def test_switching_gradient_matches_finite_differences(rng):
    p = ControlProblem(switching_spec())
    u = SwitchingControl(p.mesh, rng.normal(size=(2, 8)))
    du = rng.normal(size=(2, 8))
    _, grad = p.value_and_grad(u)
    pairing = float((grad.values * du).sum()) / p.mesh.n
    eps = 1e-5
    up = SwitchingControl(p.mesh, u.values + eps * du)
    um = SwitchingControl(p.mesh, u.values - eps * du)
    fd = (p.eval_f(up) - p.eval_f(um)) / (2 * eps)
    assert pairing == pytest.approx(fd, rel=1e-6)


def test_switching_chi_distance():
    p = ControlProblem(switching_spec())
    a = np.zeros((2, 8)); a[0, :] = 1.0; a[1, :4] = 1.0
    b = np.zeros((2, 8)); b[0, :] = 1.0; b[1, 2:6] = 1.0
    ua = SwitchingControl(p.mesh, a)
    ca, cb = ua.support_mask(), SwitchingControl(p.mesh, b).support_mask()
    assert ca.dtype == bool and ca.shape == (8,)
    assert ca.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert ua.measure(ca != cb) == pytest.approx(4 / 8)
