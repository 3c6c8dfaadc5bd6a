"""Mesh construction, assembly, solves and transfer operators."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from l0control import fem

# frozen from the n=64 manufactured run: measured constant 0.347, 30% margin
MANUFACTURED_C = 0.45


def manufactured_error(n):
    mesh = fem.build_mesh(n)
    pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
    cent = mesh.centroids()
    u = fem.ControlField(mesh, 2 * np.pi**2 * np.sin(np.pi * cent[:, 0]) * np.sin(np.pi * cent[:, 1]))
    y = fem.solve_state(pde, u)
    exact = fem.interpolate_nodal(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    return fem.l2_norm_state(fem.StateField(mesh, y.values - exact.values))


def test_build_mesh_smallest():
    mesh = fem.build_mesh(1)
    assert mesh.num_triangles == 2
    assert mesh.num_nodes == 4
    assert mesh.mesh_size == pytest.approx(math.sqrt(2.0))


def test_build_mesh_counts_and_mesh_size():
    mesh = fem.build_mesh(10)
    assert mesh.num_triangles == 200
    assert mesh.num_nodes == 121
    assert mesh.mesh_size == pytest.approx(0.1414, abs=5e-5)
    assert mesh.boundary_nodes.size == 40


def test_build_mesh_fine_level():
    mesh = fem.build_mesh(500)
    assert mesh.num_triangles == 500_000
    assert mesh.mesh_size == pytest.approx(0.0028, abs=5e-5)


def test_build_mesh_rejects_zero():
    with pytest.raises(ValueError):
        fem.build_mesh(0)


def test_triangle_areas_positive_and_uniform():
    mesh = fem.build_mesh(7)
    _, _, area = fem._element_geometry(mesh)
    assert np.all(area > 0)
    assert np.allclose(area, mesh.triangle_area, rtol=0, atol=1e-16)


def test_assemble_degenerate_dirichlet_mesh():
    pde = fem.assemble(fem.build_mesh(1), fem.DIRICHLET_POISSON)
    assert pde.free_nodes.size == 0
    y = fem.solve_state(pde, fem.ControlField(pde.mesh, np.ones(2)))
    assert np.all(y.values == 0.0)


def test_assemble_interior_stencil_n2():
    pde = fem.assemble(fem.build_mesh(2), fem.DIRICHLET_POISSON)
    assert pde.free_nodes.size == 1
    inner = pde.system[pde.free_nodes][:, pde.free_nodes].toarray()
    assert inner == pytest.approx(np.array([[4.0]]))


def test_assemble_neumann_positive_definite(rng):
    pde = fem.assemble(fem.build_mesh(2), fem.NEUMANN_HELMHOLTZ)
    assert pde.free_nodes.size == 9
    for _ in range(10):
        v = rng.normal(size=9)
        assert v @ (pde.system @ v) > 0
        assert v @ (pde.mass @ v) > 0


def test_assemble_rejects_unknown_kind():
    with pytest.raises(ValueError):
        fem.assemble(fem.build_mesh(2), "biharmonic")


def five_point_stencil(n):
    """kron(I, T) + kron(T, I) with T = tridiag(-1, 2, -1) of order n - 1."""
    m = n - 1
    t = sp.diags([-np.ones(m - 1), np.full(m, 2.0), -np.ones(m - 1)], [-1, 0, 1])
    eye = sp.identity(m)
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()


def test_dirichlet_stiffness_is_five_point_stencil():
    eps = np.finfo(float).eps
    for n in range(2, 41):
        pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
        fr = pde.free_nodes
        diff = abs(pde.system[fr][:, fr] - five_point_stencil(n)).max()
        if n & (n - 1) == 0:
            # dyadic node coordinates are exact, and so is every element entry
            assert diff == 0.0, n
        else:
            # rounded coordinates (O(eps) each) give edge vectors with relative error O(n eps)
            assert diff <= 4.0 * n * eps, n


def test_dirichlet_spectral_solve_matches_lu(rng):
    for n in (1, 2, 3, 8, 40, 160):
        pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
        rhs = rng.normal(size=pde.mesh.num_nodes)
        y = pde.solve(rhs)
        boundary = pde.mesh.boundary_nodes
        assert np.all(y[boundary] == 0.0)
        fr = pde.free_nodes
        if fr.size == 0:
            assert np.all(y == 0.0)
            continue
        oracle = spla.splu(pde.system[fr][:, fr].tocsc()).solve(rhs[fr])
        assert np.abs(y[fr] - oracle).max() <= 1e-12 * np.abs(oracle).max(), n


def test_dirichlet_spectral_solve_free_of_cancellation(rng):
    # long-double transform of the same stencil as reference; a cosine-form
    # eigenvalue grid misses this bound by two orders of magnitude at n = 500
    from scipy.fft import dstn, idstn

    n = 500
    pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
    rhs = rng.normal(size=pde.mesh.num_nodes)
    fr = pde.free_nodes
    line = 4 * np.sin(np.longdouble(np.pi) * np.arange(1, n, dtype=np.longdouble) / (2 * n)) ** 2
    grid = rhs[fr].astype(np.longdouble).reshape(n - 1, n - 1)
    ref = idstn(dstn(grid, type=1) / (line[:, None] + line[None, :]), type=1).ravel()
    err = np.abs(pde.solve(rhs)[fr] - ref).max() / np.abs(ref).max()
    assert err <= 1e-14


def test_import_does_not_load_scipy_fft():
    code = "import sys, l0control; sys.exit('scipy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_assembled_matrices_exactly_symmetric():
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(9), kind)
        assert (pde.system - pde.system.T).nnz == 0
        assert (pde.mass - pde.mass.T).nnz == 0


def test_solve_state_zero_control():
    pde = fem.assemble(fem.build_mesh(6), fem.DIRICHLET_POISSON)
    y = fem.solve_state(pde, fem.ControlField(pde.mesh, np.zeros(pde.mesh.num_triangles)))
    assert np.all(y.values == 0.0)


def test_solve_state_manufactured_error_bound():
    n = 64
    assert manufactured_error(n) <= MANUFACTURED_C * (math.sqrt(2) / n) ** 2


def test_solve_state_convergence_order():
    errs = [manufactured_error(n) for n in (16, 32, 64)]
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_solve_state_neumann_constants():
    pde = fem.assemble(fem.build_mesh(8), fem.NEUMANN_HELMHOLTZ)
    y = fem.solve_state(pde, fem.ControlField(pde.mesh, np.full(pde.mesh.num_triangles, 3.25)))
    assert np.abs(y.values - 3.25).max() <= 1e-10


def test_solve_state_linear(rng):
    pde = fem.assemble(fem.build_mesh(12), fem.DIRICHLET_POISSON)
    t = pde.mesh.num_triangles
    u = fem.ControlField(pde.mesh, rng.normal(size=t))
    v = fem.ControlField(pde.mesh, rng.normal(size=t))
    a, b = 1.7, -0.4
    lhs = fem.solve_state(pde, fem.ControlField(pde.mesh, a * u.values + b * v.values))
    rhs = a * fem.solve_state(pde, u).values + b * fem.solve_state(pde, v).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs.values - rhs).max() <= 1e-10 * scale


def test_solve_relative_residual(rng):
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(24), kind)
        u = fem.ControlField(pde.mesh, rng.normal(size=pde.mesh.num_triangles))
        y = fem.solve_state(pde, u)
        rhs = pde.load_map @ u.values
        fr = pde.free_nodes
        res = np.linalg.norm(pde.system[fr][:, fr] @ y.values[fr] - rhs[fr])
        assert res <= 1e-12 * np.linalg.norm(rhs[fr])


def test_cg_solver_matches_direct(rng):
    pde = fem.assemble(fem.build_mesh(16), fem.NEUMANN_HELMHOLTZ)
    rhs = pde.load_map @ rng.normal(size=pde.mesh.num_triangles)
    direct = spla.splu(pde.system.tocsc()).solve(rhs)
    cg = fem._make_solver(pde.system, use_direct=False)(rhs)
    assert np.abs(direct - cg).max() <= 1e-10 * max(np.abs(direct).max(), 1e-30)


def test_solve_adjoint_zero_and_constants():
    pde = fem.assemble(fem.build_mesh(8), fem.NEUMANN_HELMHOLTZ)
    zero = fem.solve_adjoint(pde, fem.StateField(pde.mesh, np.zeros(pde.mesh.num_nodes)))
    assert np.all(zero.values == 0.0)
    const = fem.solve_adjoint(pde, fem.StateField(pde.mesh, np.full(pde.mesh.num_nodes, 2.5)))
    assert np.abs(const.values - 2.5).max() <= 1e-10


def test_adjoint_consistency_identity(rng):
    # <solve_state(u), mass*w> == <load(u), solve(mass*w)> by self-adjointness
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(10), kind)
        u = fem.ControlField(pde.mesh, rng.normal(size=pde.mesh.num_triangles))
        w = rng.normal(size=pde.mesh.num_nodes)
        lhs = fem.solve_state(pde, u).values @ (pde.mass @ w)
        p = pde.solve(pde.mass @ w)
        rhs = (pde.load_map @ u.values) @ p
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_element_means():
    mesh = fem.build_mesh(2)
    assert np.all(fem.element_means(fem.StateField(mesh, np.zeros(mesh.num_nodes))).values == 0.0)
    assert fem.element_means(fem.StateField(mesh, np.full(mesh.num_nodes, 3.0))).values == pytest.approx(3.0)
    nodal = np.zeros(mesh.num_nodes)
    nodal[mesh.triangles[0]] = [0.0, 1.0, 2.0]
    assert fem.element_means(fem.StateField(mesh, nodal)).values[0] == 1.0


def test_norms_trivial_and_unit():
    mesh = fem.build_mesh(9)
    assert fem.l2_norm_state(fem.StateField(mesh, np.zeros(mesh.num_nodes))) == 0.0
    assert fem.l2_norm_control(fem.ControlField(mesh, np.zeros(mesh.num_triangles))) == 0.0
    assert fem.l2_norm_control(fem.ControlField(mesh, np.ones(mesh.num_triangles))) == pytest.approx(1.0, abs=1e-14)
    assert fem.l2_norm_state(fem.StateField(mesh, np.ones(mesh.num_nodes))) == pytest.approx(1.0, abs=1e-14)


def test_norm_of_interpolated_sine_product():
    mesh = fem.build_mesh(64)
    y = fem.interpolate_nodal(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    assert abs(fem.l2_norm_state(y) - 0.5) <= 1e-3


def test_inner_product_and_diff_norm(rng):
    mesh = fem.build_mesh(5)
    u = fem.ControlField(mesh, rng.normal(size=mesh.num_triangles))
    v = fem.ControlField(mesh, rng.normal(size=mesh.num_triangles))
    direct = mesh.triangle_area * float(u.values @ v.values)
    assert fem.l2_inner_control(u, v) == pytest.approx(direct, rel=1e-14)
    d = fem.ControlField(mesh, u.values - v.values)
    assert u.diff_norm(v) == pytest.approx(fem.l2_norm_control(d), rel=1e-14)


def test_mass_conservation_of_load(rng):
    mesh = fem.build_mesh(14)
    pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
    u = rng.normal(size=mesh.num_triangles)
    total = (pde.load_map @ u).sum()
    assert abs(total - mesh.triangle_area * u.sum()) <= 1e-14


def test_support_measure_exact_zero_test():
    mesh = fem.build_mesh(4)
    vals = np.zeros(mesh.num_triangles)
    vals[[3, 7, 12]] = [1e-300, -2.0, 0.5]
    assert fem.ControlField(mesh, vals).support_measure() == pytest.approx(3 * mesh.triangle_area)


# ---------------------------------------------------------------------------
# switching geometry


def test_switching_loads_zero():
    mesh = fem.build_mesh(8)
    load = fem.switching_loads(mesh, np.zeros(8), np.zeros(8))
    assert np.all(load == 0.0)


def test_switching_loads_band_mass():
    mesh = fem.build_mesh(8)
    load = fem.switching_loads(mesh, np.ones(8), np.zeros(8))
    assert load.sum() == pytest.approx(0.25, abs=1e-14)
    load2 = fem.switching_loads(mesh, np.zeros(8), np.ones(8))
    assert load2.sum() == pytest.approx(0.25, abs=1e-14)


def test_switching_requires_divisible_mesh():
    with pytest.raises(ValueError):
        fem.switching_loads(fem.build_mesh(6), np.zeros(6), np.zeros(6))
    with pytest.raises(ValueError):
        fem.SwitchingLayout.build(fem.build_mesh(10))


def test_switching_loads_shape_check():
    mesh = fem.build_mesh(8)
    with pytest.raises(ValueError):
        fem.switching_loads(mesh, np.zeros(4), np.zeros(8))


def test_switching_gradient_matches_load_pairing(rng):
    # <gradients, (du1, du2)>_{1/n} equals the load pairing <p, load(du)>
    mesh = fem.build_mesh(8)
    layout = fem.SwitchingLayout.build(mesh)
    p = fem.StateField(mesh, rng.normal(size=mesh.num_nodes))
    g1, g2 = fem.switching_gradients(mesh, p, layout)
    du1 = rng.normal(size=8)
    du2 = rng.normal(size=8)
    lhs = (g1 @ du1 + g2 @ du2) / mesh.n
    rhs = p.values @ fem.switching_loads(mesh, du1, du2)
    assert lhs == pytest.approx(rhs, rel=1e-12)
