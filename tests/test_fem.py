"""Mesh construction, assembly, solves and transfer operators."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from l0control import cli, fem
from l0control.problem import SwitchingControl

# frozen from the n=64 manufactured run: measured constant 0.347, 30% margin
MANUFACTURED_C = 0.45


def coo_geometry(mesh):
    """Barycentric gradients (b, c) and area of every triangle, from its node coordinates."""
    pts = mesh.nodes[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    # b_i = y_j - y_k, c_i = x_k - x_j (cyclic): gradients of barycentric coords
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def coo_assembly(mesh):
    """Stiffness, mass and load map scattered triangle by triangle (the oracle of the stencil build)."""
    b, c, area = coo_geometry(mesh)
    inv4a = 1.0 / (4.0 * area)
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * inv4a[:, None, None]
    m_local = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nn, t = mesh.num_nodes, mesh.num_triangles
    stiffness = sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    mass = sp.coo_matrix((m_local.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    load = sp.coo_matrix(
        (np.full(3 * t, mesh.triangle_area / 3.0), (mesh.triangles.ravel(), np.repeat(np.arange(t), 3))),
        shape=(nn, t),
    ).tocsr()
    return stiffness, mass, load


# what the assembled operator does not keep, built here for the checks


def interior_nodes(mesh):
    """The Dirichlet unknowns: every node off the boundary."""
    return np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)


def stiffness_matrix(mesh):
    """The stiffness in CSR, for the checks that index rows or read its fields."""
    return fem._stencil_matrix(mesh, fem._STIFFNESS_LOCAL).tocsr()


def system_matrix(pde):
    """The matrix pde.solve inverts, in CSR: the stiffness (Dirichlet, on its interior rows and columns) or K + M (Neumann)."""
    stiffness = stiffness_matrix(pde.mesh)
    return stiffness if pde.pde_kind == fem.DIRICHLET_POISSON else stiffness + pde.mass.tocsr()


def solve_state(pde, u):
    return pde.solve(fem.nodal_load(pde.mesh, u.values))


def manufactured_error(n):
    mesh = fem.build_mesh(n)
    pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
    cent = fem.element_means(mesh, mesh.nodes)
    u = fem.ControlField(mesh, 2 * np.pi**2 * np.sin(np.pi * cent[:, 0]) * np.sin(np.pi * cent[:, 1]))
    y = solve_state(pde, u)
    exact = fem.interpolate_nodal(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    return fem.l2_norm_state(mesh, y - exact)


def test_build_mesh_smallest():
    mesh = fem.build_mesh(1)
    assert mesh.num_triangles == 2
    assert mesh.num_nodes == 4
    # lower (ll, lr, ur) before upper (ll, ur, ul)
    assert mesh.triangles.tolist() == [[0, 1, 3], [0, 3, 2]]
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


def meshgrid_mesh(n):
    """Nodes, triangles and boundary nodes built from meshgrids, corner array by corner array."""
    k = n + 1
    xs = np.linspace(0.0, 1.0, k)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (iy * k + ix).ravel()
    lower = [ll, ll + 1, ll + k + 1]
    upper = [ll, ll + k + 1, ll + k]
    triangles = np.stack(lower + upper, axis=1).reshape(2 * n * n, 3)
    gx, gy = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    boundary = np.flatnonzero(((gx == 0) | (gx == n) | (gy == 0) | (gy == n)).ravel())
    return nodes, triangles, boundary


def test_build_mesh_matches_meshgrid_reference():
    for n in (1, 2, 3, 16, 320):
        mesh = fem.build_mesh(n)
        for got, want in zip((mesh.nodes, mesh.triangles, mesh.boundary_nodes), meshgrid_mesh(n)):
            assert got.dtype == want.dtype and got.shape == want.shape, n
            assert got.tobytes() == want.tobytes(), n


def test_build_mesh_rejects_zero():
    with pytest.raises(ValueError):
        fem.build_mesh(0)


def test_unallocatable_mesh_allocates_nothing():
    # (10^8 + 1)^2 nodes: the mass diagonals alone would take 5.6e17 bytes,
    # 6.4e17 with the Dirichlet eigenvalue grid
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="allocate"):
            fem.build_mesh(10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def setup_arrays_nbytes(pde):
    """Bytes of the mass diagonals and of the (n-1)^2 Dirichlet eigenvalue grid."""
    return pde.mass.data.nbytes + 8 * (pde.mesh.n - 1) ** 2


def test_mesh_gate_counts_the_setup_arrays():
    # the gate lets a mesh through on exactly the bytes its set-up allocates
    for n in (1, 16, 320):
        need = setup_arrays_nbytes(fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON))
        with mock.patch.object(fem, "_physical_memory", return_value=need):
            assert fem.build_mesh(n).n == n
        with mock.patch.object(fem, "_physical_memory", return_value=need - 1):
            with pytest.raises(MemoryError, match="allocate"):
                fem.build_mesh(n)


def test_setup_allocates_only_its_arrays():
    n = 320
    fem.assemble(fem.build_mesh(4), fem.DIRICHLET_POISSON)  # scipy imported outside the trace
    tracemalloc.start()
    try:
        fem.build_mesh(n)
        _, mesh_peak = tracemalloc.get_traced_memory()
        pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh_peak < 4096
    # the mass diagonals and the Dirichlet eigenvalue grid: 6.58 MB at n = 320
    arrays = setup_arrays_nbytes(pde) + pde.mass.offsets.nbytes
    assert peak <= arrays + 2**20, (peak, arrays)


def test_mesh_arrays_are_fresh_on_each_access():
    mesh = fem.build_mesh(4)
    for name in ("nodes", "triangles", "boundary_nodes"):
        first, second = getattr(mesh, name), getattr(mesh, name)
        assert first is not second and not np.shares_memory(first, second), name
    mesh.nodes[:] = 7.0
    target = fem.interpolate_nodal(mesh, lambda x1, x2: x1 + 2 * x2)
    assert np.array_equal(target, fem.interpolate_nodal(fem.build_mesh(4), lambda x1, x2: x1 + 2 * x2))


def test_triangle_areas_positive_and_uniform():
    mesh = fem.build_mesh(7)
    _, _, area = coo_geometry(mesh)
    assert np.all(area > 0)
    assert np.allclose(area, mesh.triangle_area, rtol=0, atol=1e-16)


def test_assemble_degenerate_dirichlet_mesh():
    pde = fem.assemble(fem.build_mesh(1), fem.DIRICHLET_POISSON)
    y = solve_state(pde, fem.ControlField(pde.mesh, np.ones(2)))
    # no interior node: a full nodal result, all of it boundary zeros
    assert y.shape == (4,)
    assert np.all(y == 0.0)


def test_assemble_interior_stencil_n2():
    pde = fem.assemble(fem.build_mesh(2), fem.DIRICHLET_POISSON)
    fr = interior_nodes(pde.mesh)
    inner = stiffness_matrix(pde.mesh)[fr][:, fr].toarray()
    assert inner == pytest.approx(np.array([[4.0]]))
    # one unknown, the centre node, solved by that 1x1 stencil
    y = pde.solve(np.ones(9))
    assert np.flatnonzero(y).tolist() == [4]
    assert y[4] == pytest.approx(0.25)


def test_assemble_neumann_positive_definite(rng):
    pde = fem.assemble(fem.build_mesh(2), fem.NEUMANN_HELMHOLTZ)
    # an unknown at every node: the constant load mass @ 1 solves to 1 everywhere
    assert np.abs(pde.solve(pde.mass @ np.ones(9)) - 1.0).max() <= 1e-12
    system = system_matrix(pde)
    for _ in range(10):
        v = rng.normal(size=9)
        assert v @ (system @ v) > 0
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
    # the stiffness is built from the stencil, not from rounded node
    # coordinates, so it matches exactly at every n, dyadic or not
    for n in range(2, 41):
        mesh = fem.build_mesh(n)
        fr = interior_nodes(mesh)
        diff = abs(stiffness_matrix(mesh)[fr][:, fr] - five_point_stencil(n)).max()
        assert diff == 0.0, n


def stencil_build(n):
    mesh = fem.build_mesh(n)
    pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
    stiffness = stiffness_matrix(mesh)
    # the matrix that the Neumann assemble hands its CG solver
    with mock.patch.object(fem, "_neumann_helmholtz_solver", wraps=fem._neumann_helmholtz_solver) as spy:
        fem.assemble(mesh, fem.NEUMANN_HELMHOLTZ)
    assert (spy.call_args.args[0].tocsr() != stiffness + pde.mass.tocsr()).nnz == 0
    return mesh, (stiffness, pde.mass.tocsr())


def same_load(mesh, load, rng):
    """The node-grid load gives the bits of the scatter's load map product, on ones and on a normal draw."""
    return all(np.array_equal(fem.nodal_load(mesh, c).view(np.int64), (load @ c).view(np.int64))
               for c in (np.ones(mesh.num_triangles), rng.normal(size=mesh.num_triangles)))


def same_pattern(a, b):
    b = b.copy()
    b.eliminate_zeros()  # the scatter keeps the zero diagonal-edge stiffness entries
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def test_stencil_build_equals_coo_scatter_at_dyadic_n(rng):
    # dyadic node coordinates make every element entry exact, and every entry
    # of the scatter sums equal or exactly representable terms
    for n in (1, 2, 4, 8, 16, 64, 128):
        mesh, built = stencil_build(n)
        scattered = coo_assembly(mesh)
        for name, new, old in zip(("stiffness", "mass"), built, scattered):
            assert same_pattern(new, old), (n, name)
            assert np.array_equal(new.data, old.data[old.data != 0]), (n, name)
        assert same_load(mesh, scattered[2], rng), (n, "load")


def test_stencil_build_near_coo_scatter_at_rounded_n(rng):
    # the scatter's element entries carry the rounding of the linspace node
    # coordinates: edge vectors with relative error O(n eps)
    eps = np.finfo(float).eps
    for n in [n for n in range(3, 41) if n & (n - 1)] + [320]:
        mesh, (stiffness, mass) = stencil_build(n)
        k_old, m_old, load_old = coo_assembly(mesh)
        for new, old in ((stiffness, k_old), (mass, m_old)):
            assert same_pattern(new, old), n
            assert abs(new - old).max() <= 4 * n * eps * abs(old).max(), n
        # the load weights are area/3 in both builds
        assert same_load(mesh, load_old, rng), n


def test_assemble_converts_no_sparse_format():
    # the mass stays in the diagonal storage it is built in, K + M is the sum
    # of two diagonal matrices, and the mass is the one matrix a set-up keeps
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{self.format} matrix converted")

    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        with mock.patch.multiple(sp.dia_matrix, tocsr=refuse, tocoo=refuse):
            pde = fem.assemble(fem.build_mesh(8), kind)
        assert pde.mass.format == "dia", kind
        assert [f.name for f in dataclasses.fields(pde)] == ["mesh", "pde_kind", "mass", "_solver"], kind


def edge_vector(rng, size):
    """Normal draws with +-0.0, subnormals and +-1e300 mixed in."""
    x = rng.normal(size=size)
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1e300, -1e300])
    pick = rng.random(size) < 0.5
    x[pick] = rng.choice(edges, size=np.count_nonzero(pick))
    return x


def test_operator_products_match_csr_bitwise(rng):
    # a DIA product adds each row's terms in ascending column order from +0.0,
    # as a CSR product does; its stored zeros add +-0 to a sum that is never -0.0
    for n in (1, 2, 3, 16, 64):
        mesh = fem.build_mesh(n)
        pde = fem.assemble(mesh, fem.DIRICHLET_POISSON)
        with mock.patch.object(fem, "_neumann_helmholtz_solver", wraps=fem._neumann_helmholtz_solver) as spy:
            fem.assemble(mesh, fem.NEUMANN_HELMHOLTZ)
        system = spy.call_args.args[0]
        for draw in (lambda size: rng.normal(size=size), lambda size: edge_vector(rng, size), lambda size: np.full(size, -0.0)):
            r = draw(mesh.num_nodes)
            for name, op in (("mass", pde.mass), ("system", system)):
                got, want = op @ r, op.tocsr() @ r
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, name)


def test_nodal_load_equals_the_coo_scatter_product_bitwise(rng):
    # each node adds area/3 times its triangles' values in triangle-index order
    # from +0.0, as the scattered load map's CSR product does; a boundary
    # node's missing triangles add +0.0 to a sum that is never -0.0
    def with_inf(size):
        x = edge_vector(rng, size)
        x[rng.random(size) < 0.1] = rng.choice([np.inf, -np.inf])
        return x

    for n in (1, 2, 3, 16, 64):
        mesh = fem.build_mesh(n)
        load = coo_assembly(mesh)[2]
        t = mesh.num_triangles
        # one band of rows (the default up to n = 179), and bands of 1, 2 and 5 rows
        for band_cells in (fem.BLOCK_CELLS, n + 2, 2 * (n + 2), 5 * (n + 2)):
            for c in (rng.normal(size=t), edge_vector(rng, t), with_inf(t), np.full(t, -0.0)):
                with mock.patch.object(fem, "BLOCK_CELLS", band_cells), np.errstate(invalid="ignore"):
                    got = fem.nodal_load(mesh, c)  # inf - inf is NaN in both
                    want = load @ c
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, band_cells)


def test_load_map_arrays_equal_the_coo_scatter():
    # the control-to-load map, read column by column off the node-grid load,
    # has the scattered load map's CSC arrays bit for bit
    for n in (1, 2, 3, 16):
        mesh = fem.build_mesh(n)
        t = mesh.num_triangles
        got = sp.csc_matrix(np.column_stack([fem.nodal_load(mesh, e) for e in np.eye(t)]))
        want = coo_assembly(mesh)[2].tocsc()
        # column j holds triangle j's three vertices, and nothing else
        assert np.array_equal(got.indices.reshape(-1, 3), np.sort(mesh.triangles, axis=1)), n
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name)


def test_dirichlet_assemble_builds_only_the_mass():
    # the Dirichlet transform reads no stiffness; the Neumann CG reads K + M
    for kind, stiffness_built in ((fem.DIRICHLET_POISSON, [False]), (fem.NEUMANN_HELMHOLTZ, [False, True])):
        with mock.patch.object(fem, "_stencil_matrix", wraps=fem._stencil_matrix) as spy:
            fem.assemble(fem.build_mesh(8), kind)
        assert [call.args[1] is fem._STIFFNESS_LOCAL for call in spy.call_args_list] == stiffness_built, kind


def gather_scatter_solve(mesh, rhs):
    """The Dirichlet solve through index arrays: gather the interior rhs, transform, scatter back."""
    from scipy.fft import dstn, idstn

    n, m = mesh.n, mesh.n - 1
    free = interior_nodes(mesh)
    out = np.zeros(mesh.num_nodes)
    if free.size:
        line = fem._eigenvalue_line(n)[1:-1]
        eigenvalues = line[:, None] + line[None, :]
        out[free] = idstn(dstn(rhs[free].reshape(m, m), type=1) / eigenvalues, type=1).ravel()
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 320])
def test_dirichlet_view_solve_matches_gather_scatter_bitwise(n):
    pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
    # nonzero boundary entries too: the solve must ignore them
    rhs = np.random.default_rng(n).normal(size=pde.mesh.num_nodes)
    before = rhs.copy()
    y = pde.solve(rhs)
    assert np.array_equal(rhs.view(np.int64), before.view(np.int64))
    assert np.array_equal(y.view(np.int64), gather_scatter_solve(pde.mesh, rhs).view(np.int64))
    again = pde.solve(rhs)
    assert np.array_equal(again.view(np.int64), y.view(np.int64))
    assert not np.shares_memory(y, again) and not np.shares_memory(y, rhs)


def test_dirichlet_spectral_solve_matches_lu(rng):
    for n in (1, 2, 3, 8, 40, 160):
        pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
        rhs = rng.normal(size=pde.mesh.num_nodes)
        y = pde.solve(rhs)
        boundary = pde.mesh.boundary_nodes
        assert np.all(y[boundary] == 0.0)
        fr = interior_nodes(pde.mesh)
        if fr.size == 0:
            assert np.all(y == 0.0)
            continue
        oracle = spla.splu(system_matrix(pde)[fr][:, fr].tocsc()).solve(rhs[fr])
        assert np.abs(y[fr] - oracle).max() <= 1e-12 * np.abs(oracle).max(), n


def test_dirichlet_spectral_solve_free_of_cancellation(rng):
    # long-double transform of the same stencil as reference; a cosine-form
    # eigenvalue grid misses this bound by two orders of magnitude at n = 500
    from scipy.fft import dstn, idstn

    n = 500
    pde = fem.assemble(fem.build_mesh(n), fem.DIRICHLET_POISSON)
    rhs = rng.normal(size=pde.mesh.num_nodes)
    fr = interior_nodes(pde.mesh)
    line = 4 * np.sin(np.longdouble(np.pi) * np.arange(1, n, dtype=np.longdouble) / (2 * n)) ** 2
    grid = rhs[fr].astype(np.longdouble).reshape(n - 1, n - 1)
    ref = idstn(dstn(grid, type=1) / (line[:, None] + line[None, :]), type=1).ravel()
    err = np.abs(pde.solve(rhs)[fr] - ref).max() / np.abs(ref).max()
    assert err <= 1e-14


def run_fresh(code):
    """Run code in a fresh interpreter on this package; returns its exit status."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode


def test_import_does_not_load_scipy_fft():
    # nor scipy.sparse and scipy.sparse.linalg
    code = (
        "import sys, l0control, l0control.experiments; "
        "sys.exit(any(m in sys.modules for m in ('scipy.fft', 'scipy.sparse', 'scipy.sparse.linalg')))"
    )
    assert run_fresh(code) == 0


def test_dirichlet_solve_does_not_load_sparse_linalg():
    code = (
        "import sys, numpy as np; from l0control import fem; "
        "pde = fem.assemble(fem.build_mesh(8), fem.DIRICHLET_POISSON); "
        "y = pde.solve(fem.nodal_load(pde.mesh, np.ones(128))); "
        "assert y.max() > 0; sys.exit('scipy.sparse.linalg' in sys.modules)"
    )
    assert run_fresh(code) == 0


def test_assembled_matrices_exactly_symmetric():
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(9), kind)
        system = system_matrix(pde)
        assert (system - system.T).nnz == 0
        # in CSR, which drops the zeros that the diagonal storage keeps
        mass = pde.mass.tocsr()
        assert (mass - mass.T).nnz == 0


def test_solve_state_zero_control():
    pde = fem.assemble(fem.build_mesh(6), fem.DIRICHLET_POISSON)
    y = solve_state(pde, fem.ControlField(pde.mesh, np.zeros(pde.mesh.num_triangles)))
    assert np.all(y == 0.0)


def test_solve_state_manufactured_error_bound():
    n = 64
    assert manufactured_error(n) <= MANUFACTURED_C * (math.sqrt(2) / n) ** 2


def test_solve_state_convergence_order():
    errs = [manufactured_error(n) for n in (16, 32, 64)]
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_solve_state_neumann_constants():
    pde = fem.assemble(fem.build_mesh(8), fem.NEUMANN_HELMHOLTZ)
    y = solve_state(pde, fem.ControlField(pde.mesh, np.full(pde.mesh.num_triangles, 3.25)))
    assert np.abs(y - 3.25).max() <= 1e-10


def test_solve_state_linear(rng):
    pde = fem.assemble(fem.build_mesh(12), fem.DIRICHLET_POISSON)
    t = pde.mesh.num_triangles
    u = fem.ControlField(pde.mesh, rng.normal(size=t))
    v = fem.ControlField(pde.mesh, rng.normal(size=t))
    a, b = 1.7, -0.4
    lhs = solve_state(pde, fem.ControlField(pde.mesh, a * u.values + b * v.values))
    rhs = a * solve_state(pde, u) + b * solve_state(pde, v)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_solve_relative_residual(rng):
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(24), kind)
        u = fem.ControlField(pde.mesh, rng.normal(size=pde.mesh.num_triangles))
        y = solve_state(pde, u)
        rhs = fem.nodal_load(pde.mesh, u.values)
        fr = interior_nodes(pde.mesh) if kind == fem.DIRICHLET_POISSON else np.arange(pde.mesh.num_nodes)
        res = np.linalg.norm(system_matrix(pde)[fr][:, fr] @ y[fr] - rhs[fr])
        assert res <= 1e-12 * np.linalg.norm(rhs[fr])


def test_neumann_cg_solve_matches_lu(rng):
    for n in (1, 2, 3, 8, 40, 160):
        pde = fem.assemble(fem.build_mesh(n), fem.NEUMANN_HELMHOLTZ)
        rhs = fem.nodal_load(pde.mesh, rng.normal(size=pde.mesh.num_triangles))
        y = pde.solve(rhs)
        system = system_matrix(pde)
        direct = spla.splu(system.tocsc()).solve(rhs)
        assert np.abs(y - direct).max() <= 1e-10 * np.abs(direct).max(), n
        if n == 40:
            assert np.linalg.norm(system @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_neumann_cg_breakdown_raises_and_exits_3(rng, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("scipy.sparse.linalg.cg", lambda a, b, **kw: (np.zeros_like(b), 1))
    pde = fem.assemble(fem.build_mesh(4), fem.NEUMANN_HELMHOLTZ)
    with pytest.raises(fem.SolverBreakdown, match="info=1"):
        pde.solve(fem.nodal_load(pde.mesh, rng.normal(size=pde.mesh.num_triangles)))
    assert cli.main(["solve", "--pde", "neumann", "--mesh-n", "4", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("solver failure: CG failed to converge")


def test_solve_adjoint_zero_and_constants():
    # the adjoint solve is system * p = mass * residual (self-adjoint operator)
    pde = fem.assemble(fem.build_mesh(8), fem.NEUMANN_HELMHOLTZ)
    zero = pde.solve(pde.mass @ np.zeros(pde.mesh.num_nodes))
    assert np.all(zero == 0.0)
    const = pde.solve(pde.mass @ np.full(pde.mesh.num_nodes, 2.5))
    assert np.abs(const - 2.5).max() <= 1e-10


def test_adjoint_consistency_identity(rng):
    # <solve_state(u), mass*w> == <load(u), solve(mass*w)> by self-adjointness
    for kind in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
        pde = fem.assemble(fem.build_mesh(10), kind)
        u = fem.ControlField(pde.mesh, rng.normal(size=pde.mesh.num_triangles))
        w = rng.normal(size=pde.mesh.num_nodes)
        lhs = solve_state(pde, u) @ (pde.mass @ w)
        p = pde.solve(pde.mass @ w)
        rhs = fem.nodal_load(pde.mesh, u.values) @ p
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_element_means():
    mesh = fem.build_mesh(2)
    assert np.all(fem.element_means(mesh, np.zeros(mesh.num_nodes)) == 0.0)
    assert fem.element_means(mesh, np.full(mesh.num_nodes, 3.0)) == pytest.approx(3.0)
    nodal = np.zeros(mesh.num_nodes)
    nodal[mesh.triangles[0]] = [0.0, 1.0, 2.0]
    assert fem.element_means(mesh, nodal)[0] == 1.0


def test_grid_views_match_the_triangle_gather(rng):
    # the node-grid slices give the same bits as a gather through mesh.triangles
    for n in (1, 3, 20, 64):
        mesh = fem.build_mesh(n)
        y = rng.normal(size=mesh.num_nodes)
        gathered = y[mesh.triangles]
        assert np.array_equal(fem.element_means(mesh, y), gathered.mean(axis=1)), n
        assert np.array_equal(fem.element_means(mesh, mesh.nodes), mesh.nodes[mesh.triangles].mean(axis=1)), n
        sq = (gathered * gathered).sum(axis=1) + gathered.sum(axis=1) ** 2
        assert fem.l2_norm_state(mesh, y) == math.sqrt(mesh.triangle_area / 12.0 * sq.sum()), n
        if n % 4 == 0:
            strip, bands = centroid_bands(mesh)
            weights = gathered.mean(axis=1) * mesh.triangle_area
            grads = SwitchingControl(mesh, np.zeros((2, n))).restrict(fem.element_means(mesh, y)).values
            for band, g in zip(bands, grads):
                want = np.zeros(n)
                np.add.at(want, strip[band], weights[band])
                assert np.array_equal(g, want * n), n


def test_norms_trivial_and_unit():
    mesh = fem.build_mesh(9)
    assert fem.l2_norm_state(mesh, np.zeros(mesh.num_nodes)) == 0.0
    assert fem.ControlField(mesh, np.zeros(mesh.num_triangles)).norm_sq(1.0) == 0.0
    assert fem.ControlField(mesh, np.ones(mesh.num_triangles)).norm_sq(1.0) == pytest.approx(1.0, abs=1e-14)
    assert fem.l2_norm_state(mesh, np.ones(mesh.num_nodes)) == pytest.approx(1.0, abs=1e-14)


def test_norm_of_interpolated_sine_product():
    mesh = fem.build_mesh(64)
    y = fem.interpolate_nodal(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    assert abs(fem.l2_norm_state(mesh, y) - 0.5) <= 1e-3


def test_inner_product_and_diff_norm(rng):
    mesh = fem.build_mesh(5)
    u = fem.ControlField(mesh, rng.normal(size=mesh.num_triangles))
    v = fem.ControlField(mesh, rng.normal(size=mesh.num_triangles))
    direct = mesh.triangle_area * float(u.values @ v.values)
    # polarization: the norms come from the area-weighted inner product
    assert (u.norm_sq(1.0) + v.norm_sq(1.0) - u.diff_norm(v) ** 2) / 2 == pytest.approx(direct, rel=1e-14)
    d = fem.ControlField(mesh, u.values - v.values)
    assert u.diff_norm(v) ** 2 == pytest.approx(d.norm_sq(1.0), rel=1e-14)


def test_mass_conservation_of_load(rng):
    mesh = fem.build_mesh(14)
    u = rng.normal(size=mesh.num_triangles)
    total = fem.nodal_load(mesh, u).sum()
    assert abs(total - mesh.triangle_area * u.sum()) <= 1e-14


def test_support_measure_exact_zero_test():
    mesh = fem.build_mesh(4)
    vals = np.zeros(mesh.num_triangles)
    vals[[3, 7, 12]] = [1e-300, -2.0, 0.5]
    assert fem.ControlField(mesh, vals).support_measure() == pytest.approx(3 * mesh.triangle_area)


# ---------------------------------------------------------------------------
# switching geometry


def centroid_bands(mesh):
    """Strip index and (band 1, band 2) masks of every triangle, read off its centroid."""
    cent = fem.element_means(mesh, mesh.nodes)
    strip = np.minimum((cent[:, 0] * mesh.n).astype(np.int64), mesh.n - 1)
    return strip, (cent[:, 1] < 0.25, cent[:, 1] > 0.75)


def centroid_cells(mesh, u1, u2):
    """Oracle of SwitchingControl.cells: each band's triangles take their strip's value."""
    strip, bands = centroid_bands(mesh)
    c = np.zeros(mesh.num_triangles)
    for band, uk in zip(bands, (u1, u2)):
        c[band] = uk[strip[band]]
    return c


def centroid_restrict(mesh, means):
    """Oracle of SwitchingControl.restrict: area * means scattered into the strips in triangle order."""
    strip, bands = centroid_bands(mesh)
    weights = means * mesh.triangle_area
    g = np.zeros((2, mesh.n))
    for gk, band in zip(g, bands):
        np.add.at(gk, strip[band], weights[band])
    return g * mesh.n


def switching_load(mesh, u1, u2):
    """Nodal load of chi_band1 * u1(x1) + chi_band2 * u2(x1), as the problem builds it."""
    return fem.nodal_load(mesh, SwitchingControl(mesh, np.stack([u1, u2])).cells())


def wide_draw(rng, size):
    """Normal draws scaled over 2^-60..2^60, with a share of exact +0.0 and -0.0."""
    x = rng.normal(size=size) * np.exp2(rng.integers(-60, 61, size=size))
    x[rng.random(size) < 0.1] = 0.0
    x[rng.random(size) < 0.1] = -0.0
    return x


def test_switching_cells_and_restrict_match_the_centroid_oracle(rng):
    # bit for bit, +-0.0 included: a strip of -0.0 means restricts to +0.0
    for n in (4, 8, 12, 40, 320):
        mesh = fem.build_mesh(n)
        u = SwitchingControl(mesh, np.stack([wide_draw(rng, n), wide_draw(rng, n)]))
        cells = u.cells()
        assert cells.shape == (mesh.num_triangles,), n
        assert np.array_equal(cells.view(np.int64), centroid_cells(mesh, u.u1, u.u2).view(np.int64)), n
        means = wide_draw(rng, mesh.num_triangles)
        means[mesh.triangles[:, 0] % (n + 1) == n // 2] = -0.0
        g = u.restrict(means)
        assert type(g) is SwitchingControl and g.mesh is mesh, n
        assert np.array_equal(g.values.view(np.int64), centroid_restrict(mesh, means).view(np.int64)), n


def test_switching_loads_zero():
    mesh = fem.build_mesh(8)
    load = switching_load(mesh, np.zeros(8), np.zeros(8))
    assert np.all(load == 0.0)


def test_switching_loads_band_mass():
    mesh = fem.build_mesh(8)
    load = switching_load(mesh, np.ones(8), np.zeros(8))
    assert load.sum() == pytest.approx(0.25, abs=1e-14)
    load2 = switching_load(mesh, np.zeros(8), np.ones(8))
    assert load2.sum() == pytest.approx(0.25, abs=1e-14)


def test_switching_gradient_matches_load_pairing(rng):
    # <gradients, (du1, du2)>_{1/n} equals the load pairing <p, load(du)>
    mesh = fem.build_mesh(8)
    p = rng.normal(size=mesh.num_nodes)
    g1, g2 = SwitchingControl(mesh, np.zeros((2, 8))).restrict(fem.element_means(mesh, p)).values
    du1 = rng.normal(size=8)
    du2 = rng.normal(size=8)
    lhs = (g1 @ du1 + g2 @ du2) / mesh.n
    rhs = p @ switching_load(mesh, du1, du2)
    assert lhs == pytest.approx(rhs, rel=1e-12)
