"""Structured P1 finite elements on the unit square.

The mesh is the uniform right-triangle triangulation of (0,1)^2 with n
subdivisions per side: nodes are numbered row-major, every grid square is
split along its lower-left to upper-right diagonal, and within a square the
lower triangle precedes the upper one.  All triangles have area 1/(2n^2) and
the longest edge is h = sqrt(2)/n.

States are P1 nodal fields, controls are piecewise constants on triangles.
Two operators are assembled: the Dirichlet Laplacian (-lap y = u, y = 0 on
the boundary, eliminated symmetrically) and the Neumann Helmholtz operator
(-lap y + y = u with natural boundary conditions).  The interior Dirichlet
stiffness is the 5-point stencil, so a type-I sine transform solves it exactly
with no factorization (the fast Poisson solver of Buzbee, Golub and Nielson,
1970).  The Neumann operator is factorized once per mesh, with a diagonally
preconditioned CG fallback for meshes too large to factorize comfortably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DIRICHLET_POISSON = "dirichlet_poisson"
NEUMANN_HELMHOLTZ = "neumann_helmholtz"

# above this many unknowns, the Neumann operator uses CG instead of a sparse LU
# (n = 500 factors in ~5 s and ~0.8 GB; the limit covers n = 640 studies)
DIRECT_SOLVER_LIMIT = 700_000

__all__ = [
    "DIRICHLET_POISSON",
    "NEUMANN_HELMHOLTZ",
    "Mesh",
    "StateField",
    "ControlField",
    "AssembledPDE",
    "SolverBreakdown",
    "build_mesh",
    "assemble",
    "solve_state",
    "solve_adjoint",
    "element_means",
    "interpolate_nodal",
    "l2_norm_state",
    "l2_norm_control",
    "l2_inner_control",
    "SwitchingLayout",
    "switching_loads",
    "switching_gradients",
]


class SolverBreakdown(RuntimeError):
    """Raised when a linear solve does not reach the requested accuracy."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform triangulation of the unit square with 2*n^2 triangles."""

    n: int
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def triangle_area(self):
        return 1.0 / (2.0 * self.n * self.n)

    @property
    def mesh_size(self):
        return math.sqrt(2.0) / self.n

    def centroids(self):
        return self.nodes[self.triangles].mean(axis=1)


@dataclass(eq=False)
class StateField:
    """Nodal values of a P1 function."""

    mesh: Mesh
    values: np.ndarray

    def copy(self):
        return StateField(self.mesh, self.values.copy())


@dataclass(eq=False)
class ControlField:
    """One value per triangle (piecewise-constant function)."""

    mesh: Mesh
    values: np.ndarray

    def copy(self):
        return ControlField(self.mesh, self.values.copy())

    def support_measure(self):
        return float(np.count_nonzero(self.values)) * self.mesh.triangle_area

    def diff_norm(self, other):
        d = self.values - other.values
        return math.sqrt(self.mesh.triangle_area * float(d @ d))


def build_mesh(n):
    """Triangulate (0,1)^2 with n subdivisions per side (2*n^2 triangles)."""
    if n < 1:
        raise ValueError(f"mesh subdivisions must be >= 1, got {n}")
    k = n + 1
    xs = np.linspace(0.0, 1.0, k)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (iy * k + ix).ravel()
    lr = ll + 1
    ul = ll + k
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    gx, gy = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    on_boundary = (gx == 0) | (gx == n) | (gy == 0) | (gy == n)
    boundary_nodes = np.flatnonzero(on_boundary.ravel())
    return Mesh(n=n, nodes=nodes, triangles=triangles, boundary_nodes=boundary_nodes)


def _element_geometry(mesh):
    pts = mesh.nodes[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    # b_i = y_j - y_k, c_i = x_k - x_j (cyclic): gradients of barycentric coords
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def _assemble_matrices(mesh):
    b, c, area = _element_geometry(mesh)
    inv4a = 1.0 / (4.0 * area)
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * inv4a[:, None, None]
    m_local = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nn = mesh.num_nodes
    stiffness = sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    mass = sp.coo_matrix((m_local.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return stiffness, mass


def _load_map(mesh):
    """Sparse map from cell values to nodal loads: entries area/3 per vertex."""
    t = mesh.num_triangles
    rows = mesh.triangles.ravel()
    cols = np.repeat(np.arange(t), 3)
    data = np.full(3 * t, mesh.triangle_area / 3.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(mesh.num_nodes, t)).tocsr()


@dataclass(eq=False)
class AssembledPDE:
    """Assembled operator, mass matrix, control-to-load map and solver state."""

    mesh: Mesh
    pde_kind: str
    system: sp.csr_matrix
    mass: sp.csr_matrix
    load_map: sp.csr_matrix
    free_nodes: np.ndarray
    _solver: object

    def solve(self, rhs):
        """Solve system * y = rhs (full nodal rhs); Dirichlet rows return 0."""
        reduced = rhs[self.free_nodes]
        if reduced.size == 0:
            return np.zeros(self.mesh.num_nodes)
        sol = self._solver(reduced)
        out = np.zeros(self.mesh.num_nodes)
        out[self.free_nodes] = sol
        return out


def _make_solver(matrix, use_direct):
    if use_direct:
        lu = spla.splu(matrix.tocsc())
        return lu.solve

    diag = matrix.diagonal()
    precond = spla.LinearOperator(matrix.shape, matvec=lambda x: x / diag)

    def cg_solve(rhs):
        sol, info = spla.cg(matrix, rhs, rtol=1e-12, atol=0.0, maxiter=20 * matrix.shape[0], M=precond)
        if info != 0:
            raise SolverBreakdown(f"CG failed to converge (info={info}, n={matrix.shape[0]})")
        return sol

    return cg_solve


def _dirichlet_poisson_solver(n):
    """Exact solve of the 5-point stencil on the (n-1)^2 interior nodes (row-major)."""
    # imported here so that importing the package does not load scipy.fft
    from scipy.fft import dstn, idstn

    m = n - 1
    # eigenvalues 2 - 2cos(j pi/n) of tridiag(-1, 2, -1) as 4 sin^2(j pi/2n), free of cancellation
    line = 4.0 * np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    eigenvalues = line[:, None] + line[None, :]
    return lambda rhs: idstn(dstn(rhs.reshape(m, m), type=1) / eigenvalues, type=1).ravel()


def assemble(mesh, pde_kind):
    """Assemble the chosen operator and prepare a reusable linear solver."""
    if pde_kind not in (DIRICHLET_POISSON, NEUMANN_HELMHOLTZ):
        raise ValueError(f"unknown pde kind {pde_kind!r}")
    stiffness, mass = _assemble_matrices(mesh)
    load_map = _load_map(mesh)

    if pde_kind == DIRICHLET_POISSON:
        free = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)
        system = stiffness
        solver = _dirichlet_poisson_solver(mesh.n)
    else:
        free = np.arange(mesh.num_nodes)
        system = (stiffness + mass).tocsr()
        solver = _make_solver(system, system.shape[0] <= DIRECT_SOLVER_LIMIT)

    return AssembledPDE(
        mesh=mesh,
        pde_kind=pde_kind,
        system=system,
        mass=mass,
        load_map=load_map,
        free_nodes=free,
        _solver=solver,
    )


def solve_state(pde, u: ControlField):
    """State solve: system * y = load(u)."""
    if u.mesh is not pde.mesh:
        raise ValueError("control lives on a different mesh")
    rhs = pde.load_map @ u.values
    return StateField(pde.mesh, pde.solve(rhs))


def solve_adjoint(pde, residual: StateField):
    """Adjoint solve: system * p = mass * residual (the operator is self-adjoint)."""
    if residual.mesh is not pde.mesh:
        raise ValueError("residual lives on a different mesh")
    rhs = pde.mass @ residual.values
    return StateField(pde.mesh, pde.solve(rhs))


def element_means(p: StateField):
    """Per-triangle averages of a nodal field (exact mean for P1)."""
    return ControlField(p.mesh, p.values[p.mesh.triangles].mean(axis=1))


def interpolate_nodal(mesh, fun):
    """Nodal interpolant of a callable (x1, x2) -> value."""
    return StateField(mesh, np.asarray(fun(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float))


def l2_norm_state(y: StateField):
    """Exact L2 norm of a P1 field: per-triangle quadratic form of the mass matrix."""
    v = y.values[y.mesh.triangles]
    sq = (v * v).sum(axis=1) + v.sum(axis=1) ** 2
    return math.sqrt(max(y.mesh.triangle_area / 12.0 * sq.sum(), 0.0))


def l2_norm_control(u: ControlField):
    """Exact L2 norm of a piecewise-constant field."""
    return math.sqrt(u.mesh.triangle_area * float(u.values @ u.values))


def l2_inner_control(u: ControlField, v: ControlField):
    if u.mesh is not v.mesh:
        raise ValueError("fields live on different meshes")
    return u.mesh.triangle_area * float(u.values @ v.values)


# ---------------------------------------------------------------------------
# geometry for the two-band switching configuration
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SwitchingLayout:
    """Maps triangles to vertical strips and the two horizontal control bands.

    Band 1 is (0,1) x (0, 1/4), band 2 is (0,1) x (3/4, 1); both are unions
    of mesh cells when 4 divides n.  Each 1-D control is piecewise constant
    on the n strips [j/n, (j+1)/n] of the x1 axis.
    """

    mesh: Mesh
    strip: np.ndarray
    in_band1: np.ndarray
    in_band2: np.ndarray

    @classmethod
    def build(cls, mesh):
        if mesh.n % 4:
            raise ValueError(f"switching bands need 4 | n, got n={mesh.n}")
        cent = mesh.centroids()
        strip = np.minimum((cent[:, 0] * mesh.n).astype(np.int64), mesh.n - 1)
        return cls(
            mesh=mesh,
            strip=strip,
            in_band1=cent[:, 1] < 0.25,
            in_band2=cent[:, 1] > 0.75,
        )

    def cell_values(self, u1, u2):
        """Expand the 1-D controls into a per-triangle field (zero between bands)."""
        c = np.zeros(self.mesh.num_triangles)
        c[self.in_band1] = np.asarray(u1)[self.strip[self.in_band1]]
        c[self.in_band2] = np.asarray(u2)[self.strip[self.in_band2]]
        return c


def switching_loads(mesh, u1, u2):
    """Nodal load of chi_band1 * u1(x1) + chi_band2 * u2(x1)."""
    n = mesh.n
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != (n,) or u2.shape != (n,):
        raise ValueError(f"switching controls must have one value per strip ({n})")
    return _load_map(mesh) @ SwitchingLayout.build(mesh).cell_values(u1, u2)


def switching_gradients(mesh, p: StateField, layout=None):
    """Per-strip gradient entries n * integral of p over band_k intersect strip_j.

    The factor n turns the plain integral into the Riesz representative with
    respect to the L2 inner product on the 1-D strip grid (strip width 1/n).
    """
    if layout is None:
        layout = SwitchingLayout.build(mesh)
    cell_means = p.values[mesh.triangles].mean(axis=1)
    weights = cell_means * mesh.triangle_area
    g1 = np.zeros(mesh.n)
    g2 = np.zeros(mesh.n)
    np.add.at(g1, layout.strip[layout.in_band1], weights[layout.in_band1])
    np.add.at(g2, layout.strip[layout.in_band2], weights[layout.in_band2])
    return g1 * mesh.n, g2 * mesh.n
