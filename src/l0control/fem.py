"""Structured P1 finite elements on the unit square.

The mesh is the uniform right-triangle triangulation of (0,1)^2 with n
subdivisions per side: nodes are numbered row-major, every grid square is
split along its lower-left to upper-right diagonal, and within a square the
lower triangle precedes the upper one.  All triangles have area 1/(2n^2) and
the longest edge is h = sqrt(2)/n.  A Mesh holds only n and builds its
node, triangle and boundary arrays on access: a set-up stores only the mass,
the load map and the solver.  States are P1 nodal fields, plain arrays of
one value per node; controls are piecewise constants on triangles.

Two operators are solved: the Dirichlet Laplacian (-lap y = u on the
interior nodes, y = 0 on the boundary) and the Neumann Helmholtz operator
(-lap y + y = u with natural boundary conditions).  On this mesh the
stiffness and the mass are 7-diagonal stencils with fixed element entries
(the exact P1 values 1, 1/2, -1/2, 0 for the stiffness; 2a/12 and a/12 with
the triangle area a for the mass), so they are summed on the node grid into
the rows of one diagonal-storage (DIA) array and kept in that layout; the
load map's columns (CSC) are written on the node grid too, in the index
dtype scipy keeps.  Products with either sum each row in ascending column
order, as CSR products do, so they have the bits of the CSR products.
Both operators are solved by transforms; nothing is factorized.  A type-I
sine transform solves the interior Dirichlet 5-point stencil exactly (the fast
Poisson solver of Buzbee, Golub and Nielson, 1970), so the Dirichlet set-up
builds no stiffness matrix.  A type-I cosine transform inverts the Neumann
stiffness plus the lumped mass, K + W(x)W/n^2 with W = diag(1/2, 1, ..., 1, 1/2),
exactly; that preconditions CG on K + M.  scipy is imported inside the
functions that use it, so importing the package loads none of it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DIRICHLET_POISSON = "dirichlet_poisson"
NEUMANN_HELMHOLTZ = "neumann_helmholtz"


# a grid square's corners as (dx, dy) steps from its lower-left node, in the
# vertex order of its lower (ll, lr, ur) and upper (ll, ur, ul) triangle
_SQUARE_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


class SolverBreakdown(RuntimeError):
    """Raised when a linear solve does not reach the requested accuracy."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform triangulation of the unit square with 2*n^2 triangles; its arrays are built afresh on each access."""

    n: int

    @property
    def nodes(self):
        """(x, y) of every node, row-major: (n+1)^2 x 2 floats."""
        xs = np.linspace(0.0, 1.0, self.n + 1)
        return np.stack(np.broadcast_arrays(xs, xs[:, None]), axis=-1).reshape(-1, 2)

    @property
    def triangles(self):
        """Vertex indices of every triangle, 2n^2 x 3, in triangle order."""
        return _vertex_grid(self.n, np.intp)

    @property
    def boundary_nodes(self):
        """Indices of the nodes on the boundary, ascending."""
        on_boundary = np.zeros((self.n + 1, self.n + 1), dtype=bool)
        on_boundary[[0, -1]] = on_boundary[:, [0, -1]] = True
        return np.flatnonzero(on_boundary)

    @property
    def num_nodes(self):
        return (self.n + 1) ** 2

    @property
    def num_triangles(self):
        return 2 * self.n * self.n

    @property
    def triangle_area(self):
        return 1.0 / (2.0 * self.n * self.n)

    @property
    def mesh_size(self):
        return math.sqrt(2.0) / self.n

    def centroid_axes(self):
        """Centroid x by (column, t) and centroid y by (row, t), t = 0 lower, 1 upper.

        A node's x depends only on its column and its y only on its row, both values of
        one linspace, so these (n, 2) arrays hold every value of element_means(mesh, mesh.nodes).
        """
        n, xs = self.n, np.linspace(0.0, 1.0, self.n + 1)
        x = np.stack([_mean3(*(xs[dx : dx + n] for dx, _ in tri)) for tri in _SQUARE_TRIANGLES], axis=1)
        y = np.stack([_mean3(*(xs[dy : dy + n] for _, dy in tri)) for tri in _SQUARE_TRIANGLES], axis=1)
        return x, y


def _vertex_grid(n, dtype):
    """Every triangle's vertex indices in an integer dtype, (2n^2, 3) in triangle order."""
    # corner i of triangle t of each square, the squares row-major: the triangle list's own order
    k, steps = n + 1, np.arange(n, dtype=dtype)
    lower_left = (k * steps)[:, None] + steps
    triangles = np.empty((n, n, 2, 3), dtype=dtype)
    for t, tri in enumerate(_SQUARE_TRIANGLES):
        for i, (dx, dy) in enumerate(tri):
            np.add(lower_left, dx + k * dy, out=triangles[:, :, t, i])
    return triangles.reshape(2 * n * n, 3)


def _index_dtype(n):
    """int32 while the load map's 6n^2 entries and (n+1)^2 rows fit in it, else int64, as scipy picks."""
    return np.int32 if max(6 * n * n, (n + 1) ** 2) <= np.iinfo(np.int32).max else np.int64


@dataclass(eq=False)
class ControlField:
    """One value per triangle (piecewise-constant function)."""

    mesh: Mesh
    values: np.ndarray

    def cells(self):
        """The per-triangle values of the load (the identity here)."""
        return self.values

    def restrict(self, means):
        """The control-space gradient of per-triangle adjoint means (the identity here)."""
        return ControlField(self.mesh, means)

    def norm_sq(self, scale):
        """scale * ||u||^2 (exact L2 norm of the piecewise constant)."""
        # squares the rounded norm, not area * (v @ v): the g column depends on these bits
        return scale * math.sqrt(self.mesh.triangle_area * float(self.values @ self.values)) ** 2

    def diff_norm(self, other):
        d = self.values - other.values
        return math.sqrt(self.mesh.triangle_area * float(d @ d))

    def measure(self, mask):
        """Area of the union of the triangles where mask is set."""
        return float(np.count_nonzero(mask)) * self.mesh.triangle_area

    def support_mask(self):
        """The support {u != 0}, one bool per triangle (exact: the prox outputs exact zeros)."""
        return self.values != 0.0

    def support_measure(self):
        """Area of the support."""
        return self.measure(self.support_mask())


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_mesh_fits(n):
    """Raise MemoryError if a set-up's mass diagonals and load map (data, indices, indptr) exceed physical memory."""
    # 7 (n+1)^2 + 6n^2 doubles, 6n^2 + 2n^2 + 1 indices, in Python ints: numpy's shape product can overflow
    nbytes = 8 * (7 * (n + 1) ** 2 + 6 * n * n) + np.dtype(_index_dtype(n)).itemsize * (8 * n * n + 1)
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise MemoryError(
            f"cannot allocate the n={n} mesh: its mass and load map take {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def build_mesh(n):
    """Triangulate (0,1)^2 with n subdivisions per side (2*n^2 triangles)."""
    if n < 1:
        raise ValueError(f"mesh subdivisions must be >= 1, got {n}")
    check_mesh_fits(n)
    return Mesh(n)


# exact P1 stiffness of the two triangles in that vertex order; it does not depend on h
_STIFFNESS_LOCAL = (
    ((0.5, -0.5, 0.0), (-0.5, 1.0, -0.5), (0.0, -0.5, 0.5)),
    ((0.5, 0.0, -0.5), (0.0, 0.5, -0.5), (-0.5, -0.5, 1.0)),
)


def _stencil_matrix(mesh, local):
    """Sum the element matrices local[t] of every lower (t=0) and upper (t=1) triangle.

    Each row is a node's stencil over its (dx, dy) neighbours, dx, dy in {-1, 0, 1};
    the weight of an offset is summed on the node grid, one slice per triangle
    corner, in triangle-index order (squares to the lower left first, lower
    before upper).  The result is the 7-diagonal matrix that a COO scatter of
    the element matrices gives, without the scatter, kept in diagonal storage:
    its products sum each row in ascending column order, as CSR's do.
    """
    import scipy.sparse as sp

    n, k = mesh.n, mesh.n + 1
    corners = [(c, t, i) for t, tri in enumerate(_SQUARE_TRIANGLES) for i, c in enumerate(tri)]
    # a node is corner (dx, dy) of the square (dx, dy) steps to its lower left,
    # so triangle-index order takes larger dy, then larger dx, then lower first
    corners.sort(key=lambda ct: (-ct[0][1], -ct[0][0], ct[1]))
    offsets = sorted({(ex - dx) + k * (ey - dy) for tri in _SQUARE_TRIANGLES for dx, dy in tri for ex, ey in tri})
    data = np.zeros((len(offsets), k, k))
    for (dx, dy), t, i in corners:
        for j, (ex, ey) in enumerate(_SQUARE_TRIANGLES[t]):
            # dia_matrix keeps A[c - off, c] in data[d, c]; the matrix is symmetric,
            # so that is A[c, c - off]: the weight of offset -off at node c
            d = offsets.index(-((ex - dx) + k * (ey - dy)))
            data[d, dy : dy + n, dx : dx + n] += local[t][i][j]
    # the stored zeros (stencil entries that vanish, offsets that would wrap
    # around a grid row) add +-0 to a row sum, which is never -0.0
    return sp.dia_matrix((data.reshape(len(offsets), k * k), offsets), shape=(mesh.num_nodes, mesh.num_nodes))


def _load_map(mesh):
    """Sparse map from cell values to nodal loads: entries area/3 per vertex."""
    import scipy.sparse as sp

    t, idx = mesh.num_triangles, _index_dtype(mesh.n)
    data = np.full(3 * t, mesh.triangle_area / 3.0)
    # column j holds triangle j's vertices, so a product adds each node's
    # triangles in index order, as a row-wise (CSR) product would
    indptr = np.arange(0, 3 * t + 1, 3, dtype=idx)
    return sp.csc_matrix((data, _vertex_grid(mesh.n, idx).ravel(), indptr), shape=(mesh.num_nodes, t))


@dataclass(eq=False)
class AssembledPDE:
    """Mass matrix (DIA), control-to-load map (CSC) and the operator's solver on one mesh."""

    mesh: Mesh
    pde_kind: str
    mass: object
    load_map: object
    _solver: object

    def solve(self, rhs):
        """Nodal solution for a full nodal rhs, which is left unchanged.

        Dirichlet: the 5-point stencil on the interior rows of rhs; its
        boundary rows are ignored and those of the result are 0.
        Neumann: K + M on every node.
        """
        return self._solver(rhs)


def _eigenvalue_line(n):
    # eigenvalues 2 - 2cos(j pi/n), j = 0..n, of the 1-D second difference (DCT-I;
    # DST-I takes [1:-1]) as 4 sin^2(j pi/2n), free of cancellation at small j
    return 4.0 * np.sin(np.pi * np.arange(n + 1) / (2 * n)) ** 2


def _dirichlet_poisson_solver(n):
    """Exact solve of the 5-point stencil on the (n-1)^2 interior nodes.

    Takes the full nodal rhs and transforms its interior view of the node
    grid; the solution goes into the interior of a zeroed grid, so the
    boundary rows of the rhs are ignored and those of the result are 0.
    """
    from scipy.fft import dstn, idstn

    k = n + 1
    line = _eigenvalue_line(n)[1:-1]
    eigenvalues = line[:, None] + line[None, :]

    def solve(rhs):
        out = np.zeros((k, k))
        if n > 1:
            coeffs = dstn(rhs.reshape(k, k)[1:-1, 1:-1], type=1)
            coeffs /= eigenvalues
            out[1:-1, 1:-1] = idstn(coeffs, type=1, overwrite_x=True)
        return out.ravel()

    return solve


def _neumann_helmholtz_solver(system, n):
    """CG on system = K + M, preconditioned by the exact DCT-I inverse of K + W(x)W/n^2.

    K = W(x)K1 + K1(x)W with K1 the 1-D Neumann second difference, so
    K + W(x)W/n^2 = (W(x)W)(A(x)I + I(x)A + I/n^2), and DCT-I diagonalizes A = W^-1 K1.
    """
    import scipy.sparse.linalg as spla
    from scipy.fft import dctn, idctn

    w = np.r_[0.5, np.ones(n - 1), 0.5]
    weights, line = np.outer(w, w), _eigenvalue_line(n)
    eigenvalues = line[:, None] + line[None, :] + 1.0 / (n * n)
    precond = spla.LinearOperator(system.shape, matvec=lambda r: idctn(
        dctn(r.reshape(n + 1, n + 1) / weights, type=1) / eigenvalues, type=1).ravel())

    # the Neumann operator has an unknown at every node, so CG's solution is the nodal result
    def cg_solve(rhs):
        sol, info = spla.cg(system, rhs, rtol=1e-13, atol=0.0, M=precond)
        if info != 0:
            raise SolverBreakdown(f"CG failed to converge (info={info}, n={n})")
        return sol

    return cg_solve


def assemble(mesh, pde_kind):
    """Assemble the mass and the load map and prepare a reusable solver for the operator.

    Only the Neumann operator assembles its stiffness: the CG multiplies by
    K + M.  The Dirichlet solve is a transform and reads no matrix.
    """
    if pde_kind not in (DIRICHLET_POISSON, NEUMANN_HELMHOLTZ):
        raise ValueError(f"unknown pde kind {pde_kind!r}")
    # the P1 mass matrix (1 + delta_ij) a/12 is the same on both triangles
    m_local = (np.ones((3, 3)) + np.eye(3)) * (mesh.triangle_area / 12.0)
    mass = _stencil_matrix(mesh, (m_local, m_local))
    if pde_kind == DIRICHLET_POISSON:
        solver = _dirichlet_poisson_solver(mesh.n)
    else:
        solver = _neumann_helmholtz_solver(_stencil_matrix(mesh, _STIFFNESS_LOCAL) + mass, mesh.n)
    return AssembledPDE(mesh=mesh, pde_kind=pde_kind, mass=mass, load_map=_load_map(mesh), _solver=solver)


def _per_triangle(mesh, values, fn):
    """fn(a, b, c) of every triangle's vertex values, in triangle order.

    The vertex values are node-grid slices, not a gather through the
    triangle list; fn sees them in the triangles' own vertex order, so sums
    over them round as the gathered rows do.
    """
    n = mesh.n
    grid = values.reshape(n + 1, n + 1, *values.shape[1:])
    per_square = [fn(*(grid[dy : dy + n, dx : dx + n] for dx, dy in tri)) for tri in _SQUARE_TRIANGLES]
    return np.stack(per_square, axis=2).reshape(-1, *values.shape[1:])


def _mean3(a, b, c):
    # the sum and the division of ndarray.mean over three values
    return (a + b + c) / 3


def element_means(mesh, p):
    """Per-triangle averages of the nodal field p (exact mean for P1)."""
    return _per_triangle(mesh, p, _mean3)


def interpolate_nodal(mesh, fun):
    """Nodal values of a callable (x1, x2) -> value."""
    return np.asarray(fun(*mesh.nodes.T), dtype=float)


def l2_norm_state(mesh, y):
    """Exact L2 norm of the nodal field y: per-triangle quadratic form of the mass matrix."""
    sq = _per_triangle(mesh, y, lambda a, b, c: a * a + b * b + c * c + (a + b + c) ** 2)
    return math.sqrt(max(mesh.triangle_area / 12.0 * sq.sum(), 0.0))

