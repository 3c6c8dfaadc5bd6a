"""Structured P1 finite elements on the unit square.

The mesh is the uniform right-triangle triangulation of (0,1)^2 with n
subdivisions per side: nodes are numbered row-major, every grid square is
split along its lower-left to upper-right diagonal, and within a square the
lower triangle precedes the upper one.  All triangles have area 1/(2n^2) and
the longest edge is h = sqrt(2)/n.  A Mesh holds only n and builds its
node and boundary arrays on access.  States are P1 nodal fields,
plain arrays of one value per node; controls are piecewise constants on
triangles, loaded by `nodal_load`.

Two operators are solved: the Dirichlet Laplacian (-lap y = u on the
interior nodes, y = 0 on the boundary) and the Neumann Helmholtz operator
(-lap y + y = u with natural boundary conditions).  On this mesh the
stiffness and the mass are 7-point stencils with fixed element entries
(the exact P1 values 1, 1/2, -1/2, 0 for the stiffness; 2a/12 and a/12 with
the triangle area a for the mass).  A node's stencil depends only on its
class, (first, interior, last) row by (first, interior, last) column, so
the stencils are summed once per class on a grid of at most 3 x 3 nodes,
and a ClassStencil applies those nine rows on the node grid: no matrix is
stored.  The Neumann K + M is the same operator on the sum of the two class
tables.  A set-up holds the class sums, O(n) boundary tables and the
solver.  The operator products and the node-grid load sum each row in
ascending column order, as CSR products do, so they have the bits of the
CSR products.
Both operators are solved by transforms; nothing is factorized.  A type-I
sine transform solves the interior Dirichlet 5-point stencil exactly (the fast
Poisson solver of Buzbee, Golub and Nielson, 1970), so the Dirichlet set-up
reads no stiffness.  A type-I cosine transform inverts the Neumann
stiffness plus the lumped mass, K + W(x)W/n^2 with W = diag(1/2, 1, ..., 1, 1/2),
exactly; that preconditions CG on K + M.  scipy is imported inside the
functions that use it, so importing the package loads none of it, and every
path loads only scipy.fft.
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

# ((dx, dy), t, i): corner (dx, dy) is vertex i of triangle t.  A node is corner (dx, dy) of the square
# (dx, dy) steps to its lower left, so by larger dy, larger dx, then lower first, its triangles come in index order
_NODE_CORNERS = sorted(((c, t, i) for t, tri in enumerate(_SQUARE_TRIANGLES) for i, c in enumerate(tri)),
                       key=lambda ct: (-ct[0][1], -ct[0][0], ct[1]))
# the seven (dx, dy) steps from a node to its stencil neighbours, in the order of their offsets dx + k*dy
# for every row length k >= 2 (that is, by dy, then dx)
_STENCIL_STEPS = sorted({(ex - dx, ey - dy) for tri in _SQUARE_TRIANGLES for dx, dy in tri for ex, ey in tri},
                        key=lambda step: (step[1], step[0]))
BLOCK_CELLS = 32768  # cells per pass of a blocked elementwise loop: it stays in cache, its temporaries in the heap


class SolverBreakdown(RuntimeError):
    """Raised when the Neumann CG meets a non-finite residual norm or reaches its iteration cap."""


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
    def boundary_nodes(self):
        """Indices of the boundary nodes, ascending: the first row, both ends of each row between, the last row."""
        k = self.n + 1
        ends = k * np.arange(1, k - 1)[:, None] + [0, k - 1]
        return np.concatenate([np.arange(k), ends.ravel(), np.arange(k * (k - 1), k * k)])

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
    """Raise MemoryError if a set-up's Dirichlet eigenvalue grid and mass boundary tables exceed physical memory."""
    # (n-1)^2 doubles, and per boundary node (4n of them) its index and 7 neighbour indices, flags and
    # coefficients: Python ints, as numpy's shape product can overflow
    nbytes = 8 * (n - 1) ** 2 + 4 * n * (8 + 7 * (8 + 1 + 8))
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise MemoryError(
            f"cannot allocate the n={n} mesh: its eigenvalue grid and mass boundary tables take {nbytes} bytes, "
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


def _class_sums(n, local):
    """Weight of each stencil step at each node class: a (7, 3, 3) table, (7, 2, 2) at n = 1.

    A node's row sums the element entries local[t] of the lower (t=0) and upper
    (t=1) triangles around it, and which of them exist depends only on whether
    its row and its column are the first, an interior or the last.  The sums
    are taken on a grid of k x k nodes, k = min(n+1, 3), one slice per triangle
    corner in triangle-index order, so each class gets the bits that the same
    slices summed over the whole node grid give it.
    """
    k = min(n + 1, 3)
    sums = np.zeros((len(_STENCIL_STEPS), k, k))
    for (dx, dy), t, i in _NODE_CORNERS:
        for j, (ex, ey) in enumerate(_SQUARE_TRIANGLES[t]):
            # A[c, c - off]: the weight at node c of its neighbour one step (dx - ex, dy - ey) back
            d = _STENCIL_STEPS.index((dx - ex, dy - ey))
            sums[d, dy : dy + k - 1, dx : dx + k - 1] += local[t][i][j]
    return sums


def _classes(k):
    """The class of each of k node rows (or columns): 0 first, 1 interior, 2 last (1 last at k = 2)."""
    cls = np.ones(k, dtype=np.intp)
    cls[0], cls[-1] = 0, min(k - 1, 2)
    return cls


class ClassStencil:
    """The symmetric 7-point operator whose node rows are their classes' rows of sums, applied on the node grid.

    No matrix is stored.  sums[d] holds the weight of step -_STENCIL_STEPS[d] and the steps are listed symmetric
    about the centre, so the reversed table gives each row class its neighbours' coefficients (an off-diagonal
    entry sums at most two triangles, so it has the same bits in its row and in its column).  Each row adds
    coefficient times value over its real neighbours in ascending offset order from +0.0, as a CSR product
    does, so every product has the CSR product's bits, on non-finite input too.  The nodes from (1, 1) to
    (n-1, n-1) are one flat range, taken BLOCK_CELLS at a time.  Each distinct interior coefficient (two for
    the mass, three for K + M) multiplies the band and the k + 1 nodes on either side once, and each step adds
    its shifted slice of that product: a term is the same double whichever step reads it.  The boundary column
    nodes in the range read neighbours across a row end, and the boundary pass overwrites them.  That pass
    gathers each boundary node's neighbours through (7, 4n) tables, and an absent neighbour adds +0.0.
    """

    def __init__(self, n, sums):
        k = n + 1
        coef = sums[::-1]
        self.n, self._coef = n, coef
        # the interior class's distinct coefficients, as 0-d arrays (cheaper to multiply by than Python floats),
        # and for each step in ascending offset order its start in a product that begins k + 1 nodes before
        # the band, and the index of its coefficient
        values = coef[:, 1, 1].tolist()
        distinct = list(dict.fromkeys(values))
        self._scales = [np.array(c) for c in distinct]
        self._first, *self._rest = [(k + 1 + sx + k * sy, distinct.index(c))
                                    for (sx, sy), c in zip(_STENCIL_STEPS, values)]
        # each boundary node's neighbour along each step; an absent one is the node itself, with coefficient 0
        self._nodes = Mesh(n).boundary_nodes
        y, x = np.divmod(self._nodes, k)
        steps = np.array(_STENCIL_STEPS)[:, :, None]
        nx, ny = x + steps[:, 0], y + steps[:, 1]
        self._absent = (nx < 0) | (nx >= k) | (ny < 0) | (ny >= k)
        self._neighbours = np.where(self._absent, self._nodes, nx + k * ny)
        cls = _classes(k)
        self._edge_coef = coef[:, cls[y], cls[x]]

    def __matmul__(self, x):
        k = self.n + 1
        x, out = x.ravel(), np.empty(k * k)
        start, stop = k + 1, k * k - k - 1
        # a band's products reach k + 1 = start nodes past either end of it
        products = [np.empty(max(0, min(BLOCK_CELLS, stop - start)) + 2 * start) for _ in self._scales]
        (first, g0), rest = self._first, self._rest
        for a in range(start, stop, BLOCK_CELLS):
            b = min(a + BLOCK_CELLS, stop)
            for p, c in zip(products, self._scales):
                np.multiply(x[a - start : b + start], c, out=p[: b - a + 2 * start])
            band = out[a:b]
            np.add(products[g0][first : first + b - a], 0.0, out=band)  # the sum starts from +0.0
            for off, g in rest:
                band += products[g][off : off + b - a]
        terms = x[self._neighbours]
        np.copyto(terms, 0.0, where=self._absent)
        terms *= self._edge_coef
        # an outer-axis reduction adds the seven rows in order
        out[self._nodes] = np.add.reduce(terms, axis=0, initial=0.0)
        return out

    def row_sums(self):
        """Each row's sum as a CSR row sum takes it: np.add.reduceat over its nonzero entries in column order."""
        rows = self._coef.transpose(1, 2, 0)
        table = np.array([[np.add.reduceat(c[c != 0.0], [0])[0] for c in row] for row in rows])
        cls = _classes(self.n + 1)
        return table[np.ix_(cls, cls)].ravel()


@dataclass(eq=False)
class AssembledPDE:
    """The mass (a ClassStencil) and the operator's solver on one mesh; loads are summed by nodal_load."""

    mesh: Mesh
    pde_kind: str
    mass: object
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
    The loop is scipy 1.17's cg step for step (x0 = 0, rtol 1e-13, at most 10 iterations per node,
    np.dot inner products), so it has its bits; a residual norm that is not finite also stops it.
    """
    from scipy.fft import dctn, idctn

    w = np.r_[0.5, np.ones(n - 1), 0.5]
    weights, line = np.outer(w, w), _eigenvalue_line(n)
    eigenvalues = line[:, None] + line[None, :] + 1.0 / (n * n)
    max_iter = 10 * (n + 1) ** 2

    # the Neumann operator has an unknown at every node, so CG's solution is the nodal result
    def cg_solve(rhs):
        b_norm = np.linalg.norm(rhs)
        if b_norm == 0:
            return rhs
        x, r, atol = np.zeros_like(rhs), rhs.copy(), 1e-13 * b_norm
        for it in range(max_iter):
            r_norm = np.linalg.norm(r)
            if r_norm < atol:
                return x
            if not math.isfinite(r_norm):
                raise SolverBreakdown(f"non-finite CG residual norm {r_norm} after {it} iterations (n={n})")
            z = idctn(dctn(r.reshape(n + 1, n + 1) / weights, type=1) / eigenvalues, type=1).ravel()
            rho = np.dot(r, z)
            p = z if it == 0 else p * (rho / rho_prev) + z
            q = system @ p
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        raise SolverBreakdown(f"CG failed to converge in {max_iter} iterations (n={n})")

    return cg_solve


def assemble(mesh, pde_kind):
    """Prepare the mass and a reusable solver for the operator.

    Only the Neumann operator reads its stiffness: the CG multiplies by
    K + M.  The Dirichlet solve is a transform and reads no operator.
    """
    if pde_kind not in (DIRICHLET_POISSON, NEUMANN_HELMHOLTZ):
        raise ValueError(f"unknown pde kind {pde_kind!r}")
    # the P1 mass matrix (1 + delta_ij) a/12 is the same on both triangles
    m_local = (np.ones((3, 3)) + np.eye(3)) * (mesh.triangle_area / 12.0)
    mass_sums = _class_sums(mesh.n, (m_local, m_local))
    mass = ClassStencil(mesh.n, mass_sums)
    if pde_kind == DIRICHLET_POISSON:
        solver = _dirichlet_poisson_solver(mesh.n)
    else:
        # K + M entry by entry, each the sum of a stiffness and a mass entry
        system = ClassStencil(mesh.n, _class_sums(mesh.n, _STIFFNESS_LOCAL) + mass_sums)
        solver = _neumann_helmholtz_solver(system, mesh.n)
    return AssembledPDE(mesh=mesh, pde_kind=pde_kind, mass=mass, _solver=solver)


def _per_triangle(mesh, values, fn):
    """fn(a, b, c) of every triangle's vertex values, in triangle order.

    The vertex values are node-grid slices, not a gather through the
    triangle list; fn sees them in the triangles' own vertex order, so sums
    over them round as the gathered rows do.  Each triangle's plane of
    squares is written into one output, in triangle order.
    """
    n, rest = mesh.n, values.shape[1:]
    grid, out = values.reshape(n + 1, n + 1, *rest), np.empty((n, n, 2, *rest))
    for t, tri in enumerate(_SQUARE_TRIANGLES):
        out[:, :, t] = fn(*(grid[dy : dy + n, dx : dx + n] for dx, dy in tri))
    return out.reshape(-1, *rest)


def _mean3(a, b, c):
    # the sum and the division of ndarray.mean over three values
    return (a + b + c) / 3


def element_means(mesh, p):
    """Per-triangle averages of the nodal field p (exact mean for P1)."""
    return _per_triangle(mesh, p, _mean3)


def nodal_load(mesh, cells):
    """Nodal load of the per-triangle values cells: each node sums area/3 times its triangles' values.

    The twin of element_means: area/3 * cells go into a zero-ringed grid (a plane per triangle of a square)
    and each node adds its six shifted windows in triangle-index order from +0.0, as a sparse load map's
    product does.  A missing triangle reads the ring, which adds +0.0 to a sum that is never -0.0, so every
    node gets that product's bits.  The grid holds the square rows r0-1..r1-1 of a band of node rows r0..r1-1.
    """
    n, k, planes = mesh.n, mesh.n + 1, cells.reshape(mesh.n, mesh.n, 2).transpose(2, 0, 1)
    rows = min(k, max(1, BLOCK_CELLS // (n + 2)))
    grid, out = np.empty((2, rows + 1, n + 2)), np.empty((k, k))
    grid[:, :, [0, -1]] = 0.0
    for r0 in range(0, k, rows):
        r1 = min(r0 + rows, k)
        band = grid[:, : r1 - r0 + 1]
        lo, hi = max(r0 - 1, 0), min(r1, n)
        # the ring's bottom row in the first band and its top row in the last, the squares between
        band[:, : lo - r0 + 1] = band[:, hi - r0 + 1 :] = 0.0
        np.multiply(planes[:, lo:hi], mesh.triangle_area / 3.0, out=band[:, lo - r0 + 1 : hi - r0 + 1, 1:-1])
        windows = [band[t, 1 - dy : 1 - dy + r1 - r0, 1 - dx : k + 1 - dx] for (dx, dy), t, _ in _NODE_CORNERS]
        out_band = out[r0:r1]
        np.add(windows[0], 0.0, out=out_band)
        for window in windows[1:]:
            out_band += window
    return out.ravel()


def interpolate_nodal(mesh, fun):
    """Nodal values of a callable (x1, x2) -> value."""
    return np.asarray(fun(*mesh.nodes.T), dtype=float)

