"""Control problems on the unit square: tracking functional, penalties, gradients.

A problem owns the mesh, the assembled operator and the interpolated target,
and exposes the handful of evaluations the thresholding loop needs: f, its
adjoint-based gradient (self-adjoint operator, so one extra solve) and the
penalty g.  The control types carry their own support mask (a bool array)
and its measure.  A state or an adjoint is one PDE solve, so f costs 1
and its gradient 2; the solver tallies the paper's count from that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem

L0 = "l0"
L1 = "l1"
SWITCHING = "switching"

PENALTY_KINDS = (L0, L1, SWITCHING)


def default_target(x1, x2):
    """Oscillatory tracking target used by the 2-D benchmark problem."""
    return 10.0 * x1 * np.sin(5.0 * x1) * np.cos(7.0 * x2)


def zero_target(x1, x2):
    return np.zeros_like(np.asarray(x1, dtype=float))


def switching_target(x1, x2):
    return x1 * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)


def unsolvable_target(alpha, beta):
    """Constant target for which the support-penalized problem has no minimizer.

    The constant control sqrt(beta/alpha) solves the convexified problem with
    gradient identically -sqrt(2*alpha*beta); the smooth part alone is
    minimized by target/(1+alpha).
    """
    value = math.sqrt(beta / alpha) + math.sqrt(2.0 * alpha * beta)
    return lambda x1, x2: np.full_like(np.asarray(x1, dtype=float), value)


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of one control problem instance.

    beta is the support-penalty weight for the l0 and switching penalties and
    the L1 weight (often written gamma) in l1 mode.
    """

    alpha: float
    beta: float
    bound: float = math.inf
    penalty: str = L0
    pde: str = fem.DIRICHLET_POISSON
    y_d: object = default_target
    mesh_n: int = 40

    def __post_init__(self):
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite nonnegative real, got {self.alpha}")
        if not (self.beta > 0) or not math.isfinite(self.beta):
            raise ValueError(f"beta must be a finite positive real, got {self.beta}")
        if not (self.bound > 0):
            raise ValueError(f"bound must be positive (or +inf), got {self.bound}")
        if self.penalty not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty {self.penalty!r}")
        if self.pde not in (fem.DIRICHLET_POISSON, fem.NEUMANN_HELMHOLTZ):
            raise ValueError(f"unknown pde kind {self.pde!r}")
        if not isinstance(self.mesh_n, int) or self.mesh_n < 1:
            raise ValueError(f"mesh_n must be a positive integer, got {self.mesh_n}")
        if not callable(self.y_d):
            raise ValueError("y_d must be callable (x1, x2) -> value")
        if self.penalty == SWITCHING:
            if self.pde != fem.DIRICHLET_POISSON:
                raise ValueError("the switching problem uses the Dirichlet Laplacian")
            if self.mesh_n % 4:
                raise ValueError(f"the switching problem needs 4 | mesh_n, got {self.mesh_n}")
            if not math.isinf(self.bound):
                raise ValueError(f"the switching problem takes no bound (bound = inf), got {self.bound}")


class ControlProblem:
    """Tracking problem 0.5*||y_u - y_d||^2 + g(u) for the l0, l1 and switching penalties.

    The control space is the penalty's: a `fem.ControlField` (one value per
    triangle) for l0 and l1, a `SwitchingControl` (two 1-D controls on the
    strip grid) for switching.  A control expands itself into per-triangle
    load values (`cells`) and restricts per-triangle adjoint means to its own
    gradient (`restrict`), and carries its own norm and measure, so only the
    zero control and the l1 penalty line depend on the penalty.  States, the
    adjoint and the target are plain arrays of nodal values.

    A preassembled operator may be passed to share its solver set-up across
    problem instances (penalty sweeps on one mesh).
    """

    def __init__(self, spec: ProblemSpec, pde=None):
        self.spec = spec
        if pde is not None:
            if pde.mesh.n != spec.mesh_n or pde.pde_kind != spec.pde:
                raise ValueError("preassembled operator does not match the problem spec")
            self.mesh = pde.mesh
            self.pde = pde
        else:
            self.mesh = fem.build_mesh(spec.mesh_n)
            self.pde = fem.assemble(self.mesh, spec.pde)
        self.target = fem.interpolate_nodal(self.mesh, spec.y_d)
        if not np.all(np.isfinite(self.target)):
            raise ValueError("the target y_d has non-finite values on the mesh nodes")

    # -- evaluations ------------------------------------------------------

    def zero_control(self):
        if self.spec.penalty == SWITCHING:
            return SwitchingControl(self.mesh, np.zeros((2, self.mesh.n)))
        return fem.ControlField(self.mesh, np.zeros(self.mesh.num_triangles))

    def state(self, u):
        """Nodal state y_u: one PDE solve (AssembledPDE.solve) of the control's load, summed on the node grid."""
        return self.pde.solve(fem.nodal_load(self.mesh, u.cells()))

    def _tracking(self, y):
        r = y - self.target
        mr = self.pde.mass @ r
        return 0.5 * float(r @ mr), mr

    def eval_f(self, u):
        """Tracking value 0.5*||y_u - y_d||^2 (one PDE solve)."""
        return self._tracking(self.state(u))[0]

    def value_and_grad(self, u):
        """f and its gradient on the control space (two PDE solves).

        The gradient is the Riesz representative of df in the control space:
        the adjoint state averaged per triangle, restricted by the control.
        """
        f, mr = self._tracking(self.state(u))
        p = self.pde.solve(mr)
        return f, u.restrict(fem.element_means(self.mesh, p))

    def eval_g(self, u):
        s = self.spec
        quad = u.norm_sq(0.5 * s.alpha)
        if s.penalty == L1:
            return quad + s.beta * self.mesh.triangle_area * float(np.abs(u.values).sum())
        return quad + s.beta * u.support_measure()

    def l1_equivalence_check(self, u, tol=1e-8):
        """True iff u is bang-bang: every cell value in {-b, 0, b} up to tol."""
        b = self.spec.bound
        if math.isinf(b):
            raise ValueError("the bang-bang check needs a finite bound")
        v = np.abs(u.values)
        return bool(np.all((v <= tol) | (np.abs(v - b) <= tol)))


@dataclass(eq=False)
class SwitchingControl:
    """Two 1-D controls on the strip grid, stored as rows of a (2, n) array.

    The strip grid is the 1-D interval (0, 1) cut into the mesh's n columns,
    strips of width 1/n, so norms and measures are sums over strips divided
    by n.  Control k acts on band k: band 1 is (0,1) x (0, 1/4), band 2 is
    (0,1) x (3/4, 1), each n/4 rows of grid squares (4 | n).  Triangles are
    numbered by row, column, then lower before upper, so both maps read the
    bands and strips off the numbering.  The support mask (`support_mask()`)
    is one bool per strip: the overlap set, where both controls act.
    """

    mesh: fem.Mesh
    values: np.ndarray

    def cells(self):
        """Per-triangle load values: u1 on band 1, u2 on band 2, zero between."""
        n = self.mesh.n
        c = np.zeros((n, n, 2))
        c[: n // 4] = self.u1[:, None]
        c[3 * n // 4 :] = self.u2[:, None]
        return c.ravel()

    def restrict(self, means):
        """Per-strip gradient: n * the integral of the adjoint over band k and strip j.

        The band's area * means are summed one triangle at a time from +0.0,
        in triangle order (a reduction over the leading axis adds row by row),
        as a scatter into zeros would; the factor n turns the integral into
        the Riesz representative on the strip grid.
        """
        n = self.mesh.n
        w = (means * self.mesh.triangle_area).reshape(n, n, 2).transpose(0, 2, 1)
        bands = (w[: n // 4], w[3 * n // 4 :])
        g = [np.add.reduce(band.reshape(-1, n), axis=0, initial=0.0) * n for band in bands]
        return SwitchingControl(self.mesh, np.stack(g))

    @property
    def u1(self):
        return self.values[0]

    @property
    def u2(self):
        return self.values[1]

    def norm_sq(self, scale):
        """scale * (|u1|^2 + |u2|^2) on the strip grid.

        The scale is multiplied in before the division by n, the rounding
        order the penalty has always used.
        """
        return scale * float((self.values * self.values).sum()) / self.mesh.n

    def diff_norm(self, other):
        d = self.values - other.values
        return math.sqrt(float((d * d).sum()) / self.mesh.n)

    def measure(self, mask):
        """Length of the union of the strips where mask is set."""
        return float(np.count_nonzero(mask)) / self.mesh.n

    def support_mask(self):
        """The overlap set {u1*u2 != 0}, the set the switching penalty charges, one bool per strip."""
        return self.u1 * self.u2 != 0.0

    def support_measure(self):
        """Length of the overlap set."""
        return self.measure(self.support_mask())


# kept only because perfbench/spans.py hooks methods through this name
SwitchingProblem = ControlProblem


def make_problem(spec: ProblemSpec, pde=None):
    return ControlProblem(spec, pde=pde)
