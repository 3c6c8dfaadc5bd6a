"""Control problems on the unit square: tracking functional, penalties, gradients.

A problem owns the mesh, the assembled operator and the interpolated target,
and exposes the handful of evaluations the thresholding loop needs: f and its
adjoint-based gradient (self-adjoint operator, so one extra solve), the
penalty g, the pointwise prox, and support bookkeeping.  A per-problem
counter tracks PDE solves: one per state or adjoint solve, so a gradient
costs 2 and every line-search trial costs 1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fem
from . import prox as proxmod

L0 = "l0"
L1 = "l1"
SWITCHING = "switching"

PENALTY_KINDS = (L0, L1, SWITCHING)

__all__ = [
    "L0",
    "L1",
    "SWITCHING",
    "ProblemSpec",
    "EvaluationBudget",
    "ControlProblem",
    "SwitchingControl",
    "SwitchingProblem",
    "make_problem",
    "default_target",
    "zero_target",
    "switching_target",
    "unsolvable_target",
]


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
                raise ValueError("the switching problem needs 4 | mesh_n")


class EvaluationBudget:
    """PDE-solve counter (one increment per state or adjoint solve)."""

    def __init__(self):
        self._count = 0
        self._pause_depth = 0

    @property
    def count(self):
        return self._count

    def add(self, n=1):
        if self._pause_depth == 0:
            self._count += n

    @contextmanager
    def paused(self):
        """Suspend counting, e.g. for post-run diagnostics; pauses nest."""
        self._pause_depth += 1
        try:
            yield
        finally:
            self._pause_depth -= 1


class ControlProblem:
    """Tracking problem with a per-triangle control and an l0 or l1 penalty.

    A preassembled operator may be passed to share its solver set-up across
    problem instances (penalty sweeps on one mesh).
    """

    def __init__(self, spec: ProblemSpec, pde=None):
        if spec.penalty == SWITCHING:
            raise ValueError("use SwitchingProblem for the switching penalty")
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
        self.budget = EvaluationBudget()

    # -- evaluations ------------------------------------------------------

    def zero_control(self):
        return fem.ControlField(self.mesh, np.zeros(self.mesh.num_triangles))

    def _state(self, u):
        y = fem.solve_state(self.pde, u)
        self.budget.add(1)
        return y

    def _tracking(self, y):
        r = y.values - self.target.values
        mr = self.pde.mass @ r
        return 0.5 * float(r @ mr), r, mr

    def eval_f(self, u):
        """Tracking value 0.5*||y_u - y_d||^2 (one PDE solve)."""
        f, _, _ = self._tracking(self._state(u))
        return f

    def value_and_grad(self, u):
        """f and its gradient on the control space (two PDE solves).

        The gradient is the adjoint state averaged per triangle, i.e. the
        Riesz representative of df in the piecewise-constant subspace.
        """
        y = self._state(u)
        f, _, mr = self._tracking(y)
        p = fem.StateField(self.mesh, self.pde.solve(mr))
        self.budget.add(1)
        return f, fem.element_means(p)

    def grad_f(self, u):
        return self.value_and_grad(u)[1]

    def eval_g(self, u):
        s = self.spec
        quad = 0.5 * s.alpha * fem.l2_norm_control(u) ** 2
        if s.penalty == L0:
            return quad + s.beta * self.support_measure(u)
        return quad + s.beta * self.mesh.triangle_area * float(np.abs(u.values).sum())

    def objective(self, u):
        return self.eval_f(u) + self.eval_g(u)

    # -- support bookkeeping ----------------------------------------------

    def support_measure(self, u):
        """Measure of {u != 0}; the zero test is exact since prox outputs exact zeros."""
        return u.support_measure()

    def chi(self, u):
        return fem.ControlField(self.mesh, (u.values != 0.0).astype(float))

    def chi_distance(self, chi1, chi2):
        return self.mesh.triangle_area * float(np.count_nonzero(chi1.values != chi2.values))

    def separation_threshold(self, L):
        return proxmod.separation_threshold(
            proxmod.ProxParams(L=L, alpha=self.spec.alpha, beta=self.spec.beta, bound=self.spec.bound)
        )

    def l1_equivalence_check(self, u, tol=1e-8):
        """True iff u is bang-bang: every cell value in {-b, 0, b} up to tol."""
        b = self.spec.bound
        if math.isinf(b):
            raise ValueError("the bang-bang check needs a finite bound")
        v = np.abs(u.values)
        return bool(np.all((v <= tol) | (np.abs(v - b) <= tol)))


@dataclass(eq=False)
class SwitchingControl:
    """Two 1-D controls on the strip grid, stored as rows of a (2, n) array."""

    layout: fem.SwitchingLayout
    values: np.ndarray

    @property
    def u1(self):
        return self.values[0]

    @property
    def u2(self):
        return self.values[1]

    def copy(self):
        return SwitchingControl(self.layout, self.values.copy())

    def diff_norm(self, other):
        d = self.values - other.values
        return math.sqrt(float((d * d).sum()) / self.layout.mesh.n)

    def overlap_measure(self):
        return float(np.count_nonzero(self.u1 * self.u2 != 0.0)) / self.layout.mesh.n


class SwitchingProblem:
    """Tracking problem driven by two 1-D controls acting on horizontal bands.

    The support penalty charges the measure of the set where both controls
    are active at the same x1; the prox decouples into independent 2-vector
    problems per strip.
    """

    def __init__(self, spec: ProblemSpec, pde=None):
        if spec.penalty != SWITCHING:
            raise ValueError("SwitchingProblem needs penalty='switching'")
        self.spec = spec
        if pde is not None:
            if pde.mesh.n != spec.mesh_n or pde.pde_kind != fem.DIRICHLET_POISSON:
                raise ValueError("preassembled operator does not match the problem spec")
            self.mesh = pde.mesh
            self.pde = pde
        else:
            self.mesh = fem.build_mesh(spec.mesh_n)
            self.pde = fem.assemble(self.mesh, fem.DIRICHLET_POISSON)
        self.layout = fem.SwitchingLayout.build(self.mesh)
        self.target = fem.interpolate_nodal(self.mesh, spec.y_d)
        self.budget = EvaluationBudget()

    def zero_control(self):
        return SwitchingControl(self.layout, np.zeros((2, self.mesh.n)))

    def _state(self, u: SwitchingControl):
        load = self.pde.load_map @ self.layout.cell_values(u.u1, u.u2)
        y = fem.StateField(self.mesh, self.pde.solve(load))
        self.budget.add(1)
        return y

    def _tracking(self, y):
        r = y.values - self.target.values
        mr = self.pde.mass @ r
        return 0.5 * float(r @ mr), r, mr

    def eval_f(self, u):
        f, _, _ = self._tracking(self._state(u))
        return f

    def value_and_grad(self, u):
        y = self._state(u)
        f, _, mr = self._tracking(y)
        p = fem.StateField(self.mesh, self.pde.solve(mr))
        self.budget.add(1)
        g1, g2 = fem.switching_gradients(self.mesh, p, self.layout)
        return f, SwitchingControl(self.layout, np.stack([g1, g2]))

    def grad_f(self, u):
        return self.value_and_grad(u)[1]

    def eval_g(self, u):
        s = self.spec
        quad = 0.5 * s.alpha * float((u.values * u.values).sum()) / self.mesh.n
        return quad + s.beta * u.overlap_measure()

    def objective(self, u):
        return self.eval_f(u) + self.eval_g(u)

    def support_measure(self, u):
        """Measure of the overlap set {u1*u2 != 0} on the 1-D interval."""
        return u.overlap_measure()

    def chi(self, u):
        return (u.u1 * u.u2 != 0.0).astype(float)

    def chi_distance(self, chi1, chi2):
        return float(np.count_nonzero(chi1 != chi2)) / self.mesh.n


def make_problem(spec: ProblemSpec, pde=None):
    if spec.penalty == SWITCHING:
        return SwitchingProblem(spec, pde=pde)
    return ControlProblem(spec, pde=pde)
