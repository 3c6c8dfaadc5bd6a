"""Oracles the tests check the package against, and the problem spec they
share; nothing in the package calls them.

- `separation_threshold`, `fp_membership` and
  `convexified_not_fixed_point_check`: the smallest nonzero l0 prox output,
  the explicit case analysis of the fixed-point set of the thresholding step,
  and the claim that a convexified minimizer is not such a fixed point.
- `box_threshold_reference`, `prox_l0_reference`, `prox_l1_reference` and
  `prox_switch_reference`: one-row calls of the batch search in
  `l0control.reference`.  Each returns (min_value, argmins), where argmins is
  the sorted tuple of distinct candidates whose objective lies within
  CANDIDATE_TOL of the minimum; when a grid point beats every candidate by
  more than that, argmins is empty, which callers should treat as a failure.
- `l2_norm_state`: the exact L2 norm of a P1 nodal field.
- `triangles`: the vertex indices of every triangle of a mesh, the list the
  node-grid slices of `l0control.fem` stand in for.
- `canonical`: the tie -> 0 element of a `ScalarSolutionSet`, after
  asserting the set's shape; `distance` and `contains`: how far a value lies
  from one.
- `objective_trace`: a run's objective values, its start point's first.
- `benchmark_spec`: the paper's benchmark problem (alpha = beta = 0.01,
  b = 4, Dirichlet, the default target, n = 10), with keyword overrides.
"""

import math

import numpy as np

from l0control import fem
from l0control.fem import _SQUARE_TRIANGLES, _per_triangle
from l0control.problem import ProblemSpec, default_target
from l0control.prox import TIE_TOL, ProxParams, _finite, _weight, positive, prox_l0
from l0control.reference import GRID_STEP, _admitted, penalized_quadratic_batch, search_radius, switch_batch

# ---------------------------------------------------------------------------
# the thresholding step's fixed points
# ---------------------------------------------------------------------------


def separation_threshold(p: ProxParams):
    """Smallest magnitude a nonzero prox output can take: min(b, sqrt(2*beta/(L+alpha)))."""
    w = _weight(p.L, p.alpha)
    return min(p.bound, math.sqrt(2.0 * p.beta / w))


def fp_membership(u, g, p: ProxParams):
    """Whether u reproduces itself under the thresholding step at gradient g.

    True iff u belongs to prox_l0(g, u, p), written out as the explicit case
    analysis on (u, g) with s = beta/(L+alpha):  the branch with
    sqrt(2s) <= b uses the plain threshold sqrt(2s) for the dead zone and
    alpha*b for the bound-active conditions, the branch with sqrt(2s) > b
    replaces them by b/2 + s/b expressions.  Exact ties are included
    (tolerance TIE_TOL on every defining equality and interval endpoint).
    """
    u = _finite("u", u)
    g = _finite("g", g)
    w = _weight(p.L, p.alpha)
    s = p.beta / w
    root = math.sqrt(2.0 * s)
    b = p.bound

    if math.isinf(b) or root <= b:
        zero_bound = w * root
        if not math.isinf(b):
            if abs(u + b) <= TIE_TOL and g >= p.alpha * b - TIE_TOL:
                return True
            if abs(u - b) <= TIE_TOL and g <= -p.alpha * b + TIE_TOL:
                return True
    else:
        edge = w * (0.5 * b + s / b)
        zero_bound = edge
        if abs(u + b) <= TIE_TOL and g >= edge - p.L * b - TIE_TOL:
            return True
        if abs(u - b) <= TIE_TOL and g <= -(edge - p.L * b) + TIE_TOL:
            return True

    if abs(u) <= TIE_TOL and abs(g) <= zero_bound + TIE_TOL:
        return True

    # interior stationary values: alpha*u = -g with |u| in [sqrt(2s), b]
    if p.alpha > 0:
        if abs(p.alpha * u + g) <= TIE_TOL and root - TIE_TOL <= abs(u) <= b + TIE_TOL:
            return True
    else:
        if abs(g) <= TIE_TOL and root - TIE_TOL <= abs(u) <= b + TIE_TOL:
            return True
    return False


def convexified_not_fixed_point_check(g, alpha, beta, b, L, u_bar=None):
    """Check that an interior envelope minimizer escapes under the thresholding step.

    Requires |g| = sqrt(2*alpha*beta) (within TIE_TOL), the configuration in
    which the envelope g*u + conv_env(u) is minimized on a whole segment.
    u_bar defaults to the segment midpoint sign(-g)*min(b, sqrt(2*beta/alpha))/2.
    Returns True iff u_bar is not reproduced by prox_l0(g, u_bar, .) and the
    canonical step from u_bar strictly decreases g*u + (alpha/2)u^2 + beta*|u|_0.
    """
    positive("L", L)
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    if abs(abs(g) - math.sqrt(2.0 * alpha * beta)) > TIE_TOL:
        raise ValueError("|g| must equal sqrt(2*alpha*beta) for the envelope to be flat")
    cutoff = math.sqrt(2.0 * beta / alpha)
    if u_bar is None:
        u_bar = 0.5 * math.copysign(min(b, cutoff), -g)
    if not (0 < abs(u_bar) < cutoff) or abs(u_bar) > b:
        raise ValueError("u_bar must lie strictly inside the flat segment of the envelope")
    if g * u_bar > 0:
        raise ValueError("u_bar must lie on the descent side of the envelope")

    params = ProxParams(L=L, alpha=alpha, beta=beta, bound=b)
    sol = prox_l0(g, u_bar, params)

    def pointwise(u):
        return g * u + 0.5 * alpha * u * u + (beta if u != 0.0 else 0.0)

    escaped = not contains(sol, u_bar, tol=TIE_TOL)
    decreased = pointwise(canonical(sol)) < pointwise(u_bar)
    return escaped and decreased


def canonical(solution_set):
    """The canonical (tie -> 0) element of a ScalarSolutionSet.

    Asserts the set's shape first: 1 value, or 2 values one of which is 0.
    """
    values = solution_set.values
    assert len(values) == 1 or (len(values) == 2 and 0.0 in values), values
    return 0.0 if len(values) == 2 else values[0]


def distance(solution_set, x):
    """Distance from x to a ScalarSolutionSet."""
    return min(abs(x - v) for v in solution_set.values)


def contains(solution_set, x, tol=1e-10):
    return distance(solution_set, x) <= tol


# ---------------------------------------------------------------------------
# one-row brute-force references
# ---------------------------------------------------------------------------


def _argmins(min_values, candidates, candidate_values, const=0.0):
    """Row 0 of a batch result as (min_value + const, sorted distinct admitted candidates)."""
    admitted = candidates[0][_admitted(min_values, candidate_values)[0]]
    return float(min_values[0] + const), np.unique(admitted, axis=0).tolist()


def _penalized_row(a2, a1, w_abs, w_supp, bound, const, step):
    radius = search_radius(a2, a1, w_supp, bound)
    best, argmins = _argmins(*penalized_quadratic_batch([a2], [a1], w_abs, w_supp, [radius], step), const)
    return best, tuple(argmins)


def box_threshold_reference(q, s, b, step=GRID_STEP):
    """min of  -q*u + u^2/2 + s*(u != 0)  over |u| <= b."""
    return _penalized_row(0.5, -q, 0.0, s, b, 0.0, step)


def prox_l0_reference(g, u_k, L, alpha, beta, b, step=GRID_STEP):
    """min of  g*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + beta*(u != 0)  over |u| <= b."""
    return _penalized_row(0.5 * (L + alpha), g - L * u_k, 0.0, beta, b, 0.5 * L * u_k**2, step)


def prox_l1_reference(g, u_k, L, alpha, gamma, b, step=GRID_STEP):
    """min of  g*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + gamma*|u|  over |u| <= b."""
    return _penalized_row(0.5 * (L + alpha), g - L * u_k, gamma, 0.0, b, 0.5 * L * u_k**2, step)


def prox_switch_reference(g1, g2, uk1, uk2, L, alpha, beta, radius=3.0, step=1e-3):
    """min of  g.u + (L/2)|u-u_k|^2 + (alpha/2)|u|^2 + beta*(u1*u2 != 0)  over R^2."""
    best, argmins = _argmins(*switch_batch([g1], [g2], [uk1], [uk2], L, alpha, beta, radius, step))
    return best, tuple(map(tuple, argmins))


# ---------------------------------------------------------------------------
# the triangle list and the exact L2 norm of a state
# ---------------------------------------------------------------------------


def triangles(mesh):
    """Vertex indices of every triangle, 2n^2 x 3, in triangle order (squares row-major, lower first)."""
    k, steps = mesh.n + 1, np.arange(mesh.n)
    corners = [k * steps[:, None] + steps + (dx + k * dy) for tri in _SQUARE_TRIANGLES for dx, dy in tri]
    return np.stack(corners, axis=-1).reshape(-1, 3)


def l2_norm_state(mesh, y):
    """Exact L2 norm of the nodal field y: per-triangle quadratic form of the mass matrix."""
    sq = _per_triangle(mesh, y, lambda a, b, c: a * a + b * b + c * c + (a + b + c) ** 2)
    return math.sqrt(max(mesh.triangle_area / 12.0 * sq.sum(), 0.0))


# ---------------------------------------------------------------------------
# the benchmark problem
# ---------------------------------------------------------------------------


def benchmark_spec(**kw):
    base = dict(alpha=0.01, beta=0.01, bound=4.0, penalty="l0", pde=fem.DIRICHLET_POISSON,
                y_d=default_target, mesh_n=10)
    base.update(kw)
    return ProblemSpec(**base)


# ---------------------------------------------------------------------------
# a run's objective values
# ---------------------------------------------------------------------------


def objective_trace(problem, report):
    """[F_0, F_1, ...] of a run of `problem`: F at the zero control it starts from, then each logged F.

    F_0 = f(0) + g(0) has the bits of the run's own start value, since
    eval_f and value_and_grad take f from the same computation.
    """
    u0 = problem.zero_control()
    return [problem.eval_f(u0) + problem.eval_g(u0)] + report.column("F")
