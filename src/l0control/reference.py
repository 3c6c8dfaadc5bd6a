"""Brute-force reference minimizers for the scalar subproblems.

These routines are the ground truth the closed-form operators are validated
against: the minimum over a fine grid (default step 1e-4) plus exact
evaluation at the analytic candidate points {0, -b, b, quadratic vertices}.
The searches are written from the objective functions alone and share no
helpers with the closed-form module.  The two meet in one place only,
`check_prox`: per-row draws in, the array map the solver runs, every
element of its prox set admitted against the batch search, and the failure
mask and objective gaps out.  selftest and the acceptance suite both call it.

There is one search per subproblem, batched over rows:
`penalized_quadratic_batch` for a2*u^2 + a1*u + w_abs*|u| + w_supp*(u != 0)
in a box, and `switch_batch` for the paired switching objective.  Each row
is searched by one expression on its own slice of one shared offset grid
+-u_j, u_j = (j + 1/2)*step, cut at that row's radius, so its result does
not depend on the other rows (up to a NaN's sign); its cost does, since a
call tabulates the grid to its widest row's radius (see
`_rowwise_grid_min`).  The grid stays inside the box and misses 0; the
endpoints and 0 come from the exact candidates.  Only the half u_j > 0 is
evaluated, with linear coefficient -|a1|: since fl(a1*(-u)) = -fl(a1*u) and
rounding is monotone, that is the smaller of each mirrored pair, bit for bit.
A strictly convex row is evaluated only on the window of its half-grid that
can hold the computed minimum: a bound on the rounding error rules out every
point farther from the vertex, so the minimum is the dense grid's, bit for
bit (see `_grid_windows`).  The grid, its step and the tolerances are those
of the dense search; only the points evaluated change.

`admit` is the one rule every check applies to a batch result, and
`search_radius` sizes the search for unbounded rows.
"""

from __future__ import annotations

import numpy as np

from . import prox

GRID_STEP = 1e-4
# the tolerances of the admission rule (see `admit`)
CANDIDATE_TOL = 1e-9
OBJECTIVE_TOL = 1e-10
ARGUMENT_TOL = 1e-8


def search_radius(a2, a1, w_supp, bound):
    """Half-width of the search for  a2*u^2 + a1*u + ... + w_supp*(u != 0)  in |u| <= bound.

    The box itself where it is finite; otherwise |a1|/(2*a2) + sqrt(w_supp/a2)
    + 1/2, which holds every minimizer with room to spare: a nonzero
    minimizer lies within |a1|/(2*a2) of 0.
    """
    unbounded = np.abs(a1) / (2.0 * a2) + np.sqrt(w_supp / a2) + 0.5
    return np.where(np.isinf(bound), unbounded, bound)


def _admitted(min_values, candidate_values):
    """Mask of the candidates whose value lies within CANDIDATE_TOL of their row's minimum."""
    return candidate_values <= (min_values + CANDIDATE_TOL)[:, None]


def admit(values, objective_values, min_values, candidates, candidate_values):
    """Per-row failure mask of a check against a batch reference result.

    Row i fails when objective_values[i] misses min_values[i] by more than
    OBJECTIVE_TOL, or when values[i] lies farther than ARGUMENT_TOL from every
    candidate whose value is within CANDIDATE_TOL of min_values[i]; an empty
    admitted set therefore fails.  Paired rows (values (N, 2), candidates
    (N, 4, 2) from `switch_batch`) measure the distance in the max-norm.
    """
    dist = np.abs(candidates - values[:, None])
    if dist.ndim == 3:
        dist = dist.max(axis=2)
    dist = np.where(_admitted(min_values, candidate_values), dist, np.inf)
    return (np.abs(objective_values - min_values) > OBJECTIVE_TOL) | (dist.min(axis=1) > ARGUMENT_TOL)


def check_prox(penalty, g, u, L, alpha, weight, bound=np.inf):
    """The solver's array prox map for one penalty against the batch search, on per-row draws.

    penalty is "l0" (weight = beta), "l1" (weight = gamma) or "switching"
    (weight = beta, g and u are pairs (first, second) of rows, no bound);
    parameters are scalars or one value per row.  Each value the map returns,
    every element of an l0 set included, is scored with g.v + (L/2)|v - u|^2
    + (alpha/2)|v|^2 + penalty(v) against its row's minimum + (L/2)|u|^2.
    Returns (fail, gap) per value: `admit`'s mask and |objective - minimum|.
    """
    if penalty == "switching":
        g1, g2, u1, u2, L, alpha, beta = np.broadcast_arrays(*g, *u, L, alpha, weight)
        v = np.stack(prox.prox_switch_arrays(g1, g2, u1, u2, L, alpha, beta), axis=1)
        best, cands, cvals = switch_batch(g1, g2, u1, u2, L, alpha, beta)
        p1, p2 = v.T
        val = (g1 * p1 + g2 * p2 + 0.5 * L * ((p1 - u1) ** 2 + (p2 - u2) ** 2)
               + 0.5 * alpha * (p1**2 + p2**2) + beta * ((p1 != 0.0) & (p2 != 0.0)))
        return admit(v, val, best, cands, cvals), np.abs(val - best)

    g, u, L, alpha, weight, bound = np.broadcast_arrays(g, u, L, alpha, weight, bound)
    a2, a1, const = 0.5 * (L + alpha), g - L * u, 0.5 * L * u * u
    if penalty == "l0":
        abs_w, supp_w = 0.0, weight
        zero_ok, cand, cand_ok = prox.prox_l0_set_arrays(g, u, L, alpha, weight, bound)
        rows = np.concatenate([np.flatnonzero(zero_ok), np.flatnonzero(cand_ok)])
        v = np.concatenate([np.zeros(np.count_nonzero(zero_ok)), cand[cand_ok]])
    else:
        abs_w, supp_w, rows = weight, 0.0, slice(None)
        v = prox.prox_l1_array(g, u, L, alpha, weight, bound)
    m, cands, cvals = penalized_quadratic_batch(a2, a1, abs_w, supp_w, search_radius(a2, a1, supp_w, bound))
    best, cands, cvals = (m + const)[rows], cands[rows], (cvals + const[:, None])[rows]
    g, u, L, alpha, weight = g[rows], u[rows], L[rows], alpha[rows], weight[rows]
    pen = weight * (v != 0.0) if penalty == "l0" else weight * np.abs(v)
    val = g * v + 0.5 * L * (v - u) ** 2 + 0.5 * alpha * v * v + pen
    return admit(v, val, best, cands, cvals), np.abs(val - best)


# ---------------------------------------------------------------------------
# the batch search
# ---------------------------------------------------------------------------


def _grid_windows(a2, c1, w_abs, radius, half, step):
    """Per-row index window [lo, hi) of the half-grid that holds the row's computed minimum.

    On u > 0 row i is the parabola a2*u^2 + (c1 + w_abs)*u, c1 = -|a1|, with
    its vertex at v.  For a2 > 0 every evaluated point is off its exact
    value by less than E = 16*eps*(a2*R^2 + (|c1| + w_abs)*R) + 1e-300,
    R = radius_i: about four times the first-order bound 4*eps*(...) of the
    evaluated expression, and the last term covers underflow.  Let j* be
    the grid index nearest v in [0, half_i).  A point farther than
    D = step/2 + sqrt(step^2/4 + 2E/a2) from u_{j*} lies more than 2E above
    u_{j*} in exact arithmetic, so its computed value is strictly larger:
    the window j* +- floor(D/step) holds the row's minimum, bit for bit.
    The spare in E covers the rounding of v and of the index arithmetic.

    Rows with a2 <= 0, rows where a coefficient, E or D is not finite, and
    rows whose window would not be shorter than the half-grid get the whole
    half-grid [0, half_i).
    """
    with np.errstate(all="ignore"):
        err = 16.0 * np.finfo(float).eps * (a2 * radius**2 + (np.abs(c1) + w_abs) * radius) + 1e-300
        # floor(D/step), and j* = floor(v/step): u_j = (j + 1/2)*step
        reach = np.floor(0.5 + np.sqrt(0.25 + 2.0 * err / a2 / (step * step)))
        nearest = np.clip(np.floor(-(c1 + w_abs) / (2.0 * a2) / step), 0.0, half - 1.0)
        # clipped as floats, before the int cast: inf opens a bound to the
        # half-grid, and NaN fails the comparison below
        lo = np.clip(nearest - reach, 0.0, half)
        hi = np.clip(nearest + reach + 1.0, 0.0, half)
        narrow = (a2 > 0.0) & (hi - lo < half)
    return np.where(narrow, lo, 0.0).astype(np.int64), np.where(narrow, hi, half).astype(np.int64)


# a gather block holds its first row and fewer than this many more grid
# points, so its temporaries stay a few MB however many rows a call has
_GATHER_POINTS = 1 << 16


def _rowwise_grid_min(a2, a1, w_abs, radius, step):
    """Row-wise min of  a2*u^2 + a1*u + w_abs*|u|  over the grid points in [-radius, radius].

    All rows share one offset grid +-u_j, u_j = (j + 1/2)*step, which never
    contains u = 0, so the caller can add constant support penalties.  Row i
    is searched on its own `half_i = floor(radius_i/step + 1/2)` points on
    each side, whose outermost points (half_i - 1/2)*step never pass
    radius_i; the endpoints themselves are exact candidates of the callers.
    A row's result depends on that row alone, and a row with no grid point
    (radius_i < step/2) gets +inf.  A negative, NaN or infinite radius raises
    ValueError.

    Every row, w_abs = 0 included, is folded onto u_j > 0 as a2*u^2 - |a1|*u
    + w_abs*u, in that term order: fl(a1*(-u)) = -fl(a1*u) and rounding is
    monotone, so this is the smaller value of each mirrored pair, with the
    same bits as the two-sided search (+inf rows included; a NaN row up to
    its NaN's sign).

    A strictly convex row is evaluated only on the window of its half-grid
    that can hold the computed minimum (`_grid_windows`), a few points
    around its vertex; the minimum is the one of the whole half-grid, bit
    for bit.  Every other row (a2 <= 0, non-finite values, nearly flat rows)
    is evaluated on its whole half-grid.  The rows' points are laid end to
    end in row order and cut into blocks at every _GATHER_POINTS-th point,
    and each row is reduced over its own points only (`np.minimum.reduceat`),
    which gives the bits of a one-row reduction, signed zeros and NaN signs
    included; only where two NaN terms meet can the NaN's sign depend on the
    row's place in its block.  Every row reads u_j and u_j^2 from one
    (2, top) block sized by the call's widest row, 16 bytes a point, so a
    row's cost depends on its call: one unbounded row with a2 = 5e-4, a1 = 1
    (radius 1005, 10^7 points) takes 0.08-0.15 s and 154 MB of peak RSS for
    the few points its window reads, 0.2 ms if each point were computed as
    (j + 1/2)*step.  The block stays until the benchmark times set-up apart
    from the heap (ROADMAP 3b): freeing it lifts glibc's heap trim threshold,
    so later small arrays reuse the heap instead of page-faulting it back in.
    """
    a2, a1, w_abs, radius = (np.asarray(x, dtype=float) for x in (a2, a1, w_abs, radius))
    bad = ~(np.isfinite(radius) & (radius >= 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"radius must be finite and >= 0, got radius[{i}] = {radius[i]!r}")
    half = np.floor(radius / step + 0.5).astype(np.int64)
    # the division may round up across an integer: step back inside the box
    half -= (half - 0.5) * step > radius
    top = int(half.max(initial=0))
    grid = np.empty((2, top))
    u, u2 = grid
    np.multiply(np.arange(top) + 0.5, step, out=u)
    np.multiply(u, u, out=u2)
    c1 = -np.abs(a1)
    lo, hi = _grid_windows(a2, c1, w_abs, radius, half, step)
    width = hi - lo
    out = np.full(a2.shape[0], np.inf)

    rows = np.flatnonzero(width > 0)
    cuts = np.flatnonzero(np.diff(np.cumsum(width[rows]) // _GATHER_POINTS)) + 1
    for block in np.split(rows, cuts):
        w = width[block]
        first = np.cumsum(w) - w
        owner = np.repeat(block, w)
        idx = np.arange(owner.size) + np.repeat(lo[block] - first, w)
        pu, pu2 = grid[:, idx]
        r = pu2 * a2[owner]
        r += pu * c1[owner]
        r += pu * w_abs[owner]
        out[block] = np.minimum.reduceat(r, first)
    return out


def penalized_quadratic_batch(a2, a1, abs_weight, support_weight, radius, step=GRID_STEP):
    """Row-wise reference for  a2*u^2 + a1*u + w_abs*|u| + w_supp*(u != 0)  over |u| <= radius.

    Returns (min_values, candidates, candidate_values): candidates has one
    column per analytic candidate {0, -radius, radius, positive-side vertex,
    negative-side vertex}; candidate_values are their exact objectives.  The
    reported minimum also covers the dense grid so that a wrong candidate
    enumeration cannot go unnoticed.
    """
    a2, a1, wa, ws, radius = np.asarray(
        np.broadcast_arrays(a2, a1, abs_weight, support_weight, radius), dtype=float
    )

    grid_min = _rowwise_grid_min(a2, a1, wa, radius, step) + ws

    vpos = np.clip(-(a1 + wa) / (2.0 * a2), 0.0, radius)
    vneg = np.clip(-(a1 - wa) / (2.0 * a2), -radius, 0.0)
    candidates = np.stack(
        [np.zeros_like(a2), -radius, radius, vpos, vneg], axis=1
    )
    cvals = (
        a2[:, None] * candidates**2
        + a1[:, None] * candidates
        + wa[:, None] * np.abs(candidates)
        + ws[:, None] * (candidates != 0.0)
    )
    min_values = np.minimum(grid_min, cvals.min(axis=1))
    return min_values, candidates, cvals


def switch_batch(g1, g2, uk1, uk2, L, alpha, beta, radius=3.0, step=1e-3):
    """Row-wise reference minimum for the paired switching subproblem.

    Objective  g.u + (L/2)|u-u_k|^2 + (alpha/2)|u|^2 + beta*(u1*u2 != 0)  over
    R^2.  The quadratic part is separable and both axes share a2 and the
    radius, so the two axes of N rows are searched as 2N rows of one grid
    search; the per-axis terms are (2, N) arrays.  Returns (min_values,
    candidates, candidate_values) with candidates of shape (N, 4, 2)
    covering {(m1, m2), (0, m2), (m1, 0), (0, 0)}.
    """
    inputs = np.asarray(np.broadcast_arrays(g1, g2, uk1, uk2, L, alpha, beta), dtype=float)
    g, uk, (L, alpha, beta) = inputs[:2], inputs[2:4], inputs[4:]
    n = L.shape[0]
    w = L + alpha
    a2 = 0.5 * w
    b = g - L * uk
    const = 0.5 * L * (uk[0] ** 2 + uk[1] ** 2)
    m = -b / w
    rad = np.maximum(radius, np.abs(m).max(axis=0) + 0.5)

    nz = _rowwise_grid_min(np.tile(a2, 2), b.ravel(), np.zeros(2 * n), np.tile(rad, 2), step).reshape(2, n)
    vx = a2 * m**2 + b * m
    nz = np.minimum(nz, np.where(m != 0.0, vx, np.inf))
    free = np.minimum(np.minimum(nz, 0.0), vx)
    best = np.minimum(nz[0] + nz[1] + beta, np.minimum(free[1], free[0])) + const

    # m1 is the first coordinate of candidates 0 and 2, m2 the second of 0 and 1
    candidates = np.zeros((n, 4, 2))
    candidates[:, 0::2, 0] = m[0, :, None]
    candidates[:, :2, 1] = m[1, :, None]
    c1, c2 = candidates.transpose(2, 0, 1)
    cvals = (
        a2[:, None] * (c1**2 + c2**2)
        + b[0, :, None] * c1
        + b[1, :, None] * c2
        + const[:, None]
        + beta[:, None] * ((c1 != 0.0) & (c2 != 0.0))
    )
    min_values = np.minimum(best, cvals.min(axis=1))
    return min_values, candidates, cvals
