"""Brute-force reference minimizers for the scalar subproblems.

These routines are the ground truth the closed-form operators are validated
against: the minimum over a fine grid (default step 1e-4) plus exact
evaluation at the analytic candidate points {0, -b, b, quadratic vertices}.
They are written from the objective functions alone and deliberately share
no helpers with the closed-form module.

There is one search per subproblem, batched over rows:
`penalized_quadratic_batch` for a2*u^2 + a1*u + w_abs*|u| + w_supp*(u != 0)
in a box, and `switch_batch` for the paired switching objective.  Each row
is searched on its own slice of one shared offset grid +-u_j,
u_j = (j + 1/2)*step, cut at that row's radius, so a row costs what its own
radius needs whatever else is in the call, and its result does not depend
on the other rows.  The grid stays inside the box and misses 0; the
endpoints and 0 come from the exact candidates.  Only the half u_j > 0 is
evaluated, with linear coefficient -|a1|: since fl(a1*(-u)) = -fl(a1*u) and
rounding is monotone, that is the smaller of each mirrored pair, bit for bit.
A strictly convex row is evaluated only on the window of its half-grid that
can hold the computed minimum: a bound on the rounding error rules out every
point farther from the vertex, so the minimum is the dense grid's, bit for
bit (see `_grid_windows`).  The grid, its step and the tolerances are those
of the dense search; only the points evaluated change.

`admit` is the one rule every check applies to a batch result, and
`search_radius` sizes the search for unbounded rows.  The scalar references
(`box_threshold_reference`, `prox_l0_reference`, `prox_l1_reference`,
`prox_switch_reference`) are one-row calls of the batch search.  Each
returns (min_value, argmins), where argmins is the sorted tuple of distinct
candidates whose objective lies within CANDIDATE_TOL of the minimum; when a
grid point beats every candidate by more than that, argmins is empty, which
callers should treat as a failure.
"""

from __future__ import annotations

import numpy as np

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


# widest window evaluated in the (rows, width) gather; a wider one (a nearly
# flat row) runs in the per-row loop, so the gather stays a few MB at 10^4 rows
_GATHER_WIDTH = 64


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

    The search is folded onto u_j > 0 as a2*u^2 - |a1|*u + w_abs*u, in that
    term order: fl(a1*(-u)) = -fl(a1*u) and rounding is monotone, so this is
    the smaller value of each mirrored pair, with the same bits as the
    two-sided search (NaN and +inf rows included).

    A strictly convex row is evaluated only on the window of its half-grid
    that can hold the computed minimum (`_grid_windows`), a few points
    around its vertex; the minimum is the one of the whole half-grid, bit
    for bit.  These rows are evaluated together as one (rows, width) gather.
    The other rows (a2 <= 0, non-finite values, nearly flat rows) run one
    at a time over their window, which is the whole half-grid unless the row
    is convex.  Every row reads u_j and u_j^2 from one (2, top) block, so the
    grid and its bits are those of the dense search.
    """
    a2 = np.asarray(a2, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    w_abs = np.asarray(w_abs, dtype=float)
    radius = np.asarray(radius, dtype=float)
    bad = ~(np.isfinite(radius) & (radius >= 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"radius must be finite and >= 0, got radius[{i}] = {radius[i]!r}"
        )
    half = np.floor(radius / step + 0.5).astype(np.int64)
    # the division may round up across an integer: step back inside the box
    half -= (half - 0.5) * step > radius
    top = int(half.max(initial=0))
    # u and u^2 in one (2, top) block: freeing a block this large lifts
    # glibc's heap trim threshold, so a caller's later small arrays reuse the
    # heap instead of page-faulting it back in (about 1 MB per oracle set-up)
    grid = np.empty((2, top))
    u, u2 = grid
    np.multiply(np.arange(top) + 0.5, step, out=u)
    np.multiply(u, u, out=u2)
    c1 = -np.abs(a1)
    use_abs = bool(np.any(w_abs != 0.0))
    lo, hi = _grid_windows(a2, c1, w_abs, radius, half, step)
    width = hi - lo
    # narrow windows are convex rows, whose values hold no NaN and no -0.0,
    # so a (rows, width) reduction gives the bits of the per-row one
    gathered = (width < half) & (width <= _GATHER_WIDTH)
    out = np.full(a2.shape[0], np.inf)

    rows = np.flatnonzero(gathered)
    if rows.size:
        idx = lo[rows, None] + np.arange(width[rows].max())
        # a padded index repeats the row's last point: the minimum stays
        np.minimum(idx, hi[rows, None] - 1, out=idx)
        pu, pu2 = grid[:, idx]
        r = pu2 * a2[rows, None]
        r += pu * c1[rows, None]
        if use_abs:
            r += pu * w_abs[rows, None]
        out[rows] = r.min(axis=1)

    rows = np.flatnonzero(~gathered & (width > 0))
    if rows.size:
        row, term = np.empty((2, int(width[rows].max())))
        # plain Python numbers and a direct reduce keep the per-row overhead small
        for i, j0, j1, c2, c, cabs in zip(rows.tolist(), lo[rows].tolist(), hi[rows].tolist(),
                                          a2[rows].tolist(), c1[rows].tolist(), w_abs[rows].tolist()):
            r = row[: j1 - j0]
            t = term[: j1 - j0]
            np.multiply(u2[j0:j1], c2, out=r)
            r += np.multiply(u[j0:j1], c, out=t)
            if use_abs:
                r += np.multiply(u[j0:j1], cabs, out=t)
            out[i] = np.minimum.reduce(r)
    return out


def penalized_quadratic_batch(a2, a1, abs_weight, support_weight, radius, step=GRID_STEP):
    """Row-wise reference for  a2*u^2 + a1*u + w_abs*|u| + w_supp*(u != 0)  over |u| <= radius.

    Returns (min_values, candidates, candidate_values): candidates has one
    column per analytic candidate {0, -radius, radius, positive-side vertex,
    negative-side vertex}; candidate_values are their exact objectives.  The
    reported minimum also covers the dense grid so that a wrong candidate
    enumeration cannot go unnoticed.
    """
    a2 = np.asarray(a2, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    wa = np.broadcast_to(np.asarray(abs_weight, dtype=float), a2.shape)
    ws = np.broadcast_to(np.asarray(support_weight, dtype=float), a2.shape)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), a2.shape)

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

    Same objective as prox_switch_reference; exploits the separable quadratic
    part (one dense grid per axis) and returns (min_values, candidates,
    candidate_values) with candidates of shape (N, 4, 2) covering
    {(m1, m2), (0, m2), (m1, 0), (0, 0)}.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    uk1 = np.asarray(uk1, dtype=float)
    uk2 = np.asarray(uk2, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), g1.shape)
    w = L + alpha
    a2 = 0.5 * w * np.ones_like(g1)
    b1 = g1 - L * uk1
    b2 = g2 - L * uk2
    const = 0.5 * L * (uk1**2 + uk2**2) * np.ones_like(g1)

    m1 = -b1 / w
    m2 = -b2 / w
    rad = np.maximum(radius, np.maximum(np.abs(m1), np.abs(m2)) + 0.5)

    zeros = np.zeros_like(g1)
    nz1 = _rowwise_grid_min(a2, b1, zeros, rad, step)
    nz2 = _rowwise_grid_min(a2, b2, zeros, rad, step)
    vx1 = a2 * m1**2 + b1 * m1
    vx2 = a2 * m2**2 + b2 * m2
    nz1 = np.minimum(nz1, np.where(m1 != 0.0, vx1, np.inf))
    nz2 = np.minimum(nz2, np.where(m2 != 0.0, vx2, np.inf))
    free1 = np.minimum(np.minimum(nz1, 0.0), vx1)
    free2 = np.minimum(np.minimum(nz2, 0.0), vx2)

    best = np.minimum(nz1 + nz2 + beta, np.minimum(free2, free1))
    best = best + const

    candidates = np.stack(
        [
            np.stack([m1, m2], axis=1),
            np.stack([np.zeros_like(m1), m2], axis=1),
            np.stack([m1, np.zeros_like(m2)], axis=1),
            np.zeros((g1.shape[0], 2)),
        ],
        axis=1,
    )
    c1 = candidates[:, :, 0]
    c2 = candidates[:, :, 1]
    cvals = (
        a2[:, None] * (c1**2 + c2**2)
        + b1[:, None] * c1
        + b2[:, None] * c2
        + const[:, None]
        + beta[:, None] * ((c1 != 0.0) & (c2 != 0.0))
    )
    min_values = np.minimum(best, cvals.min(axis=1))
    return min_values, candidates, cvals
