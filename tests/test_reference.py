"""The brute-force references: row independence, box safety, density, the
exactness of the folded and windowed grid, the radius check, the admission
rule, the one check of the closed forms, and the scalar references as
one-row views of the batch search.

Each row of `penalized_quadratic_batch` and `switch_batch` is searched on its
own slice of one shared offset grid, so a row's result must not depend on
which other rows share its call, no grid point may leave the row's box, and
the grid must stay as fine as the step.  The search runs on the positive half
only, and a convex row only on a window of it, and must give the same bits as
the dense two-sided search.
"""

import math
import warnings

import numpy as np
import oracles
import pytest
from test_acceptance import N_INSTANCES, SEED, draw_l0_instances

from l0control import prox, reference

H = reference.GRID_STEP


def penalized_rows(rng, n):
    a2 = rng.uniform(0.005, 2.0, n)
    a1 = rng.uniform(-4.0, 4.0, n)
    w_abs = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    w_supp = rng.uniform(0.0, 2.0, n)
    radius = rng.choice([0.6, 1.0, 1.4, 0.7, 1.23456], n)
    return a2, a1, w_abs, w_supp, radius


def switch_rows(rng, n):
    rows = [rng.uniform(lo, hi, n) for lo, hi in
            ((-2, 2), (-2, 2), (-1, 1), (-1, 1), (0, 2), (0.01, 1), (0.01, 1))]
    # one far vertex, |m1| = 65, which used to widen every row of its call
    g1, _, u1, _, L, alpha, _ = rows
    g1[5], u1[5], L[5], alpha[5] = -0.65, 0.0, 0.0, 0.01
    return rows


def same_bits(x, y, nan_sign=True):
    if not nan_sign:
        x, y = (np.where(np.isnan(a), np.nan, a) for a in (x, y))
    return np.array_equal(x.view(np.int64), y.view(np.int64))


def assert_rows_independent(batch, columns):
    """Minimum, candidates and candidate values: every row has the bits of its
    one-row call, signs of zeros and NaNs included, and those of its 64-row
    block up to a NaN's sign: where two NaN terms of a candidate value meet,
    numpy's vector and scalar loops keep different operands."""
    n = columns[0].shape[0]
    with np.errstate(all="ignore"):
        full = batch(*columns)
        blocks = [batch(*(c[rows] for c in columns)) for rows in np.array_split(np.arange(n), n // 64)]
        alone = [batch(*(c[i : i + 1] for c in columns)) for i in range(n)]
    for k, whole in enumerate(full):
        assert same_bits(np.concatenate([b[k] for b in blocks]), whole, nan_sign=False), k
        mismatch = [i for i in range(n) if not same_bits(alone[i][k], whole[i : i + 1])]
        assert not mismatch, (k, mismatch[:5])


def zero_sum_rows(rng, a2, a1, w_abs, radius, rows):
    """Rows whose every grid term is a signed zero: a2 = -0.0, a1 = 0, w_abs = 0."""
    a2[rows], a1[rows], w_abs[rows] = -0.0, 0.0, 0.0
    radius[rows] = rng.choice(BOX_RADII, radius[rows].size)


def test_penalized_rows_are_independent_of_their_call():
    rng = np.random.default_rng(11)
    assert_rows_independent(reference.penalized_quadratic_batch, penalized_rows(rng, 256))


@pytest.mark.parametrize("with_abs", [False, True])
def test_adversarial_penalized_rows_are_independent_of_their_call(with_abs):
    rng = np.random.default_rng(20)
    n = 600
    a2, a1, w_abs, radius = adversarial_rows(rng, n, H, with_abs)
    zero_sum_rows(rng, a2, a1, w_abs, radius, slice(200, 212))
    w_supp = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    assert (w_abs != 0.0).any() == with_abs
    assert_rows_independent(reference.penalized_quadratic_batch, (a2, a1, w_abs, w_supp, radius))


def test_switch_rows_are_independent_of_their_call():
    rng = np.random.default_rng(12)
    assert_rows_independent(reference.switch_batch, switch_rows(rng, 256))


def test_switch_batch_matches_a_per_axis_search():
    # a search that shares no code with switch_batch: each axis on the dense
    # two-sided grid plus its vertex and 0, the axes joined as
    # min(nz1 + nz2 + beta, free1, free2) + const, the candidates written out
    rng = np.random.default_rng(19)
    n = 256
    g1, g2, u1, u2, L, alpha, beta = switch_rows(rng, n)
    L[40:60] = 0.0
    g1[10:50] = L[10:50] * u1[10:50]  # m1 = 0, with L = 0 on rows 40..49
    g2[30:70] = L[30:70] * u2[30:70]  # m2 = 0, both on rows 30..49
    # |m2| = |g2 - L*u2|/(L + alpha) > 9.5, beyond the default radius 3
    g2[80:100], L[80:100], alpha[80:100] = rng.choice([-2.0, 2.0], 20), rng.uniform(0, 0.1, 20), 0.1
    w = L + alpha
    a2, const = 0.5 * w, 0.5 * L * (u1**2 + u2**2)
    b = [g1 - L * u1, g2 - L * u2]
    m = [-bk / w for bk in b]
    rad = np.maximum(3.0, np.maximum(np.abs(m[0]), np.abs(m[1])) + 0.5)
    nz, free = [], []
    for bk, mk in zip(b, m):
        vertex = a2 * mk**2 + bk * mk
        grid = two_sided_grid_min(a2, bk, np.zeros(n), rad, 1e-3)
        nz.append(np.minimum(grid, np.where(mk != 0.0, vertex, np.inf)))
        free.append(np.minimum(np.minimum(nz[-1], 0.0), vertex))
    best = np.minimum(nz[0] + nz[1] + beta, np.minimum(free[0], free[1])) + const
    zero = np.zeros(n)
    pairs = [(m[0], m[1]), (zero, m[1]), (m[0], zero), (zero, zero)]
    cvals = np.stack([a2 * (c1**2 + c2**2) + b[0] * c1 + b[1] * c2 + const + beta * ((c1 != 0.0) & (c2 != 0.0))
                      for c1, c2 in pairs], axis=1)
    want = (np.minimum(best, cvals.min(axis=1)), np.stack([np.stack(c, axis=1) for c in pairs], axis=1), cvals)
    assert np.all(m[0][10:50] == 0.0) and np.all(m[1][30:70] == 0.0) and np.all(np.abs(m[1][80:100]) > 3.0)

    got = reference.switch_batch(g1, g2, u1, u2, L, alpha, beta)
    for k, (x, y) in enumerate(zip(got, want)):
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), k


# r/step with a fractional part below, at and above 1/2, and integer ones;
# 0.81975 lies one ulp below the rounded point 8197.5*step, yet r/step + 1/2
# rounds to 8198, so without a check that point would pass the bound
BOX_RADII = (0.6, 0.7, 1.0, 1.23456, 1.23452, 0.70003, 0.70005, 0.81975, 1.4)


@pytest.mark.parametrize("radius", BOX_RADII)
def test_grid_stays_inside_a_finite_box(radius):
    # the vertex sits far outside the box, so the objective falls all the way
    # to the bound and a grid point past it would undercut the exact value there
    sides = np.array([-10.0, 10.0])
    a2 = np.full(2, 0.5)
    a1 = sides
    w_abs = np.array([0.0, 0.25])
    grid_min = reference._rowwise_grid_min(a2, a1, w_abs, np.full(2, radius), H)
    bound = np.array([radius, -radius])
    exact = a2 * bound**2 + a1 * bound + w_abs * np.abs(bound)
    assert np.all(grid_min >= exact), (grid_min, exact)

    min_values, _, cvals = reference.penalized_quadratic_batch(a2, a1, w_abs, 0.1, radius)
    at_bound = np.where(sides < 0, cvals[:, 2], cvals[:, 1])
    assert np.array_equal(min_values, at_bound)


def test_grid_keeps_its_density():
    rng = np.random.default_rng(13)
    n = 200
    a2 = rng.uniform(0.005, 2.0, n)
    radius = rng.choice([0.6, 1.0, 1.4, 0.7, 1.23456], n)
    w_abs = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    # an interior vertex of the positive piece: a2*u^2 + (a1 + w_abs)*u with
    # its minimum at v in (0, radius)
    v = rng.uniform(0.0, 1.0, n) * radius
    a1 = -2.0 * a2 * v - w_abs
    exact = a2 * v * v + (a1 + w_abs) * v
    grid_min = reference._rowwise_grid_min(a2, a1, w_abs, radius, H)
    assert np.all(grid_min - exact <= a2 * H * H)
    assert np.all(grid_min - exact >= -1e-14)


def half_grid(radius, step):
    """Grid points per side of each row, as `_rowwise_grid_min` counts them."""
    half = np.floor(radius / step + 0.5).astype(np.int64)
    half -= (half - 0.5) * step > radius
    return half


def two_sided_grid_min(a2, a1, w_abs, radius, step):
    """The dense unfolded search: both mirrored halves of the grid, term by term.

    Every row adds its w_abs*|u| term, w_abs = 0 included, as the documented
    expression a2*u^2 + a1*u + w_abs*|u| does; a zero-sum row gives +0.0."""
    half = half_grid(radius, step)
    top = int(half.max(initial=0))
    u = (np.arange(-top, top) + 0.5) * step
    out = np.full(a2.shape[0], np.inf)
    for i, k in enumerate(half):
        if k == 0:
            continue
        v = u[top - k : top + k]
        r = v * v * a2[i]
        r += v * a1[i]
        r += np.abs(v) * w_abs[i]
        out[i] = np.minimum.reduce(r)
    return out


@pytest.mark.parametrize("step", [H, 1e-3])
@pytest.mark.parametrize("with_abs", [False, True])
def test_folded_grid_matches_the_two_sided_search(step, with_abs):
    rng = np.random.default_rng(14)
    n = 400
    a2 = rng.uniform(0.005, 2.0, n)
    special = rng.choice([0.0, -0.0, 1e-12, -1e-12, 4.0, -4.0], n)
    a1 = np.where(rng.random(n) < 0.5, special, rng.uniform(-4.0, 4.0, n))
    w_abs = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n)) if with_abs else np.zeros(n)
    radius = rng.choice(BOX_RADII, n)
    radius[:2] = 0.4 * step  # no grid point on either side
    a1[:2] = (-4.0, 4.0)
    # NaN rows of either sign, and inf - inf on one half only
    a1[2:5] = (np.nan, -np.nan, np.inf)
    a2[4] = np.inf
    with np.errstate(invalid="ignore"):
        got = reference._rowwise_grid_min(a2, a1, w_abs, radius, step)
        want = two_sided_grid_min(a2, a1, w_abs, radius, step)
    assert np.all(np.isinf(got[:2])) and np.all(np.isnan(got[2:5]))
    # the same bits, signs of zeros and NaNs included
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def adversarial_rows(rng, n, step, with_abs):
    """Rows that probe the window: ties, near-flat rows and degenerate values.

    a2 is log-uniform over 1e-7..1e2, except a group of nearly flat rows
    (a2 down to 1e-12, a large w_abs cancelling most of |a1|) whose rounding
    noise spans many grid points.  Vertices sit on grid points, on midpoints
    between them, one ulp off either, inside or outside the row's range.
    """
    radius = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 7.0, n), rng.choice(BOX_RADII, n))
    a2 = 10.0 ** rng.uniform(-7.0, 2.0, n)
    j = np.floor(rng.random(n) * half_grid(radius, step))
    on_point, midpoint = (j + 0.5) * step, (j + 1.0) * step
    vertex = np.select(
        [np.arange(n) % 6 == k for k in range(5)],
        [on_point, midpoint, np.nextafter(midpoint, np.inf), np.nextafter(midpoint, -np.inf),
         np.nextafter(on_point, np.inf)],
        rng.uniform(-1.0, 2.0, n) * radius,
    )
    w_abs = np.zeros(n)
    if with_abs:
        # in the same call as rows with w_abs = 0
        w_abs = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
        flat = slice(0, n // 4)
        a2[flat] = 10.0 ** rng.uniform(-12.0, -8.0, n // 4)
        radius[flat] = rng.uniform(3.0, 7.0, n // 4)
        vertex[flat] = rng.uniform(0.5, 1.0, n // 4) * radius[flat]
        w_abs[flat] = rng.uniform(0.5, 2.0, n // 4)
    # the positive piece a2*u^2 + (w_abs - |a1|)*u has its vertex at `vertex`
    a1 = (w_abs + 2.0 * a2 * vertex) * rng.choice([-1.0, 1.0], n)

    special = [(0.0, 1.0), (0.0, -1.0), (-0.0, 0.5), (-1.0, 0.5), (-1e-9, 3.0), (np.inf, 1.0),
               (-np.inf, 1.0), (np.nan, 1.0), (1e300, 3.0), (1e300, -1e300), (1e-300, 0.0),
               (1e-300, 1e-290), (1e-300, -1e-300), (0.5, np.nan), (0.5, -np.nan), (0.5, np.inf),
               (0.5, -np.inf), (0.5, 0.0), (0.5, -0.0), (1e-7, 0.0), (0.0, 0.0), (-0.0, -0.0)]
    a2[-len(special):], a1[-len(special):] = np.array(special).T
    radius[n // 2 : n // 2 + 6] = 0.4 * step  # no grid point
    return a2, a1, w_abs, radius


@pytest.mark.parametrize("step", [H, 1e-3])
@pytest.mark.parametrize("with_abs", [False, True])
def test_windowed_search_matches_the_dense_search(step, with_abs):
    rng = np.random.default_rng(17)
    a2, a1, w_abs, radius = adversarial_rows(rng, 600, step, with_abs)
    with np.errstate(all="ignore"):
        got = reference._rowwise_grid_min(a2, a1, w_abs, radius, step)
        want = two_sided_grid_min(a2, a1, w_abs, radius, step)
    assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()
    # the same bits, signs of zeros and NaNs included
    mismatch = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatch.size == 0, [(a2[i], a1[i], w_abs[i], radius[i], got[i], want[i]) for i in mismatch[:5]]


@pytest.mark.parametrize("step", [H, 1e-3])
def test_gathered_rows_keep_the_bits_of_one_row_calls(step):
    # each row is reduced over its own points, whichever block it shares: a
    # one-point NaN row keeps its NaN's sign, which numpy's min over two or
    # more points would not (it returns the default NaN); and every row adds
    # its w_abs*u term, so a zero-sum row gives +0.0 beside rows with
    # w_abs != 0 as it does alone
    for with_abs in (False, True):
        rng = np.random.default_rng(19)
        a2, a1, w_abs, radius = adversarial_rows(rng, 600, step, with_abs)
        one_point = slice(100, 106)
        radius[one_point] = step
        a2[one_point], a1[one_point] = 0.5, (np.nan, -np.nan, 0.0, -0.0, np.inf, 1.0)
        zero_sum = slice(200, 212)
        zero_sum_rows(rng, a2, a1, w_abs, radius, zero_sum)
        assert (w_abs != 0.0).any() == with_abs
        with np.errstate(all="ignore"):
            whole = reference._rowwise_grid_min(a2, a1, w_abs, radius, step)
            alone = [reference._rowwise_grid_min(a2[i : i + 1], a1[i : i + 1], w_abs[i : i + 1], radius[i : i + 1],
                                                 step) for i in range(a2.size)]
        assert same_bits(whole, np.concatenate(alone)), with_abs
        assert same_bits(whole[zero_sum], np.zeros(12)), with_abs


def criterion_1_rows(rng, n):
    """(a2, a1, w_abs, radius, step) of the four checks, at criterion 1's draw ranges."""
    g, u, L, alpha, beta, b = draw_l0_instances(rng, n)
    a2, a1 = 0.5 * (L + alpha), g - L * u
    zeros = np.zeros(n)
    yield a2, a1, zeros, reference.search_radius(a2, a1, beta, b), H
    q, s = rng.uniform(-3, 3, n), rng.uniform(0, 2, n)
    bb = rng.choice([0.6, 1.0, 1.4, math.inf], n)
    q[np.isinf(bb)] = rng.uniform(-2.5, 2.5, int(np.isinf(bb).sum()))
    box = np.full(n, 0.5)
    yield box, -q, zeros, reference.search_radius(box, -q, s, bb), H
    g, u, L, alpha, gamma, b = draw_l0_instances(rng, n)
    a2, a1 = 0.5 * (L + alpha), g - L * u
    yield a2, a1, gamma, reference.search_radius(a2, a1, zeros, b), H
    g1, g2, u1, u2, L, alpha, _ = switch_rows(rng, n)
    w = L + alpha
    b1, b2 = g1 - L * u1, g2 - L * u2
    rad = np.maximum(3.0, np.maximum(np.abs(b1 / w), np.abs(b2 / w)) + 0.5)
    for b12 in (b1, b2):
        yield 0.5 * w, b12, zeros, rad, 1e-3


def test_windows_are_narrow_on_convex_rows_and_whole_on_degenerate_ones():
    # a window that silently widened to the half-grid would keep the bits
    # and lose the speed; this is where it shows
    rng = np.random.default_rng(SEED)
    for a2, a1, w_abs, radius, step in criterion_1_rows(rng, 2000):
        half = half_grid(radius, step)
        lo, hi = reference._grid_windows(a2, -np.abs(a1), w_abs, radius, half, step)
        assert np.all((0 <= lo) & (lo < hi) & (hi <= half))
        assert np.all(hi - lo <= 16), (hi - lo).max()

    a2 = np.array([0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 0.5, 0.5, 0.5, 0.5, 1e-300, 5e-324])
    a1 = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.nan, np.inf, -np.inf, 1.0, 0.0, 1.0])
    w_abs = np.array([0.0] * 9 + [np.inf, 0.0, 0.0])
    radius = np.full(a2.shape, 1.0)
    half = half_grid(radius, H)
    with np.errstate(all="ignore"):
        lo, hi = reference._grid_windows(a2, -np.abs(a1), w_abs, radius, half, H)
    assert np.array_equal(lo, np.zeros_like(lo)) and np.array_equal(hi, half)


def test_window_arithmetic_raises_no_warning():
    rng = np.random.default_rng(18)
    n = 300
    a2 = 10.0 ** rng.uniform(-7.0, 2.0, n)
    a1 = rng.uniform(-4.0, 4.0, n)
    w_abs = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    radius = rng.choice(BOX_RADII, n)
    # the window divides by a2 and overflows 2*a2; the evaluation itself stays finite
    a2[:8] = (0.0, -0.0, -1.0, 1e-300, 5e-324, 1e300, 1e-12, 1e308)
    radius[:8] = 1.0
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        reference._rowwise_grid_min(a2, a1, w_abs, radius, H)
        reference.penalized_quadratic_batch(*penalized_rows(rng, n))
        reference.switch_batch(*switch_rows(rng, n))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_bad_radius_is_rejected(bad):
    radius = np.array([1.0, bad, 0.6])
    ones = np.ones(3)
    with pytest.raises(ValueError, match=r"radius\[1\] = "):
        reference.penalized_quadratic_batch(0.5 * ones, ones, 0.0, 0.1, radius)


# ---------------------------------------------------------------------------
# the admission rule


def one_row(values, objective, minimum, candidates, candidate_values):
    return bool(reference.admit(np.array([values]), np.array([objective]), np.array([minimum]),
                                np.array([candidates]), np.array([candidate_values]))[0])


def test_admit_objective_gap():
    cands, cvals = [0.0, 1.0], [0.5, 0.0]
    assert not one_row(1.0, reference.OBJECTIVE_TOL, 0.0, cands, cvals)
    assert one_row(1.0, np.nextafter(reference.OBJECTIVE_TOL, 1.0), 0.0, cands, cvals)


def test_admit_argument_distance():
    cands, cvals = [0.0, 1.0], [0.5, 0.0]
    assert not one_row(1.0 + 0.5e-8, 0.0, 0.0, cands, cvals)
    assert one_row(1.0 + 2e-8, 0.0, 0.0, cands, cvals)
    # 0 is the nearest candidate, but it is not admitted
    assert one_row(2e-8, 0.0, 0.0, cands, cvals)


def test_admit_candidate_tolerance():
    # the value sits on candidate 1.0; it counts only while that candidate is admitted
    assert not one_row(1.0, 0.0, 0.0, [1.0, 3.0], [reference.CANDIDATE_TOL, 0.0])
    assert one_row(1.0, 0.0, 0.0, [1.0, 3.0], [2.0 * reference.CANDIDATE_TOL, 0.0])
    # nothing admitted: the grid beat every candidate
    assert one_row(1.0, 0.0, 0.0, [1.0, 3.0], [1e-6, 1e-6])


def test_admit_switching_uses_the_max_norm():
    cands = [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0], [0.0, 0.0]]
    cvals = [1.0, 0.0, 1.0, 1.0]
    # 0.8e-8 off in both coordinates: the max-norm distance is within 1e-8, the sum is not
    assert not one_row([0.8e-8, 0.5 + 0.8e-8], 0.0, 0.0, cands, cvals)
    assert one_row([2e-8, 0.5], 0.0, 0.0, cands, cvals)
    # the unadmitted candidate (0.5, 0.5) is ignored
    assert one_row([0.5, 0.5], 0.0, 0.0, cands, cvals)


@pytest.mark.parametrize("penalty, name, wrong", [
    ("l0", "prox_l0_set_arrays", lambda out: (out[0], 1.01 * out[1], out[2])),
    ("l1", "prox_l1_array", lambda out: 1.01 * out),
    ("switching", "prox_switch_arrays", lambda out: out[::-1]),
])
def test_check_prox_runs_the_solver_map_and_flags_a_wrong_one(penalty, name, wrong, monkeypatch):
    # the solver's map with its nonzero values 1% off, or with the switching pair swapped
    g, u, L, alpha, weight, b = draw_l0_instances(np.random.default_rng(7), 500)
    args = (penalty, *(((g, u), (u, g)) if penalty == "switching" else (g, u)), L, alpha, weight, b)
    fail, gap = reference.check_prox(*args)
    assert fail.shape == gap.shape and fail.size >= 500 and not fail.any()
    assert gap.max() <= reference.OBJECTIVE_TOL
    right = getattr(prox, name)
    monkeypatch.setattr(prox, name, lambda *a: wrong(right(*a)))
    assert reference.check_prox(*args)[0].any()


def test_search_radius_matches_the_criterion_1_formula():
    # criterion 1 searched each unbounded row to |vertex| + sqrt(w_supp/a2) + 1/2
    rng = np.random.default_rng(SEED)
    g, u, L, alpha, beta, b = draw_l0_instances(rng, N_INSTANCES)
    q = rng.uniform(-3, 3, N_INSTANCES)
    s = rng.uniform(0, 2, N_INSTANCES)
    bb = rng.choice([0.6, 1.0, 1.4, math.inf], N_INSTANCES)
    q[np.isinf(bb)] = rng.uniform(-2.5, 2.5, int(np.isinf(bb).sum()))
    g1, u1, L1, alpha1, gamma, b1 = draw_l0_instances(rng, N_INSTANCES)
    half = np.full(N_INSTANCES, 0.5)
    rows = (
        (0.5 * (L + alpha), g - L * u, beta, b, None),
        (half, -q, s, bb, q),
        (0.5 * (L1 + alpha1), g1 - L1 * u1, np.zeros(N_INSTANCES), b1, None),
    )
    for a2, a1, w_supp, bound, vertex in rows:
        vertex = -a1 / (2 * a2) if vertex is None else vertex
        want = np.where(np.isinf(bound), np.abs(vertex) + np.sqrt(w_supp / a2) + 0.5, bound)
        got = reference.search_radius(a2, a1, w_supp, bound)
        assert np.isinf(bound).any()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the scalar references are rows of the batch search


def batch_argmins(candidates, candidate_values, minimum):
    tol = reference.CANDIDATE_TOL
    admitted = [c for c, v in zip(candidates.tolist(), candidate_values) if v <= minimum + tol]
    return tuple(sorted(set(tuple(c) if isinstance(c, list) else c for c in admitted)))


def test_penalized_scalar_references_are_batch_rows():
    rng = np.random.default_rng(15)
    n = 60
    g, u, L, alpha, w, b = draw_l0_instances(rng, n)
    a2, a1 = 0.5 * (L + alpha), g - L * u
    const = 0.5 * L * u**2
    scalar = (
        (oracles.prox_l0_reference, 0.0, w),
        (oracles.prox_l1_reference, w, 0.0),
    )
    for ref, w_abs, w_supp in scalar:
        w_supp = np.broadcast_to(w_supp, (n,))
        radius = reference.search_radius(a2, a1, w_supp, b)
        m, c, v = reference.penalized_quadratic_batch(a2, a1, w_abs, w_supp, radius)
        for i in range(n):
            best, argmins = ref(g[i], u[i], L[i], alpha[i], w[i], b[i])
            assert best == m[i] + const[i], (ref.__name__, i)
            assert argmins == batch_argmins(c[i], v[i], m[i]), (ref.__name__, i)

    q, s = rng.uniform(-3, 3, n), rng.uniform(0, 2, n)
    half = np.full(n, 0.5)
    m, c, v = reference.penalized_quadratic_batch(half, -q, 0.0, s, reference.search_radius(half, -q, s, b))
    for i in range(n):
        assert oracles.box_threshold_reference(q[i], s[i], b[i]) == (m[i], batch_argmins(c[i], v[i], m[i]))


def test_switch_scalar_reference_is_a_batch_row():
    rng = np.random.default_rng(16)
    rows = switch_rows(rng, 40)
    m, c, v = reference.switch_batch(*rows)
    for i in range(40):
        best, argmins = oracles.prox_switch_reference(*(r[i] for r in rows))
        assert (best, argmins) == (m[i], batch_argmins(c[i], v[i], m[i])), i


# ---------------------------------------------------------------------------
# hand-built ties keep their set semantics


def test_box_threshold_tie():
    # -2u + u^2/2 + 2*(u != 0) is 0 at both u = 0 and u = 2
    assert oracles.box_threshold_reference(2.0, 2.0, math.inf) == (0.0, (0.0, 2.0))
    assert oracles.box_threshold_reference(-2.0, 2.0, 3.0) == (0.0, (-2.0, 0.0))


def test_prox_l0_tie_keeps_the_dropped_constant():
    # a2 = 1/2 and a1 = -2 as in the box tie, shifted by (L/2)*u_k^2 = 1
    assert oracles.prox_l0_reference(-1.0, 2.0, 0.5, 0.5, 2.0, math.inf) == (1.0, (0.0, 2.0))


def test_switching_ties():
    # w = 2 and m1 = m2 = 1/2: the two one-sided restrictions tie at -1/4
    assert oracles.prox_switch_reference(-1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 10.0) == (
        -0.25, ((0.0, 0.5), (0.5, 0.0)))
    # |m1| = |m2| with opposite signs, and beta = 1/4 ties the full vertex in as well
    assert oracles.prox_switch_reference(-1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.25) == (
        -0.25, ((0.0, -0.5), (0.5, -0.5), (0.5, 0.0)))
