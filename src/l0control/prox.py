"""Closed-form proximal operators for support-penalized objectives.

All operators here minimize one-dimensional (or, for the switching variant,
two-dimensional) model problems of the form

    q*u + u^2/2 + s*|u|_0         over |u| <= b,

where |u|_0 is 0 at u = 0 and 1 otherwise.  Because the penalty is
discontinuous at the origin, the solution maps are set-valued at tie points;
the sets always have one or two elements and contain 0 whenever they are
multi-valued.  The canonical (measurable) selection takes 0 at ties.

Each map has one implementation, a private core: `_l0_sets` for the
hard-thresholding family, `_prox_l1` for soft thresholding and
`_prox_switch` for the paired switching prox.  The cores are written against
primitives that take a float or an ndarray alike: the builtin `abs`, the
arithmetic and comparison operators, `&`, and `_clip`, `_where`, `_minimum`,
`_maximum` and `_sign`, which run plain Python on builtin floats (with
numpy's NaN and signed-zero results) and call numpy on anything else.  The solver runs the cores over
whole control fields through the array maps (`prox_l0_array`,
`prox_l0_set_arrays`, `prox_l1_array`, `prox_switch_arrays`); the scalar API
(`hard_threshold`, `box_hard_threshold`, `prox_l0`, `prox_l1`,
`prox_switch`) validates its arguments, converts them to builtin floats,
calls the same core and packages the result as a `ScalarSolutionSet`, a
float or a `SwitchingPoint`.  A scalar call does no numpy work (1.4-3.6 us
on a 2-core x86 host) and gives the same bits as the array map's row.

Ties on the defining equalities are detected with an absolute tolerance of
1e-12 so that double-precision inputs that are ties "in intent" (e.g. a
threshold computed as sqrt(2*beta/(L+alpha))) produce the two-element set
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIE_TOL = 1e-12

__all__ = [
    "TIE_TOL",
    "ScalarSolutionSet",
    "ProxParams",
    "SwitchingPoint",
    "hard_threshold",
    "box_hard_threshold",
    "prox_l0",
    "prox_l1",
    "prox_switch",
    "separation_threshold",
    "fp_membership",
    "convex_envelope_value",
    "convexified_not_fixed_point_check",
    "prox_l0_array",
    "prox_l0_set_arrays",
    "prox_l1_array",
    "prox_switch_arrays",
]


def _finite(name, x):
    """x as a builtin float, after checking that it is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _nonnegative(name, x):
    """x as a builtin float, after checking that it is finite and >= 0."""
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise ValueError(f"{name} must be a finite nonnegative real, got {x}")
    return x


def _positive(name, x):
    """x as a builtin float, after checking that it is finite and > 0."""
    x = float(x)
    if not (x > 0) or not math.isfinite(x):
        raise ValueError(f"{name} must be a finite positive real, got {x}")
    return x


def _box_bound(name, b):
    """b as a builtin float, after checking that it is positive (+inf allowed)."""
    b = float(b)
    if not (b > 0):
        raise ValueError(f"{name} must be positive (or +inf), got {b}")
    return b


def _weight(L, alpha):
    w = L + alpha
    if w <= 0:
        raise ValueError("L + alpha must be positive")
    return w


@dataclass(frozen=True, init=False)
class ScalarSolutionSet:
    """Solution set of a scalar thresholding problem: 1 or 2 values.

    When two values are present one of them is 0 and `canonical` is 0;
    otherwise `canonical` is the unique value.
    """

    values: tuple
    canonical: float

    def __init__(self, values):
        vals = tuple(map(float, values))
        if len(vals) == 1:
            canonical = vals[0]
        elif len(vals) == 2 and 0.0 in vals:
            canonical = 0.0
        else:
            raise ValueError(f"a solution set holds 1 value, or 2 values one of which is 0; got {vals}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "canonical", canonical)

    def distance(self, x):
        """Distance from x to the set."""
        return min(abs(x - v) for v in self.values)

    def contains(self, x, tol=1e-10):
        return self.distance(x) <= tol


@dataclass(frozen=True)
class ProxParams:
    """Weights of the pointwise prox subproblem.

    L:     prox weight (>= 0)
    alpha: quadratic control-cost weight (>= 0); L + alpha > 0 required
           whenever the operator is applied
    beta:  support-penalty weight (> 0)
    bound: box bound in (0, +inf]; +inf selects the unconstrained case
    """

    L: float
    alpha: float
    beta: float
    bound: float = math.inf

    def __post_init__(self):
        _nonnegative("L", self.L)
        _nonnegative("alpha", self.alpha)
        _positive("beta", self.beta)
        _box_bound("bound", self.bound)

    def _weight(self):
        return _weight(self.L, self.alpha)


@dataclass(frozen=True)
class SwitchingPoint:
    """A pair of control values attached to one point of the 1-D grid."""

    u1: float
    u2: float

    def __post_init__(self):
        _finite("u1", self.u1)
        _finite("u2", self.u2)


# ---------------------------------------------------------------------------
# primitives of the cores: plain Python on builtin floats, numpy otherwise
# ---------------------------------------------------------------------------
# The scalar API hands the cores builtin floats only; arrays and numpy scalars
# (which subclass float, hence the exact type tests) take numpy's branch.  The
# float branches return what numpy returns on a float64, NaN and signed zeros
# included, so a scalar call and the matching array row give the same bits.


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) for lo < hi: NaN and -0.0 pass through."""
    if type(x) is not float:
        return x.clip(lo, hi)
    return lo if x < lo else hi if x > hi else x


def _where(cond, a, b):
    """np.where(cond, a, b)."""
    if type(cond) is not bool:
        return np.where(cond, a, b)
    return a if cond else b


def _minimum(a, b):
    """np.minimum(a, b): the first NaN, else b on ties (so min(0.0, -0.0) is -0.0)."""
    if type(a) is not float:
        return np.minimum(a, b)
    return a if a < b or a != a else b


def _maximum(a, b):
    """np.maximum(a, b): the first NaN, else b on ties."""
    if type(a) is not float:
        return np.maximum(a, b)
    return a if a > b or a != a else b


def _sign(x):
    """np.sign(x): +-1.0, 0.0 for either zero, NaN for NaN."""
    if type(x) is not float:
        return np.sign(x)
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x if x != x else 0.0


# ---------------------------------------------------------------------------
# the cores: one elementwise implementation per map
# ---------------------------------------------------------------------------


def _zero_threshold(s, b):
    """The |q| up to which 0 competes with clip(q) in  -q*u + u^2/2 + s*|u|_0, |u| <= b.

    sqrt(2s) when sqrt(2s) <= b (or b = +inf), b/2 + s/b otherwise.
    """
    root = math.sqrt(2.0 * s)
    if math.isinf(b) or root <= b:
        return root
    return 0.5 * b + s / b


def _l0_sets(q, zero_threshold, b):
    """Minimizer sets of  -q*u + u^2/2 + s*|u|_0  over |u| <= b, elementwise in q.

    zero_threshold is _zero_threshold(s, b) (or any positive hard threshold
    when b = +inf).  Returns (zero_ok, v, v_ok): 0 belongs to the set where
    zero_ok, and the nonzero candidate v = clip(q, -b, b) belongs where v_ok.
    At least one of the two holds everywhere.
    """
    aq = abs(q)
    v = q if math.isinf(b) else _clip(q, -b, b)
    zero_ok = aq <= zero_threshold + TIE_TOL
    v_ok = (aq >= zero_threshold - TIE_TOL) & (v != 0.0)
    return zero_ok, v, v_ok


def _prox_l1(g, u, L, alpha, gamma, bound):
    """Soft thresholding of L*u - g at gamma, scaled by 1/(L+alpha), clipped to the box."""
    w = _weight(L, alpha)
    z = L * u - g
    out = _sign(z) * _maximum(abs(z) - gamma, 0.0) / w
    return out if math.isinf(bound) else _clip(out, -bound, bound)


def _prox_switch(g1, g2, u1, u2, L, alpha, beta):
    """Paired switching prox: cheapest of the vertex and its two one-sided restrictions."""
    w = _weight(L, alpha)
    m1 = (L * u1 - g1) / w
    m2 = (L * u2 - g2) / w

    # The objective  g.a + (L/2)|a - u|^2 + (alpha/2)|a|^2  at the vertex and
    # at its two one-sided restrictions, built from per-axis pieces and summed
    # in this order: g.a, then the L term, then the alpha term.  An axis at 0
    # contributes 0 to g.a and to |a|^2, and u^2 to |a - u|^2.
    lin1, lin2 = g1 * m1, g2 * m2
    d1, d2 = m1 - u1, m2 - u2
    dev1, dev2 = d1 * d1, d2 * d2
    sq1, sq2 = m1 * m1, m2 * m2
    half_L, half_alpha = 0.5 * L, 0.5 * alpha
    obj_full = (lin1 + lin2 + half_L * (dev1 + dev2) + half_alpha * (sq1 + sq2)
                + _where((m1 != 0.0) & (m2 != 0.0), beta, 0.0))
    obj_first_off = lin2 + half_L * (u1 * u1 + dev2) + half_alpha * sq2
    obj_second_off = lin1 + half_L * (dev1 + u2 * u2) + half_alpha * sq1

    best = _minimum(obj_full, _minimum(obj_first_off, obj_second_off))
    take_first_off = obj_first_off <= best + TIE_TOL
    take_second_off = _where(take_first_off, False, obj_second_off <= best + TIE_TOL)
    return _where(take_first_off, 0.0, m1), _where(take_second_off, 0.0, m2)


def _solution_set(zero_ok, v, v_ok):
    """One scalar _l0_sets result as a ScalarSolutionSet."""
    values = ((0.0,) if zero_ok else ()) + ((v,) if v_ok else ())
    return ScalarSolutionSet(values)


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------


def hard_threshold(q, t):
    """Solution set of  min_u  -q*u + u^2/2 + (t^2/2)*|u|_0  over the reals.

    Keeps q when |q| > t, returns {0, q} at |q| = t (within TIE_TOL), and
    {0} when |q| < t.
    """
    q = _finite("q", q)
    t = _positive("threshold t", t)
    return _solution_set(*_l0_sets(q, t, math.inf))


def box_hard_threshold(q, s, b):
    """All global minimizers of  -q*u + u^2/2 + s*|u|_0  over |u| <= b.

    The set is {clip(q)} well inside the active region, {0} well inside the
    dead zone, and the two-element tie set on the (tolerance-widened)
    boundary between them.  b may be +inf, in which case the map reduces to
    hard_threshold(q, sqrt(2s)), and to {q} when s = 0 as well.

    As a set-valued map of q this is monotone with closed graph but not
    maximal: filling each jump at a tie point with the whole segment between
    its two values yields the (unique) maximal monotone extension.  Only the
    minimizer set is constructed here; the extension exists solely at the
    two tie arguments and has no computational role.
    """
    q = _finite("q", q)
    s = _nonnegative("s", s)
    b = _box_bound("b", b)
    if s == 0.0 and math.isinf(b):
        return ScalarSolutionSet((q,))
    return _solution_set(*_l0_sets(q, _zero_threshold(s, b), b))


def separation_threshold(p: ProxParams):
    """Smallest magnitude a nonzero prox output can take: min(b, sqrt(2*beta/(L+alpha)))."""
    w = p._weight()
    return min(p.bound, math.sqrt(2.0 * p.beta / w))


def prox_l0(g_k, u_k, p: ProxParams):
    """Global minimizers of  g_k*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + beta*|u|_0  over |u| <= b.

    Reduces to box_hard_threshold at the gradient-shifted argument
    (L*u_k - g_k)/(L+alpha) with s = beta/(L+alpha).  Every nonzero output
    has magnitude at least separation_threshold(p).
    """
    g_k = _finite("g_k", g_k)
    u_k = _finite("u_k", u_k)
    L, b = float(p.L), float(p.bound)
    w = _weight(L, float(p.alpha))
    q = (L * u_k - g_k) / w
    return _solution_set(*_l0_sets(q, _zero_threshold(float(p.beta) / w, b), b))


def prox_l1(g_k, u_k, L, alpha, gamma, b=math.inf):
    """Unique minimizer of  g_k*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + gamma*|u|  over |u| <= b.

    Soft thresholding of L*u_k - g_k at level gamma, scaled by 1/(L+alpha)
    and clipped to the box.  L and alpha are checked as ProxParams checks them.
    """
    g_k = _finite("g_k", g_k)
    u_k = _finite("u_k", u_k)
    L = _nonnegative("L", L)
    alpha = _nonnegative("alpha", alpha)
    gamma = _nonnegative("gamma", gamma)
    b = _box_bound("b", b)
    return _prox_l1(g_k, u_k, L, alpha, gamma, b)


def prox_switch(g: SwitchingPoint, u_k: SwitchingPoint, L, alpha, beta):
    """Global minimizer of  g.u + (L/2)|u-u_k|^2 + (alpha/2)|u|^2 + beta*|u1*u2|_0  over R^2.

    Enumerates the unconstrained quadratic vertex and its two one-sided
    restrictions (u1 = 0 and u2 = 0) and keeps the cheapest; objective ties
    within 1e-12 prefer a zero-product candidate, then u1 = 0 over u2 = 0.
    L and alpha are checked as ProxParams checks them.
    """
    L = _nonnegative("L", L)
    alpha = _nonnegative("alpha", alpha)
    beta = _positive("beta", beta)
    u1, u2 = _prox_switch(float(g.u1), float(g.u2), float(u_k.u1), float(u_k.u2), L, alpha, beta)
    return SwitchingPoint(u1, u2)


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
    w = p._weight()
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


def convex_envelope_value(u, alpha, beta):
    """Convex envelope of  (alpha/2)u^2 + beta*|u|_0  at u.

    Linear with slope sqrt(2*alpha*beta) inside |u| <= sqrt(2*beta/alpha),
    and beta + (alpha/2)u^2 outside; the two branches meet continuously.
    """
    u = _finite("u", u)
    alpha = _positive("alpha", alpha)
    beta = _positive("beta", beta)
    cutoff = math.sqrt(2.0 * beta / alpha)
    if abs(u) >= cutoff:
        return beta + 0.5 * alpha * u * u
    return math.sqrt(2.0 * alpha * beta) * abs(u)


def convexified_not_fixed_point_check(g, alpha, beta, b, L, u_bar=None):
    """Check that an interior envelope minimizer escapes under the thresholding step.

    Requires |g| = sqrt(2*alpha*beta) (within TIE_TOL), the configuration in
    which the envelope g*u + conv_env(u) is minimized on a whole segment.
    u_bar defaults to the segment midpoint sign(-g)*min(b, sqrt(2*beta/alpha))/2.
    Returns True iff u_bar is not reproduced by prox_l0(g, u_bar, .) and the
    canonical step from u_bar strictly decreases g*u + (alpha/2)u^2 + beta*|u|_0.
    """
    _positive("L", L)
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

    escaped = not sol.contains(u_bar, tol=TIE_TOL)
    decreased = pointwise(sol.canonical) < pointwise(u_bar)
    return escaped and decreased


# ---------------------------------------------------------------------------
# array maps used by the solver on whole control fields
# ---------------------------------------------------------------------------


def prox_l0_set_arrays(g, u, L, alpha, beta, bound):
    """Vectorized solution-set description of prox_l0 over arrays.

    Returns (zero_ok, v, v_ok): 0 belongs to the set where zero_ok, and the
    nonzero candidate v (the clipped shifted argument) belongs where v_ok.
    """
    w = _weight(L, alpha)
    q = (L * np.asarray(u, dtype=float) - np.asarray(g, dtype=float)) / w
    return _l0_sets(q, _zero_threshold(beta / w, bound), bound)


def prox_l0_array(g, u, L, alpha, beta, bound):
    """Canonical (tie -> 0) selection of prox_l0, vectorized over cells."""
    zero_ok, v, _ = prox_l0_set_arrays(g, u, L, alpha, beta, bound)
    return np.where(zero_ok, 0.0, v)


def prox_l1_array(g, u, L, alpha, gamma, bound):
    """Soft-thresholding prox, vectorized over cells."""
    return _prox_l1(np.asarray(g, dtype=float), np.asarray(u, dtype=float), L, alpha, gamma, bound)


def prox_switch_arrays(g1, g2, u1, u2, L, alpha, beta):
    """Vectorized prox_switch over paired 1-D control arrays."""
    g1, g2, u1, u2 = (np.asarray(x, dtype=float) for x in (g1, g2, u1, u2))
    return _prox_switch(g1, g2, u1, u2, L, alpha, beta)
