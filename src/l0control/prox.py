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
`_prox_switch` for the paired switching prox.  The cores are elementwise in
every argument, parameters included (b = +inf is a `_clip` to +-inf, the
identity), and use primitives that take a float or an ndarray alike: `abs`,
the operators, `&`, and `_clip`, `_where`, `_minimum`, `_maximum`, `_sign`
and `_sqrt`, which run plain Python on builtin floats (with numpy's NaN and
signed-zero results) and call numpy on anything else.  The solver runs the
cores over whole control fields through the array maps `prox_l0_set_arrays`,
`prox_l1_array` and `prox_switch_arrays` (in `solver._prox_sets`), which take
scalar or per-cell parameters; `reference.check_prox` runs them on one
parameter set per row.  The scalar API (`hard_threshold`,
`box_hard_threshold`, `prox_l0`, `prox_l1`, `prox_switch`) validates its
arguments, converts them to builtin floats, calls the same core and
packages the result as a `ScalarSolutionSet`, a float or a
`SwitchingPoint`; these and `ProxParams` are slotted dataclasses, and
`ProxParams` and `SwitchingPoint` store their fields as the checked
builtin floats.  A scalar call does no numpy work (0.8-1.9 us on a 2-core
x86 host) and gives the same bits as the array map's row.  Its range
checkers `nonnegative`, `positive` and `box_bound`, and `positive_integer`
for counts, are the package's only ones: `ProblemSpec` and `SolverOptions`
call them too.

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


def _finite(name, x):
    """x as a builtin float, after checking that it is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def nonnegative(name, x):
    """x as a builtin float, after checking that it is finite and >= 0 (-0.0 passes)."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be a finite nonnegative real, got {x}")
    return x


def positive(name, x):
    """x as a builtin float, after checking that it is finite and > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {x}")
    return x


def box_bound(name, b):
    """b as a builtin float, after checking that it is positive (+inf allowed)."""
    b = float(b)
    if not (b > 0):
        raise ValueError(f"{name} must be positive (or +inf), got {b}")
    return b


def positive_integer(name, n):
    """Check that n is an int (not a bool) and >= 1."""
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")


def _weight(L, alpha):
    """L + alpha, after checking that it is positive in every row."""
    w = L + alpha
    if (w <= 0) if type(w) is float else np.any(w <= 0):
        raise ValueError("L + alpha must be positive")
    return w


@dataclass(slots=True)
class ScalarSolutionSet:
    """Solution set of a scalar thresholding problem: 1 value, or 2 values one of which is 0."""

    values: tuple


@dataclass(slots=True)
class ProxParams:
    """Weights of the pointwise prox subproblem, stored as checked builtin floats.

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
        self.L = nonnegative("L", self.L)
        self.alpha = nonnegative("alpha", self.alpha)
        self.beta = positive("beta", self.beta)
        self.bound = box_bound("bound", self.bound)


@dataclass(slots=True)
class SwitchingPoint:
    """A pair of control values attached to one point of the 1-D grid, stored as checked builtin floats."""

    u1: float
    u2: float

    def __post_init__(self):
        self.u1 = _finite("u1", self.u1)
        self.u2 = _finite("u2", self.u2)


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


def _sqrt(x):
    """np.sqrt(x) for x >= 0: both round correctly, so the bits agree."""
    if type(x) is not float:
        return np.sqrt(x)
    return math.sqrt(x)


# ---------------------------------------------------------------------------
# the cores: one elementwise implementation per map
# ---------------------------------------------------------------------------


def _zero_threshold(s, b):
    """The |q| up to which 0 competes with clip(q) in  -q*u + u^2/2 + s*|u|_0, |u| <= b.

    sqrt(2s) when sqrt(2s) <= b (always when b = +inf), b/2 + s/b otherwise.
    """
    root = _sqrt(2.0 * s)
    return _where(root <= b, root, 0.5 * b + s / b)


def _l0_sets(q, zero_threshold, b):
    """Minimizer sets of  -q*u + u^2/2 + s*|u|_0  over |u| <= b, elementwise in q.

    zero_threshold is _zero_threshold(s, b) (or any positive hard threshold
    when b = +inf).  Returns (zero_ok, v, v_ok): 0 belongs to the set where
    zero_ok, and the nonzero candidate v = clip(q, -b, b) belongs where v_ok.
    At least one of the two holds everywhere.
    """
    aq = abs(q)
    v = _clip(q, -b, b)
    zero_ok = aq <= zero_threshold + TIE_TOL
    v_ok = (aq >= zero_threshold - TIE_TOL) & (v != 0.0)
    return zero_ok, v, v_ok


def _prox_l1(g, u, L, alpha, gamma, bound):
    """Soft thresholding of L*u - g at gamma, scaled by 1/(L+alpha), clipped to the box."""
    w = _weight(L, alpha)
    z = L * u - g
    out = _sign(z) * _maximum(abs(z) - gamma, 0.0) / w
    return _clip(out, -bound, bound)


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
    t = positive("threshold t", t)
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
    s = nonnegative("s", s)
    b = box_bound("b", b)
    if s == 0.0 and math.isinf(b):
        return ScalarSolutionSet((q,))
    return _solution_set(*_l0_sets(q, _zero_threshold(s, b), b))


def prox_l0(g_k, u_k, p: ProxParams):
    """Global minimizers of  g_k*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + beta*|u|_0  over |u| <= b.

    Reduces to box_hard_threshold at the gradient-shifted argument
    (L*u_k - g_k)/(L+alpha) with s = beta/(L+alpha).  Every nonzero output
    has magnitude at least min(b, sqrt(2*beta/(L+alpha))).
    """
    g_k = _finite("g_k", g_k)
    u_k = _finite("u_k", u_k)
    L, b = p.L, p.bound
    w = _weight(L, p.alpha)
    q = (L * u_k - g_k) / w
    return _solution_set(*_l0_sets(q, _zero_threshold(p.beta / w, b), b))


def prox_l1(g_k, u_k, L, alpha, gamma, b=math.inf):
    """Unique minimizer of  g_k*u + (L/2)(u-u_k)^2 + (alpha/2)u^2 + gamma*|u|  over |u| <= b.

    Soft thresholding of L*u_k - g_k at level gamma, scaled by 1/(L+alpha)
    and clipped to the box.  L and alpha are checked as ProxParams checks them.
    """
    g_k = _finite("g_k", g_k)
    u_k = _finite("u_k", u_k)
    L = nonnegative("L", L)
    alpha = nonnegative("alpha", alpha)
    gamma = nonnegative("gamma", gamma)
    b = box_bound("b", b)
    return _prox_l1(g_k, u_k, L, alpha, gamma, b)


def prox_switch(g: SwitchingPoint, u_k: SwitchingPoint, L, alpha, beta):
    """Global minimizer of  g.u + (L/2)|u-u_k|^2 + (alpha/2)|u|^2 + beta*|u1*u2|_0  over R^2.

    Enumerates the unconstrained quadratic vertex and its two one-sided
    restrictions (u1 = 0 and u2 = 0) and keeps the cheapest; objective ties
    within 1e-12 prefer a zero-product candidate, then u1 = 0 over u2 = 0.
    L and alpha are checked as ProxParams checks them.
    """
    L = nonnegative("L", L)
    alpha = nonnegative("alpha", alpha)
    beta = positive("beta", beta)
    u1, u2 = _prox_switch(g.u1, g.u2, u_k.u1, u_k.u2, L, alpha, beta)
    return SwitchingPoint(u1, u2)


# ---------------------------------------------------------------------------
# array maps used by the solver on whole control fields
# ---------------------------------------------------------------------------


def prox_l0_set_arrays(g, u, L, alpha, beta, bound):
    """Vectorized solution-set description of prox_l0 over arrays; scalar or per-cell parameters.

    Returns (zero_ok, v, v_ok): 0 belongs to the set where zero_ok, and the
    nonzero candidate v (the clipped shifted argument) belongs where v_ok.
    """
    w = _weight(L, alpha)
    q = (L * np.asarray(u, dtype=float) - np.asarray(g, dtype=float)) / w
    return _l0_sets(q, _zero_threshold(beta / w, bound), bound)


# kept only because perfbench/spans.py hooks it
def prox_l0_array(g, u, L, alpha, beta, bound):
    """Canonical (tie -> 0) selection of prox_l0, vectorized over cells."""
    zero_ok, v, _ = prox_l0_set_arrays(g, u, L, alpha, beta, bound)
    return np.where(zero_ok, 0.0, v)


def prox_l1_array(g, u, L, alpha, gamma, bound):
    """Soft-thresholding prox, vectorized over cells; scalar or per-cell parameters."""
    return _prox_l1(np.asarray(g, dtype=float), np.asarray(u, dtype=float), L, alpha, gamma, bound)


def prox_switch_arrays(g1, g2, u1, u2, L, alpha, beta):
    """Vectorized prox_switch over paired 1-D control arrays; scalar or per-cell parameters."""
    g1, g2, u1, u2 = (np.asarray(x, dtype=float) for x in (g1, g2, u1, u2))
    return _prox_switch(g1, g2, u1, u2, L, alpha, beta)
