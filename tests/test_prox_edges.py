"""Thresholding maps at ties and edges, against the brute-force references.

The cases sit where the closed forms switch branches: |q| within a few
TIE_TOL of the zero threshold, sqrt(2s) = b (both branches of the box map
meet), L = 0 with alpha > 0, and instances scaled over 1e-8 .. 1e8.  Every
element of a scalar solution set must be a global minimizer according to the
reference, and the scalar canonical value must equal the array map's value at
the same argument.

A scaled instance multiplies u, g and b by M and the support weight by M^2,
so its objective is M^2 times the unit one; the reference grid step and the
objective tolerance are scaled to match.  Every set element is also allowed
the objective slack that the absolute tie widening (|q| moved by TIE_TOL)
can cost: w*TIE_TOL*|v|.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l0control import reference
from l0control.prox import (
    TIE_TOL,
    ProxParams,
    SwitchingPoint,
    box_hard_threshold,
    hard_threshold,
    prox_l0,
    prox_l0_array,
    prox_l1,
    prox_l1_array,
    prox_switch,
    prox_switch_arrays,
)

OBJ_TOL = 1e-10
ARG_TOL = 1e-8

edge_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

sign = st.sampled_from((-1.0, 1.0))
# offsets from a threshold in units of TIE_TOL: inside, on and outside the tie band
tie_offset = st.sampled_from((-3.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0))
weight = st.floats(0.01, 2.0)
prox_weight = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
box = st.one_of(st.floats(0.3, 3.0), st.just(math.inf))
scale = st.integers(-8, 8).map(lambda k: 10.0**k)


def zero_threshold(s, b):
    """Where 0 and clip(q) tie, written from the two-branch case analysis."""
    root = math.sqrt(2.0 * s)
    return root if root <= b else 0.5 * b + s / b


def l0_objective(u, g, u_k, L, alpha, beta):
    return g * u + 0.5 * L * (u - u_k) ** 2 + 0.5 * alpha * u * u + (beta if u != 0.0 else 0.0)


def assert_global_minimizers(values, objective, best, argmins=None, w=1.0, m=1.0):
    """Objective of every value within tolerance of the reference minimum; near an argmin if given."""
    if argmins is not None:
        assert argmins, "the reference grid beat every analytic candidate"
    for v in values:
        slack = OBJ_TOL * m * m + 2.0 * w * TIE_TOL * abs(v)
        assert abs(objective(v) - best) <= slack, (v, objective(v), best)
        if argmins is not None:
            assert min(abs(v - a) for a in argmins) <= ARG_TOL * m


def assert_tie_structure(sol, offset):
    """Inside half the tie band the set is {0, v}; three bands out it is a singleton."""
    if abs(offset) <= 0.5:
        assert len(sol.values) == 2 and sol.canonical == 0.0
    elif abs(offset) >= 3.0:
        assert len(sol.values) == 1


def box_array_value(q, s, b):
    # box_hard_threshold(q, s, b) is prox_l0 at g = -q, u_k = 0, L = 0, alpha = 1, beta = s
    return prox_l0_array(np.array([-q]), np.zeros(1), 0.0, 1.0, s, b)[0]


# ---------------------------------------------------------------------------
# ties on the zero threshold


@edge_settings
@given(t=st.floats(0.1, 2.0), sgn=sign, offset=tie_offset)
def test_hard_threshold_at_tie(t, sgn, offset):
    q = sgn * (t + offset * TIE_TOL)
    sol = hard_threshold(q, t)
    best, argmins = reference.box_threshold_reference(q, 0.5 * t * t, math.inf)
    assert_global_minimizers(sol.values, lambda v: -q * v + 0.5 * v * v + (0.5 * t * t if v else 0.0),
                             best, argmins)
    assert_tie_structure(sol, offset)
    # sqrt(fl(t*t)) == t in binary floating point, so the array map sees the threshold t itself
    assert sol.canonical == box_array_value(q, 0.5 * t * t, math.inf)


@edge_settings
@given(s=weight, b=box, sgn=sign, offset=tie_offset)
def test_box_hard_threshold_at_tie(s, b, sgn, offset):
    q = sgn * (zero_threshold(s, b) + offset * TIE_TOL)
    sol = box_hard_threshold(q, s, b)
    best, argmins = reference.box_threshold_reference(q, s, b)
    assert_global_minimizers(sol.values, lambda v: -q * v + 0.5 * v * v + (s if v else 0.0), best, argmins)
    assert_tie_structure(sol, offset)
    assert sol.canonical == box_array_value(q, s, b)


@edge_settings
@given(L=prox_weight, alpha=weight, beta=weight, b=box, u_k=st.floats(-2.0, 2.0), sgn=sign, offset=tie_offset)
def test_prox_l0_at_tie(L, alpha, beta, b, u_k, sgn, offset):
    # L = 0 is drawn on its own: the shifted argument is then -g/alpha and u_k drops out
    w = L + alpha
    g = L * u_k - w * sgn * (zero_threshold(beta / w, b) + offset * TIE_TOL)
    sol = prox_l0(g, u_k, ProxParams(L=L, alpha=alpha, beta=beta, bound=b))
    best, argmins = reference.prox_l0_reference(g, u_k, L, alpha, beta, b)
    assert_global_minimizers(sol.values, lambda v: l0_objective(v, g, u_k, L, alpha, beta), best, argmins, w=w)
    assert_tie_structure(sol, offset)
    assert sol.canonical == prox_l0_array(np.array([g]), np.array([u_k]), L, alpha, beta, b)[0]


# ---------------------------------------------------------------------------
# sqrt(2s) = b: both branches of the box map give the threshold b


@edge_settings
@given(b=st.floats(0.2, 2.5), q=st.one_of(st.floats(-3.0, 3.0), st.just(0.0)), sgn=sign, offset=tie_offset)
def test_box_hard_threshold_root_equals_bound(b, q, sgn, offset):
    s = 0.5 * b * b
    for arg in (q, sgn * (b + offset * TIE_TOL)):
        sol = box_hard_threshold(arg, s, b)
        best, argmins = reference.box_threshold_reference(arg, s, b)
        assert_global_minimizers(sol.values, lambda v: -arg * v + 0.5 * v * v + (s if v else 0.0),
                                 best, argmins)
        assert all(v == 0.0 or abs(abs(v) - b) <= 2.0 * TIE_TOL for v in sol.values)
        assert sol.canonical == box_array_value(arg, s, b)
    assert_tie_structure(box_hard_threshold(sgn * (b + offset * TIE_TOL), s, b), offset)


@edge_settings
@given(L=prox_weight, alpha=weight, beta=weight, g=st.floats(-4.0, 4.0), u_k=st.floats(-2.0, 2.0))
def test_prox_l0_root_equals_bound(L, alpha, beta, g, u_k):
    w = L + alpha
    b = math.sqrt(2.0 * beta / w)
    sol = prox_l0(g, u_k, ProxParams(L=L, alpha=alpha, beta=beta, bound=b))
    best, argmins = reference.prox_l0_reference(g, u_k, L, alpha, beta, b)
    assert_global_minimizers(sol.values, lambda v: l0_objective(v, g, u_k, L, alpha, beta), best, argmins, w=w)
    assert sol.canonical == prox_l0_array(np.array([g]), np.array([u_k]), L, alpha, beta, b)[0]


# ---------------------------------------------------------------------------
# soft thresholding at its kinks, and the switching prox at its objective ties


@edge_settings
@given(L=prox_weight, alpha=weight, gamma=weight, b=box, u_k=st.floats(-2.0, 2.0), sgn=sign,
       offset=tie_offset, at_bound=st.booleans())
def test_prox_l1_at_kinks(L, alpha, gamma, b, u_k, sgn, offset, at_bound):
    # |L*u_k - g| = gamma is where the output leaves 0; z/w - gamma/w = b is where it hits the box
    w = L + alpha
    if at_bound:
        assume(not math.isinf(b))
        z = sgn * (w * b + gamma + offset * TIE_TOL)
    else:
        z = sgn * (gamma + offset * TIE_TOL)
    g = L * u_k - z
    v = prox_l1(g, u_k, L, alpha, gamma, b)
    best, argmins = reference.prox_l1_reference(g, u_k, L, alpha, gamma, b)
    objective = lambda x: g * x + 0.5 * L * (x - u_k) ** 2 + 0.5 * alpha * x * x + gamma * abs(x)  # noqa: E731
    assert_global_minimizers((v,), objective, best, argmins)
    assert v == prox_l1_array(np.array([g]), np.array([u_k]), L, alpha, gamma, b)[0]


def switch_objective(p1, p2, g1, g2, u1, u2, L, alpha, beta):
    return (
        g1 * p1 + g2 * p2
        + 0.5 * L * ((p1 - u1) ** 2 + (p2 - u2) ** 2)
        + 0.5 * alpha * (p1 * p1 + p2 * p2)
        + (beta if p1 * p2 != 0.0 else 0.0)
    )


@edge_settings
@given(L=prox_weight, alpha=weight, beta=st.floats(0.01, 1.0), u1=st.floats(-1.0, 1.0), u2=st.floats(-1.0, 1.0),
       m2=st.floats(-2.0, 2.0), s1=sign, s2=sign, offset=tie_offset, equal_magnitudes=st.booleans())
def test_prox_switch_at_ties(L, alpha, beta, u1, u2, m2, s1, s2, offset, equal_magnitudes):
    # (w/2)*m1^2 = beta ties the full vertex with its first-off restriction;
    # |m1| = |m2| ties the two one-sided restrictions
    w = L + alpha
    m1 = s1 * (math.sqrt(2.0 * beta / w) + offset * TIE_TOL)
    if equal_magnitudes:
        m2 = s2 * (abs(m1) + offset * TIE_TOL)
    g1 = L * u1 - w * m1
    g2 = L * u2 - w * m2
    p = prox_switch(SwitchingPoint(g1, g2), SwitchingPoint(u1, u2), L, alpha, beta)
    best, argmins = reference.prox_switch_reference(g1, g2, u1, u2, L, alpha, beta)
    assert argmins
    assert abs(switch_objective(p.u1, p.u2, g1, g2, u1, u2, L, alpha, beta) - best) <= OBJ_TOL
    assert min(max(abs(p.u1 - a1), abs(p.u2 - a2)) for a1, a2 in argmins) <= ARG_TOL
    o1, o2 = prox_switch_arrays(np.array([g1]), np.array([g2]), np.array([u1]), np.array([u2]), L, alpha, beta)
    assert (p.u1, p.u2) == (o1[0], o2[0])


# ---------------------------------------------------------------------------
# magnitudes from 1e-8 to 1e8


@edge_settings
@given(m=scale, L=prox_weight, alpha=weight, beta=weight, b=st.floats(0.3, 4.0),
       g=st.floats(-4.0, 4.0), u_k=st.floats(-2.0, 2.0))
def test_l0_maps_across_magnitudes(m, L, alpha, beta, b, g, u_k):
    g, u_k, b, beta = m * g, m * u_k, m * b, m * m * beta
    w = L + alpha
    step = reference.GRID_STEP * m

    sol = prox_l0(g, u_k, ProxParams(L=L, alpha=alpha, beta=beta, bound=b))
    best, _ = reference.prox_l0_reference(g, u_k, L, alpha, beta, b, step=step)
    assert_global_minimizers(sol.values, lambda v: l0_objective(v, g, u_k, L, alpha, beta), best, w=w, m=m)
    assert sol.canonical == prox_l0_array(np.array([g]), np.array([u_k]), L, alpha, beta, b)[0]

    q, s = -g, beta
    sol = box_hard_threshold(q, s, b)
    best, _ = reference.box_threshold_reference(q, s, b, step=step)
    assert_global_minimizers(sol.values, lambda v: -q * v + 0.5 * v * v + (s if v else 0.0), best, m=m)
    assert sol.canonical == box_array_value(q, s, b)

    # hard thresholding has no box; any box holding q and the threshold leaves its minimizers alone
    t = math.sqrt(2.0 * s)
    sol = hard_threshold(q, t)
    best, _ = reference.box_threshold_reference(q, 0.5 * t * t, 2.0 * (abs(q) + t), step=step)
    assert_global_minimizers(sol.values, lambda v: -q * v + 0.5 * v * v + (0.5 * t * t if v else 0.0),
                             best, m=m)
    assert sol.canonical == box_array_value(q, 0.5 * t * t, math.inf)


@edge_settings
@given(m=scale, L=prox_weight, alpha=weight, gamma=weight, b=st.floats(0.3, 4.0),
       g=st.floats(-4.0, 4.0), u_k=st.floats(-2.0, 2.0))
def test_prox_l1_across_magnitudes(m, L, alpha, gamma, b, g, u_k):
    g, u_k, b, gamma = m * g, m * u_k, m * b, m * gamma
    v = prox_l1(g, u_k, L, alpha, gamma, b)
    best, _ = reference.prox_l1_reference(g, u_k, L, alpha, gamma, b, step=reference.GRID_STEP * m)
    objective = lambda x: g * x + 0.5 * L * (x - u_k) ** 2 + 0.5 * alpha * x * x + gamma * abs(x)  # noqa: E731
    assert_global_minimizers((v,), objective, best, m=m)
    assert v == prox_l1_array(np.array([g]), np.array([u_k]), L, alpha, gamma, b)[0]


@edge_settings
@given(k=st.integers(-2, 8), L=prox_weight, alpha=weight, beta=st.floats(0.01, 1.0),
       g1=st.floats(-2.0, 2.0), g2=st.floats(-2.0, 2.0), u1=st.floats(-1.0, 1.0), u2=st.floats(-1.0, 1.0))
def test_prox_switch_across_magnitudes(k, L, alpha, beta, g1, g2, u1, u2):
    # the switching reference searches at least |vertex| + 0.5 around 0, so its
    # grid at step 1e-3*m stays small only for m >= 1e-2
    m = 10.0**k
    g1, g2, u1, u2, beta = m * g1, m * g2, m * u1, m * u2, m * m * beta
    p = prox_switch(SwitchingPoint(g1, g2), SwitchingPoint(u1, u2), L, alpha, beta)
    best, _ = reference.prox_switch_reference(g1, g2, u1, u2, L, alpha, beta, radius=3.0 * m, step=1e-3 * m)
    # the map settles objective ties within an absolute TIE_TOL
    assert abs(switch_objective(p.u1, p.u2, g1, g2, u1, u2, L, alpha, beta) - best) <= OBJ_TOL * m * m + TIE_TOL
    o1, o2 = prox_switch_arrays(np.array([g1]), np.array([g2]), np.array([u1]), np.array([u2]), L, alpha, beta)
    assert (p.u1, p.u2) == (o1[0], o2[0])
