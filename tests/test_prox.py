"""Closed-form scalar prox operators against the brute-force references."""

import math

import numpy as np
import pytest

from l0control import prox, reference
from l0control.prox import (
    ProxParams,
    ScalarSolutionSet,
    SwitchingPoint,
    box_hard_threshold,
    convex_envelope_value,
    convexified_not_fixed_point_check,
    fp_membership,
    hard_threshold,
    prox_l0,
    prox_l0_array,
    prox_l0_set_arrays,
    prox_l1,
    prox_l1_array,
    prox_switch,
    prox_switch_arrays,
    separation_threshold,
)


def l0_objective(u, g, u_k, L, alpha, beta):
    return g * u + 0.5 * L * (u - u_k) ** 2 + 0.5 * alpha * u * u + (beta if u != 0.0 else 0.0)


# ---------------------------------------------------------------------------
# solution-set container


def test_solution_set_canonical_rules():
    assert ScalarSolutionSet((2.0,)).canonical == 2.0
    tie = ScalarSolutionSet((0.0, 1.0))
    assert tie.canonical == 0.0
    assert tie.distance(0.5) == 0.5
    assert tie.contains(1.0)
    with pytest.raises(ValueError):
        ScalarSolutionSet((1.0, 2.0))
    with pytest.raises(ValueError):
        ScalarSolutionSet((1.0, 0.0, 2.0))


# ---------------------------------------------------------------------------
# hard threshold


def test_hard_threshold_keeps_large_values():
    assert hard_threshold(2.0, 1.0).values == (2.0,)


def test_hard_threshold_zero_input():
    assert hard_threshold(0.0, 1.0).values == (0.0,)


def test_hard_threshold_tie_is_two_valued_with_zero_canonical():
    sol = hard_threshold(1.0, 1.0)
    assert sorted(sol.values) == [0.0, 1.0]
    assert sol.canonical == 0.0


def test_hard_threshold_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hard_threshold(math.nan, 1.0)
    with pytest.raises(ValueError):
        hard_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        hard_threshold(1.0, -2.0)


# ---------------------------------------------------------------------------
# box-constrained hard threshold


def test_box_hard_threshold_interior_value():
    # brute force confirms the single minimizer 1.5 (sqrt(2s) <= |q| <= b)
    assert box_hard_threshold(1.5, 1.0, 2.0).values == (1.5,)


def test_box_hard_threshold_clips_at_bound():
    # q = 3 >= max(b, b/2 + s/b) = 2
    assert box_hard_threshold(3.0, 1.0, 2.0).values == (2.0,)


def test_box_hard_threshold_zero_input():
    assert box_hard_threshold(0.0, 1.0, 2.0).values == (0.0,)


def test_box_hard_threshold_unbounded_matches_hard_threshold():
    for q in (-2.3, -1.0, 0.0, 0.7, 1.4142135623730951, 5.0):
        a = box_hard_threshold(q, 1.0, math.inf)
        b = hard_threshold(q, math.sqrt(2.0))
        assert sorted(a.values) == sorted(b.values)


def test_box_hard_threshold_zero_penalty_is_projection():
    assert box_hard_threshold(3.0, 0.0, 2.0).values == (2.0,)
    assert box_hard_threshold(-0.7, 0.0, 2.0).values == (-0.7,)


def test_box_hard_threshold_rejects_bad_arguments():
    with pytest.raises(ValueError):
        box_hard_threshold(1.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        box_hard_threshold(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        box_hard_threshold(math.inf, 1.0, 2.0)


def test_box_hard_threshold_ties_at_both_thresholds():
    # |q| = sqrt(2s) with sqrt(2s) < b
    sol = box_hard_threshold(1.0, 0.5, 2.0)
    assert sorted(sol.values) == [0.0, 1.0] and sol.canonical == 0.0
    # |q| = b/2 + s/b with sqrt(2s) > b: {0, b}
    s, b = 2.0, 1.0
    sol = box_hard_threshold(b / 2 + s / b, s, b)
    assert sorted(sol.values) == [0.0, 1.0] and sol.canonical == 0.0
    # negative side
    sol = box_hard_threshold(-(b / 2 + s / b), s, b)
    assert sorted(sol.values) == [-1.0, 0.0]


def test_box_hard_threshold_matches_reference_randomized(rng):
    for _ in range(400):
        q = rng.uniform(-3, 3)
        s = rng.uniform(0, 2)
        b = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
        sol = box_hard_threshold(q, s, b)
        best, argmins = reference.box_threshold_reference(q, s, b)
        for v in sol.values:
            val = -q * v + 0.5 * v * v + (s if v != 0.0 else 0.0)
            assert abs(val - best) <= 1e-10
            assert min(abs(v - a) for a in argmins) <= 1e-8


def test_box_hard_threshold_monotone(rng):
    for _ in range(300):
        s = rng.uniform(0, 2)
        b = float(rng.choice([0.7, 1.5, math.inf]))
        q1, q2 = sorted(rng.uniform(-4, 4, size=2))
        for v1 in box_hard_threshold(q1, s, b).values:
            for v2 in box_hard_threshold(q2, s, b).values:
                assert (v1 - v2) * (q1 - q2) >= -1e-14


def test_box_hard_threshold_closed_graph_at_ties():
    # approach the tie points from both sides; every limit of selections
    # must belong to the solution set at the limit point
    for s, b in [(0.5, 2.0), (2.0, 1.0), (0.5, 1.0)]:
        root = math.sqrt(2 * s)
        tie = root if root <= b else b / 2 + s / b
        limit_set = box_hard_threshold(tie, s, b)
        for sign in (+1.0, -1.0):
            for k in range(1, 13):
                q = tie + sign * 10.0**-k
                for v in box_hard_threshold(q, s, b).values:
                    # each selection is close to some element of the limit set
                    if abs(q - tie) <= 1e-6:
                        assert limit_set.distance(v) <= 10.0**-k + 1e-9
    # s-perturbation around the tie: u in H_{s_n,b}(q) with s_n -> s
    q, b = 1.0, 2.0
    for k in range(4, 13):
        s_n = 0.5 + 10.0**-k
        for v in box_hard_threshold(q, s_n, b).values:
            assert box_hard_threshold(q, 0.5, b).distance(v) <= 10.0**-k + 1e-9


# ---------------------------------------------------------------------------
# prox of the support penalty


def test_prox_l0_spec_values():
    p = ProxParams(L=1.0, alpha=1.0, beta=1.0, bound=2.0)
    assert prox_l0(-3.0, 0.0, p).values == (1.5,)
    assert prox_l0(0.0, 0.0, p).values == (0.0,)
    tie = prox_l0(-2.0, 0.0, p)
    assert sorted(tie.values) == [0.0, 1.0] and tie.canonical == 0.0


def test_prox_l0_requires_positive_weight():
    p = ProxParams(L=0.0, alpha=0.0, beta=1.0, bound=2.0)
    with pytest.raises(ValueError):
        prox_l0(1.0, 0.0, p)


def test_prox_params_validation():
    with pytest.raises(ValueError):
        ProxParams(L=-1.0, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        ProxParams(L=0.0, alpha=-0.1, beta=1.0)
    with pytest.raises(ValueError):
        ProxParams(L=0.0, alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        ProxParams(L=0.0, alpha=1.0, beta=1.0, bound=-2.0)


def test_separation_threshold_values():
    assert separation_threshold(ProxParams(1.0, 1.0, 1.0, 2.0)) == 1.0
    assert separation_threshold(ProxParams(1.0, 1.0, 1.0, 0.5)) == 0.5
    assert separation_threshold(ProxParams(0.0, 0.01, 0.01, 4.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_prox_l0_matches_reference_randomized(rng):
    for _ in range(400):
        g = rng.uniform(-3, 3)
        u_k = rng.uniform(-2, 2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 2)
        beta = rng.uniform(0.01, 2)
        b = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
        p = ProxParams(L=L, alpha=alpha, beta=beta, bound=b)
        sol = prox_l0(g, u_k, p)
        best, argmins = reference.prox_l0_reference(g, u_k, L, alpha, beta, b)
        sigma = separation_threshold(p)
        for v in sol.values:
            assert abs(l0_objective(v, g, u_k, L, alpha, beta) - best) <= 1e-10
            assert min(abs(v - a) for a in argmins) <= 1e-8
            assert v == 0.0 or abs(v) >= sigma - 1e-12


def test_prox_l0_variational_inequality(rng):
    # every nonzero output v satisfies (g + L(v-u_k) + alpha*v)(w - v) >= 0
    for _ in range(400):
        g = rng.uniform(-4, 4)
        u_k = rng.uniform(-2, 2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 2)
        beta = rng.uniform(0.01, 1)
        b = float(rng.choice([0.8, 2.0]))
        sol = prox_l0(g, u_k, ProxParams(L=L, alpha=alpha, beta=beta, bound=b))
        for v in sol.values:
            if v == 0.0:
                continue
            slope = g + L * (v - u_k) + alpha * v
            for w in (-b, 0.0, b, min(max(v + 1e-3, -b), b), min(max(v - 1e-3, -b), b)):
                assert slope * (w - v) >= -1e-9


# ---------------------------------------------------------------------------
# soft-thresholding prox


def test_prox_l1_spec_values():
    assert prox_l1(0.0, 0.0, 1.0, 1.0, 1.0, 2.0) == 0.0
    assert prox_l1(-3.0, 0.0, 1.0, 1.0, 1.0, 2.0) == 1.0
    assert prox_l1(-10.0, 0.0, 1.0, 1.0, 1.0, 2.0) == 2.0


def test_prox_l1_requires_positive_weight():
    with pytest.raises(ValueError):
        prox_l1(1.0, 0.0, 0.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        prox_l1(1.0, 0.0, 1.0, 1.0, -1.0, 2.0)


def test_prox_l1_and_prox_switch_check_L_and_alpha_as_prox_params_does():
    g, u = SwitchingPoint(1.0, -0.5), SwitchingPoint(0.2, 0.3)
    for name, L, alpha in [("L", math.nan, 1.0), ("L", -0.5, 1.0), ("L", math.inf, 1.0),
                           ("alpha", 1.0, math.nan), ("alpha", 1.0, -0.5), ("alpha", 1.0, math.inf)]:
        with pytest.raises(ValueError, match=rf"^{name} must be a finite nonnegative real"):
            ProxParams(L=L, alpha=alpha, beta=0.5)
        with pytest.raises(ValueError, match=rf"^{name} must be a finite nonnegative real"):
            prox_l1(1.0, 1.0, L, alpha, 0.5)
        with pytest.raises(ValueError, match=rf"^{name} must be a finite nonnegative real"):
            prox_switch(g, u, L, alpha, 0.5)
    with pytest.raises(ValueError, match=r"L \+ alpha must be positive"):
        prox_l1(1.0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match=r"L \+ alpha must be positive"):
        prox_switch(g, u, 0.0, 0.0, 0.5)


def test_prox_l1_matches_reference_randomized(rng):
    for _ in range(400):
        g = rng.uniform(-3, 3)
        u_k = rng.uniform(-2, 2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 2)
        gamma = rng.uniform(0.01, 2)
        b = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
        v = prox_l1(g, u_k, L, alpha, gamma, b)
        best, argmins = reference.prox_l1_reference(g, u_k, L, alpha, gamma, b)
        val = g * v + 0.5 * L * (v - u_k) ** 2 + 0.5 * alpha * v * v + gamma * abs(v)
        assert abs(val - best) <= 1e-10
        assert min(abs(v - a) for a in argmins) <= 1e-8


# ---------------------------------------------------------------------------
# paired switching prox


def test_prox_switch_spec_values():
    assert prox_switch(SwitchingPoint(0, 0), SwitchingPoint(0, 0), 1.0, 1.0, 1.0) == SwitchingPoint(0.0, 0.0)
    big_beta = prox_switch(SwitchingPoint(-1, -1), SwitchingPoint(0, 0), 1.0, 1.0, 10.0)
    assert big_beta.u1 * big_beta.u2 == 0.0
    assert big_beta == SwitchingPoint(0.0, 0.5)  # tie prefers the first coordinate off
    small_beta = prox_switch(SwitchingPoint(-4, -4), SwitchingPoint(0, 0), 1.0, 1.0, 0.01)
    assert small_beta == SwitchingPoint(2.0, 2.0)


def test_prox_switch_requires_positive_weight():
    with pytest.raises(ValueError):
        prox_switch(SwitchingPoint(1, 1), SwitchingPoint(0, 0), 0.0, 0.0, 1.0)


def test_prox_switch_matches_reference_randomized(rng):
    for _ in range(150):
        g1, g2 = rng.uniform(-2, 2, size=2)
        u1, u2 = rng.uniform(-1, 1, size=2)
        L = rng.uniform(0, 2)
        alpha = rng.uniform(0.01, 1)
        beta = rng.uniform(0.01, 1)
        p = prox_switch(SwitchingPoint(g1, g2), SwitchingPoint(u1, u2), L, alpha, beta)
        best, argmins = reference.prox_switch_reference(g1, g2, u1, u2, L, alpha, beta)
        val = (
            g1 * p.u1 + g2 * p.u2
            + 0.5 * L * ((p.u1 - u1) ** 2 + (p.u2 - u2) ** 2)
            + 0.5 * alpha * (p.u1**2 + p.u2**2)
            + (beta if p.u1 * p.u2 != 0.0 else 0.0)
        )
        assert abs(val - best) <= 1e-10
        assert min(max(abs(p.u1 - a1), abs(p.u2 - a2)) for a1, a2 in argmins) <= 1e-8


# ---------------------------------------------------------------------------
# fixed-point membership


def test_fp_membership_spec_values():
    p = ProxParams(L=1.0, alpha=1.0, beta=1.0, bound=2.0)
    assert fp_membership(0.0, 0.0, p)
    assert fp_membership(1.5, -1.5, p)
    assert not fp_membership(0.1, 0.0, p)


def test_fp_membership_agrees_with_prox_self_map(rng):
    for _ in range(500):
        L = rng.uniform(0, 2)
        alpha = float(rng.choice([0.0, rng.uniform(0.01, 2)]))
        beta = rng.uniform(0.01, 2)
        b = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
        if L + alpha == 0.0:
            L = 0.5
        p = ProxParams(L=L, alpha=alpha, beta=beta, bound=b)
        g = rng.uniform(-3, 3)
        u = float(rng.choice([0.0, rng.uniform(-2.5, 2.5), -b if b < math.inf else 0.0]))
        member = fp_membership(u, g, p)
        self_map = prox_l0(g, u, p).contains(u, tol=1e-12)
        assert member == self_map, (u, g, L, alpha, beta, b)


def test_fp_membership_monotone_in_weight(rng):
    hits = 0
    for _ in range(400):
        alpha = rng.uniform(0.01, 2)
        beta = rng.uniform(0.01, 2)
        b = float(rng.choice([0.8, 1.5, math.inf]))
        L = rng.uniform(0.0, 2)
        p = ProxParams(L=L, alpha=alpha, beta=beta, bound=b)
        root = math.sqrt(2 * beta / (L + alpha))
        cases = [(0.0, rng.uniform(-1, 1) * 0.99 * (L + alpha) * min(root, b / 2 + beta / ((L + alpha) * b) if b < math.inf else root))]
        if root <= b:
            m = rng.uniform(root, min(b, 3 * root))
            sign = rng.choice([-1.0, 1.0])
            cases.append((sign * m, -alpha * sign * m))
        if b < math.inf:
            edge = alpha * b if root <= b else (L + alpha) * (b / 2 + beta / ((L + alpha) * b)) - L * b
            cases.append((-b, edge + rng.uniform(0, 1)))
        for u, g in cases:
            if not fp_membership(u, g, p):
                continue
            hits += 1
            for L2 in (2 * L + 1e-3, 10 * L + 1e-2):
                assert fp_membership(u, g, ProxParams(L=L2, alpha=alpha, beta=beta, bound=b)), (u, g, L, L2)
    assert hits > 300


def test_fp_membership_exceptional_point_sqrt2s_equals_bound():
    # sqrt(2s) = b: both branch families coincide there
    L, alpha, b = 1.0, 1.0, 1.0
    beta = 0.5 * b * b * (L + alpha)  # makes sqrt(2*beta/(L+alpha)) == b
    p = ProxParams(L=L, alpha=alpha, beta=beta, bound=b)
    assert fp_membership(0.0, (L + alpha) * b, p)
    assert not fp_membership(0.0, (L + alpha) * b + 1e-6, p)
    assert fp_membership(b, -alpha * b, p)
    assert fp_membership(-b, alpha * b, p)
    assert not fp_membership(b / 2, -alpha * b / 2, p)


def test_fp_membership_zero_weight_is_pointwise_minimum_principle(rng):
    # membership at L = 0 iff u globally minimizes g*u + (alpha/2)u^2 + beta*|u|_0
    for _ in range(250):
        alpha = rng.uniform(0.05, 2)
        beta = rng.uniform(0.05, 2)
        b = float(rng.choice([0.8, 2.0, math.inf]))
        g = rng.uniform(-3, 3)
        p = ProxParams(L=0.0, alpha=alpha, beta=beta, bound=b)
        best, argmins = reference.prox_l0_reference(g, 0.0, 0.0, alpha, beta, b)
        for u in list(argmins) + [rng.uniform(-2, 2)]:
            val = g * u + 0.5 * alpha * u * u + (beta if u != 0.0 else 0.0)
            is_min = abs(val - best) <= 1e-11 and (math.isinf(b) or abs(u) <= b + 1e-12)
            assert fp_membership(u, g, p) == is_min, (u, g, alpha, beta, b)


# ---------------------------------------------------------------------------
# convex envelope of the penalized quadratic


def test_convex_envelope_spec_values():
    assert convex_envelope_value(2.0, 2.0, 1.0) == 5.0
    assert convex_envelope_value(0.0, 2.0, 1.0) == 0.0
    assert convex_envelope_value(0.5, 2.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_convex_envelope_requires_positive_alpha():
    with pytest.raises(ValueError):
        convex_envelope_value(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        convex_envelope_value(1.0, -1.0, 1.0)


def test_convex_envelope_bounds_and_continuity(rng):
    for _ in range(300):
        alpha = rng.uniform(0.05, 3)
        beta = rng.uniform(0.05, 3)
        cutoff = math.sqrt(2 * beta / alpha)
        u = rng.uniform(-2 * cutoff, 2 * cutoff)
        env = convex_envelope_value(u, alpha, beta)
        original = 0.5 * alpha * u * u + (beta if u != 0.0 else 0.0)
        assert env <= original + 1e-12
        assert env >= 0.5 * alpha * u * u - 1e-12
        if u == 0.0 or abs(u) >= cutoff:
            assert env == pytest.approx(original, abs=1e-12)
        elif abs(u) > 1e-8:
            assert env < original - 1e-12
    alpha, beta = 1.3, 0.7
    cutoff = math.sqrt(2 * beta / alpha)
    inner = math.sqrt(2 * alpha * beta) * cutoff
    outer = beta + 0.5 * alpha * cutoff * cutoff
    assert inner == pytest.approx(outer, abs=1e-12)


# ---------------------------------------------------------------------------
# escape of convexified minimizers


def test_convexified_minimizer_escapes_spec_cases():
    assert convexified_not_fixed_point_check(-2.0, 1.0, 2.0, 10.0, 1.0, u_bar=1.0)
    assert convexified_not_fixed_point_check(1.0, 1.0, 0.5, 10.0, 0.5, u_bar=-0.5)
    assert convexified_not_fixed_point_check(-2.0, 1.0, 2.0, 10.0, 100.0, u_bar=1.0)


def test_convexified_minimizer_escape_default_point_and_weight_sweep(rng):
    for _ in range(200):
        alpha = rng.uniform(0.05, 2)
        beta = rng.uniform(0.05, 2)
        g = math.copysign(math.sqrt(2 * alpha * beta), rng.uniform(-1, 1))
        L = rng.uniform(1e-3, 50)
        assert convexified_not_fixed_point_check(g, alpha, beta, 10.0, L)


def test_convexified_minimizer_escape_rejects_bad_input():
    with pytest.raises(ValueError):
        convexified_not_fixed_point_check(-1.0, 1.0, 2.0, 10.0, 1.0)  # |g| != sqrt(2ab)
    with pytest.raises(ValueError):
        convexified_not_fixed_point_check(-2.0, 1.0, 2.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        convexified_not_fixed_point_check(-2.0, 1.0, 2.0, 10.0, 1.0, u_bar=5.0)
    with pytest.raises(ValueError):
        convexified_not_fixed_point_check(-2.0, 1.0, 2.0, 10.0, 1.0, u_bar=-1.0)


# ---------------------------------------------------------------------------
# vectorized variants agree with the scalar API bit for bit

# offsets from a threshold: on it, and 1e-13 either side (inside the TIE_TOL band)
NEAR = (0.0, -1e-13, 1e-13)
SIGNED_ZEROS = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
# both argument types the scalar API meets: builtin floats, and numpy scalars from indexing
CASTS = (float, np.float64)


def bits(x):
    """The float64 bit patterns of x, so that 0.0 and -0.0 differ."""
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_builtin_floats(values):
    assert all(type(v) is float for v in values)


def zero_threshold(s, b):
    root = math.sqrt(2.0 * s)
    return root if root <= b else 0.5 * b + s / b


def l0_edge_rows(w, s, b):
    """(g, u) rows with u = 0, so q = -g/w: |q| on and around the zero threshold, q = +-b."""
    t = zero_threshold(s, b)
    magnitudes = [t + d for d in NEAR] + ([] if math.isinf(b) else [b])
    return SIGNED_ZEROS + [(-sgn * w * m, 0.0) for m in magnitudes for sgn in (1.0, -1.0)]


def with_rows(g, u, rows):
    extra_g, extra_u = zip(*rows)
    return np.concatenate([g, extra_g]), np.concatenate([u, extra_u])


def test_float_primitives_match_numpy_on_special_values():
    # the scalar API reaches NaN only through overflow, so the primitives are checked directly
    specials = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan, -math.nan]
    for x in specials:
        assert bits(prox._sign(x)) == bits(np.sign(np.float64(x)))
        for lo, hi in [(-1.0, 1.0), (-3.0, 3.0)]:
            assert bits(prox._clip(x, lo, hi)) == bits(np.clip(np.float64(x), lo, hi))
        for y in specials:
            assert bits(prox._minimum(x, y)) == bits(np.minimum(np.float64(x), np.float64(y)))
            assert bits(prox._maximum(x, y)) == bits(np.maximum(np.float64(x), np.float64(y)))
            for cond in (True, False):
                assert bits(prox._where(cond, x, y)) == bits(np.where(cond, x, y))


def test_array_prox_l0_matches_scalar(rng):
    g0 = rng.uniform(-4, 4, size=600)
    u0 = rng.uniform(-2, 2, size=600)
    for b in (0.7, 2.0, math.inf):
        # w = 1 in the first two keeps the edge rows exact; L = 0 in the first
        for L, alpha, beta in [(0.0, 1.0, 0.3), (0.5, 0.5, 0.5), (1.2, 0.01, 0.02), (0.3, 1.0, 2.0)]:
            w = L + alpha
            g, u = with_rows(g0, u0, l0_edge_rows(w, beta / w, b))
            out = prox_l0_array(g, u, L, alpha, beta, b)
            zero_ok, v, v_ok = prox_l0_set_arrays(g, u, L, alpha, beta, b)
            for cast in CASTS:
                p = ProxParams(L=cast(L), alpha=cast(alpha), beta=cast(beta), bound=cast(b))
                sols = [prox_l0(cast(g[i]), cast(u[i]), p) for i in range(g.size)]
                assert np.array_equal(bits([sol.canonical for sol in sols]), bits(out))
                for i, sol in enumerate(sols):
                    assert_builtin_floats(sol.values + (sol.canonical,))
                    want = ((0.0,) if zero_ok[i] else ()) + ((v[i],) if v_ok[i] else ())
                    assert np.array_equal(bits(sol.values), bits(want))


def test_box_hard_threshold_matches_array_sets(rng):
    # with L = 0 and alpha = 1 the array map's argument is (0*u - g)/1: q = -g, and -0.0 from u = -0.0
    g0 = rng.uniform(-3, 3, size=400)
    for b in (0.7, 2.0, math.inf):
        for s in (0.0, 0.3, 2.0):
            g, u = with_rows(g0, np.zeros(g0.size), l0_edge_rows(1.0, s, b))
            zero_ok, v, v_ok = prox_l0_set_arrays(g, u, 0.0, 1.0, s, b)
            q = (0.0 * u - g) / 1.0
            for cast in CASTS:
                for i in range(g.size):
                    sol = box_hard_threshold(cast(q[i]), cast(s), cast(b))
                    assert_builtin_floats(sol.values)
                    if s == 0.0 and math.isinf(b):
                        want = (q[i],)  # the projection, without the tie band
                    else:
                        want = ((0.0,) if zero_ok[i] else ()) + ((v[i],) if v_ok[i] else ())
                    assert np.array_equal(bits(sol.values), bits(want))


def test_array_prox_l0_tie_selects_zero():
    # argument exactly at the threshold: canonical suppression to zero
    L, alpha, beta, b = 1.0, 1.0, 2.0, math.inf
    root = math.sqrt(2 * beta / (L + alpha))
    g = np.array([-(L + alpha) * root, (L + alpha) * root, 0.0])
    out = prox_l0_array(g, np.zeros(3), L, alpha, beta, b)
    assert np.all(out == 0.0)


def test_array_prox_l1_matches_scalar(rng):
    g0 = rng.uniform(-4, 4, size=400)
    u0 = rng.uniform(-2, 2, size=400)
    for b in (0.7, math.inf):
        # gamma = 0 is plain projection; L = 0 drops u; w = 1 in all but the last
        for L, alpha, gamma in [(0.8, 0.2, 0.5), (0.0, 1.0, 0.5), (0.5, 0.5, 0.0), (1.2, 0.3, 0.7)]:
            w = L + alpha
            # u = 0 makes z = L*u - g = -g: |z| on and around gamma, and where the output reaches b
            kinks = [gamma + d for d in NEAR] + ([] if math.isinf(b) else [w * b + gamma])
            rows = SIGNED_ZEROS + [(-sgn * z, 0.0) for z in kinks for sgn in (1.0, -1.0)]
            g, u = with_rows(g0, u0, rows)
            out = prox_l1_array(g, u, L, alpha, gamma, b)
            for cast in CASTS:
                vals = [prox_l1(cast(g[i]), cast(u[i]), cast(L), cast(alpha), cast(gamma), cast(b))
                        for i in range(g.size)]
                assert_builtin_floats(vals)
                assert np.array_equal(bits(vals), bits(out))


def test_array_prox_switch_matches_scalar(rng):
    n = 300
    g1, g2 = rng.uniform(-2, 2, size=n), rng.uniform(-2, 2, size=n)
    u1, u2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
    for L, alpha, beta in [(0.7, 0.1, 0.25), (0.0, 1.0, 0.5), (0.5, 0.5, 0.02)]:
        w = L + alpha
        # with u = 0, m = -g/w: (w/2)*m1^2 = beta ties the vertex with u1 = 0, and |m1| = |m2|
        # ties the two one-sided restrictions; signed zeros in g and u
        edge = math.sqrt(2.0 * beta / w)
        rows = [(a, b, c, d) for a, b in SIGNED_ZEROS for c, d in SIGNED_ZEROS]
        rows += [(-s1 * w * (edge + d1), -s2 * w * (edge + d2), 0.0, 0.0)
                 for d1 in NEAR for d2 in NEAR for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        rows += [(-w * (edge + d), 0.5, 0.0, 0.0) for d in NEAR]
        cols = [np.concatenate([x, extra]) for x, extra in zip((g1, g2, u1, u2), zip(*rows))]
        o1, o2 = prox_switch_arrays(*cols, L, alpha, beta)
        for cast in CASTS:
            pts = [prox_switch(SwitchingPoint(cast(cols[0][i]), cast(cols[1][i])),
                               SwitchingPoint(cast(cols[2][i]), cast(cols[3][i])),
                               cast(L), cast(alpha), cast(beta))
                   for i in range(o1.size)]
            assert_builtin_floats([x for p in pts for x in (p.u1, p.u2)])
            assert np.array_equal(bits([p.u1 for p in pts]), bits(o1))
            assert np.array_equal(bits([p.u2 for p in pts]), bits(o2))


def test_array_maps_give_same_result_for_0d_and_1_element_input():
    g, u, g2, u2 = -1.3, 0.4, 0.9, -0.2
    for b in (0.7, math.inf):
        calls = [
            lambda x: prox_l0_array(x(g), x(u), 0.8, 0.2, 0.5, b),
            lambda x: prox_l0_set_arrays(x(g), x(u), 0.8, 0.2, 0.5, b),
            lambda x: prox_l1_array(x(g), x(u), 0.8, 0.2, 0.5, b),
            lambda x: prox_switch_arrays(x(g), x(g2), x(u), x(u2), 0.8, 0.2, 0.5),
        ]
        for call in calls:
            zero_d = call(np.asarray)
            one = call(lambda v: np.array([v]))
            if not isinstance(zero_d, tuple):
                zero_d, one = (zero_d,), (one,)
            for a, c in zip(zero_d, one):
                assert np.ndim(a) == 0
                assert a == c[0]
