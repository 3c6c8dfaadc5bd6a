"""Thresholding iteration with fixed or adaptive prox weights.

Each iteration linearizes the tracking term at the current control and solves
the resulting pointwise subproblem exactly through the closed-form prox maps.
With an adaptive weight, a trial weight L is accepted when the decrease
condition

    eta * ||u_next - u_k||^2  <=  F(u_k) - F(u_next),        F = f + g,

holds.  Rejection multiplies L by 1/theta (a smaller step), widening
multiplies an accepted initial weight by theta while the condition keeps
holding.  Every trial costs one PDE solve (the f evaluation at the trial
point) on top of the two solves per iteration for the gradient.  A trial,
the fixed weight's one included, is evaluated in one place, f, g and F
together, and the step hands the accepted point's f and g to the loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem
from . import problem as problemmod
from . import prox as proxmod

log = logging.getLogger(__name__)

FIXED = "fixed"
BT = "bt"
BT_W = "btw"
BT_0 = "bt0"

STRATEGY_KINDS = (FIXED, BT, BT_W, BT_0)

TOLERANCE = "tolerance"
MAX_ITERATIONS = "max_iterations"

# a descent failure surviving this many weight increases signals an
# inconsistent gradient, since the condition holds for every L > L_f
MAX_INCREASES = 200


class StepSearchError(RuntimeError):
    """The descent condition failed for every tested prox weight."""


class NonFiniteError(StepSearchError):
    """The objective or its gradient came out NaN or infinite."""


@dataclass(frozen=True)
class StepStrategy:
    """Step-size selection rule: fixed weight or one of the adaptive schemes."""

    kind: str = BT_0
    L_fixed: float = 1.0
    L_hat0: float = 0.01
    theta: float = 0.5
    eta: float = 1e-4
    I_max: int = 40

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not (0 < self.eta < math.inf):
            raise ValueError(f"eta must be a finite positive real, got {self.eta}")
        if self.I_max < 1:
            raise ValueError(f"I_max must be a positive integer, got {self.I_max}")
        if not (0 < self.L_hat0 < math.inf):
            raise ValueError(f"L_hat0 must be a finite positive real, got {self.L_hat0}")
        if not (0 <= self.L_fixed < math.inf):
            raise ValueError(f"L_fixed must be a finite nonnegative real, got {self.L_fixed}")


@dataclass(frozen=True)
class SolverOptions:
    strategy: StepStrategy = field(default_factory=StepStrategy)
    max_iterations: int = 10_000
    stop_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not (0 < self.stop_tol < math.inf):
            raise ValueError(f"stop_tol must be a finite positive real, got {self.stop_tol}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    L: float
    trials: int
    f: float
    g: float
    F: float
    support: float
    step_norm: float
    chi_dist: float
    pde_solves: int


@dataclass(eq=False)
class SolveReport:
    records: list
    initial_F: float
    final_control: object
    final_f: float
    final_g: float
    final_F: float
    termination: str
    pde_solves: int
    fp_residual: float = None
    fp_residual_L: float = None
    monotonicity_violations: int = 0

    @property
    def iterations(self):
        return len(self.records)

    def column(self, name):
        return [getattr(r, name) for r in self.records]


def descent_ok(F_k, F_next, u_k, u_next, eta):
    """Decrease test  eta*||u_next - u_k||^2 <= F_k - F_next."""
    return eta * u_next.diff_norm(u_k) ** 2 <= F_k - F_next


def _prox_sets(spec, u, g, L):
    """Prox set at weight L of every cell of the control values u (gradient values g), as (zero_ok, v, v_ok).

    0 belongs to a cell's set where zero_ok, the candidate v where v_ok.  The
    support penalty's prox is set-valued at the threshold; the l1 and
    switching maps are single-valued, so their set is {v} everywhere.
    """
    if spec.penalty == problemmod.L0:
        return proxmod.prox_l0_set_arrays(g, u, L, spec.alpha, spec.beta, spec.bound)
    if spec.penalty == problemmod.L1:
        v = proxmod.prox_l1_array(g, u, L, spec.alpha, spec.beta, spec.bound)
    else:
        v = np.stack(proxmod.prox_switch_arrays(g[0], g[1], u[0], u[1], L, spec.alpha, spec.beta))
    return False, v, True


def iht_step(problem, u_k, grad, L):
    """Exact global solution of the pointwise subproblem at prox weight L.

    Takes the canonical (tie -> 0) element of the prox set per cell: hard thresholding for the support
    penalty, soft thresholding in l1 mode, the 2-vector prox per strip in switching mode.  The map is
    elementwise, so it runs over fem.BLOCK_CELLS cells (strips) at a time, with the bits of one pass.
    """
    if L < 0:
        raise ValueError(f"prox weight must be nonnegative, got {L}")
    u, g, out = u_k.values, grad.values, np.empty_like(u_k.values)
    for a in range(0, u.shape[-1], fem.BLOCK_CELLS):
        zero_ok, v, _ = _prox_sets(problem.spec, u[..., a : a + fem.BLOCK_CELLS], g[..., a : a + fem.BLOCK_CELLS], L)
        out[..., a : a + fem.BLOCK_CELLS] = np.where(zero_ok, 0.0, v)
    return replace(u_k, values=out)


def select_step(problem, strategy, u_k, grad, F_k, flat_tol=0.0):
    """Pick the prox weight for one iteration.

    Returns (L, u_next, f_next, g_next, trials): the accepted weight, point,
    tracking value and penalty.  Every trial, FIXED's one included, is
    evaluated once, f and g together, and a trial whose objective is NaN
    raises NonFiniteError at once.  FIXED applies its weight without a test.
    BT starts at L_hat0 and multiplies by 1/theta until the decrease
    condition holds.  BT-W additionally widens an accepted initial weight by
    theta up to I_max times, keeping the last accepted value.  BT-0 tries
    L = 0 before falling back to BT-W.

    In exact arithmetic the decrease condition holds for every weight above
    the gradient Lipschitz constant, so a search that rejects the whole
    ladder can only mean one of two things: the objective is flat to within
    rounding along it (the iterate is numerically stationary), or gradient
    and objective are inconsistent.  The first case is detected through
    flat_tol (a trial whose objective matches F_k within flat_tol) and
    reported as a zero step that returns u_k itself, at the last weight
    tried; the second raises StepSearchError.
    """
    trials = 0
    flattest = math.inf

    def attempt(L):
        """(L, u_t, f_t, g_t) of the trial at weight L, and whether it passes the decrease test."""
        nonlocal trials, flattest
        u_t = iht_step(problem, u_k, grad, L)
        f_t = problem.eval_f(u_t)
        trials += 1
        g_t = problem.eval_g(u_t)
        F_t = f_t + g_t
        if math.isnan(F_t):
            # an infinite trial is an ordinary rejection; NaN means the objective is broken
            raise NonFiniteError(f"objective F=nan at trial weight L={L:g}")
        flattest = min(flattest, abs(F_t - F_k))
        return (L, u_t, f_t, g_t), descent_ok(F_k, F_t, u_k, u_t, strategy.eta)

    if strategy.kind == FIXED:
        return attempt(strategy.L_fixed)[0] + (trials,)

    # the pointwise prox divides by L + alpha, so the zero-weight trial
    # needs alpha > 0 no matter the bound
    if strategy.kind == BT_0 and problem.spec.alpha > 0:
        step, ok = attempt(0.0)
        if ok:
            return step + (trials,)

    L = strategy.L_hat0
    step, ok = attempt(L)
    if ok:
        # widening (BT-W, BT-0): decrease L while the condition keeps holding
        for _ in range(0 if strategy.kind == BT else strategy.I_max):
            wider, ok = attempt(step[0] * strategy.theta)
            if not ok:
                break
            step = wider
        return step + (trials,)

    for _ in range(MAX_INCREASES):
        L = L / strategy.theta
        step, ok = attempt(L)
        if ok:
            return step + (trials,)
    if flattest <= flat_tol:
        # numerically stationary: no tested weight moves the objective
        # beyond the stopping tolerance, so stay put and let the stop rule fire
        g_k = problem.eval_g(u_k)
        return L, u_k, F_k - g_k, g_k, trials
    raise StepSearchError(
        f"descent condition failed for every L up to {L:g}; gradient and objective disagree"
    )


def fp_residual(problem, u, L, grad=None):
    """Stationarity residual of u under the thresholding map at weight L.

    Per cell the residual is (L+alpha) times the distance from the cell value
    to the prox solution set, i.e. the size of the violated optimality
    relation measured in the gradient scale (so it does not vanish trivially
    as L grows); the maximum over cells is returned.  Zero exactly when every
    cell satisfies the fixed-point inclusion.
    """
    s = problem.spec
    if grad is None:
        grad = problem.value_and_grad(u)[1]
    zero_ok, v, v_ok = _prox_sets(s, u.values, grad.values, L)
    dist = np.minimum(np.where(zero_ok, np.abs(u.values), np.inf),
                      np.where(v_ok, np.abs(u.values - v), np.inf))
    return (L + s.alpha) * float(dist.max(initial=0.0))


def run(problem, options: SolverOptions = None, compute_fp_residual=True):
    """Iterate until |F_{k+1} - F_k| <= stop_tol or the iteration budget is hit.

    Every iteration is logged (accepted weight, trials, f, g, F, support
    measure, step norm, support-mask distance, cumulative PDE solves); f and
    g are the accepted trial's, so the penalty is evaluated afresh only at the
    start point.  The solve count is the paper's, tallied here: 2 per
    gradient and 1 per trial, so diagnostics run after the loop are not in
    it.  A flat exit's top weight belongs to a rejected ladder, so its step
    is logged at the weight of the last step that moved the control (L_hat0
    if none did), and the final stationarity residual is taken at the last
    logged weight.  A NaN or infinite objective or gradient raises
    NonFiniteError.
    """
    options = options or SolverOptions()
    strategy = options.strategy
    u = problem.zero_control()

    f_k, grad = problem.value_and_grad(u)
    solves = 2
    F_k = f_k + problem.eval_g(u)
    initial_F = F_k
    mask_prev = u.support_mask()

    records = []
    termination = MAX_ITERATIONS
    violations = 0

    for k in range(1, options.max_iterations + 1):
        if k > 1:
            _, grad = problem.value_and_grad(u)
            solves += 2
        if not (math.isfinite(F_k) and np.isfinite(grad.values).all()):
            raise NonFiniteError(f"objective F={F_k:g} or its gradient is not finite at iteration {k}")
        L_k, u_next, f_next, g_next, trials = select_step(
            problem, strategy, u, grad, F_k, flat_tol=options.stop_tol
        )
        solves += trials
        if u_next is u:
            # a flat exit: the top of the rejected ladder produced nothing
            L_k = records[-1].L if records else strategy.L_hat0
        F_next = f_next + g_next
        if not math.isfinite(F_next):
            raise NonFiniteError(f"objective F={F_next:g} is not finite after iteration {k}")
        mask_next = u_next.support_mask()
        records.append(
            IterationRecord(
                k=k,
                L=L_k,
                trials=trials,
                f=f_next,
                g=g_next,
                F=F_next,
                support=u_next.measure(mask_next),
                step_norm=u_next.diff_norm(u),
                chi_dist=u.measure(mask_prev != mask_next),
                pde_solves=solves,
            )
        )
        if strategy.kind == FIXED and F_next > F_k + 1e-14:
            violations += 1
            log.warning(
                "objective increased at iteration %d with fixed L=%g (dF=%.3e); "
                "the fixed weight is below the gradient Lipschitz constant",
                k, strategy.L_fixed, F_next - F_k,
            )
        stop = abs(F_next - F_k) <= options.stop_tol
        u, F_k, mask_prev = u_next, F_next, mask_next
        if stop:
            termination = TOLERANCE
            break

    report = SolveReport(
        records=records,
        initial_F=initial_F,
        final_control=u,
        final_f=records[-1].f,
        final_g=records[-1].g,
        final_F=F_k,
        termination=termination,
        pde_solves=solves,
        monotonicity_violations=violations,
    )
    if compute_fp_residual:
        report.fp_residual_L = records[-1].L
        report.fp_residual = fp_residual(problem, u, report.fp_residual_L)
    return report
