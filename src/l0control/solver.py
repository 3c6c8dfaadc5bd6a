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
the fixed weight's one included, is evaluated in one place into an
`Evaluation` (u, f, g and F = f + g), and the step hands the accepted
point's record to the loop.
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
        proxmod.positive("eta", self.eta)
        proxmod.positive_integer("I_max", self.I_max)
        proxmod.positive("L_hat0", self.L_hat0)
        proxmod.nonnegative("L_fixed", self.L_fixed)


@dataclass(frozen=True)
class SolverOptions:
    strategy: StepStrategy = field(default_factory=StepStrategy)
    max_iterations: int = 10_000
    stop_tol: float = 1e-12

    def __post_init__(self):
        proxmod.positive_integer("max_iterations", self.max_iterations)
        proxmod.positive("stop_tol", self.stop_tol)


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


@dataclass(frozen=True)
class Evaluation:
    """One evaluated control u with its tracking value f and penalty g."""

    u: object
    f: float
    g: float

    @property
    def F(self):
        return self.f + self.g


def descent_ok(ev_k, ev_next, eta):
    """Decrease test  eta*||u_next - u_k||^2 <= F_k - F_next."""
    return eta * ev_next.u.diff_norm(ev_k.u) ** 2 <= ev_k.F - ev_next.F


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


def _blocks(values):
    """Slices of fem.BLOCK_CELLS cells (strips) that cover the last axis of control values."""
    return [slice(a, a + fem.BLOCK_CELLS) for a in range(0, values.shape[-1], fem.BLOCK_CELLS)]


def iht_step(problem, u_k, grad, L):
    """Exact global solution of the pointwise subproblem at prox weight L.

    Takes the canonical (tie -> 0) element of the prox set per cell: hard thresholding for the support
    penalty, soft thresholding in l1 mode, the 2-vector prox per strip in switching mode.  The map is
    elementwise, so it runs over fem.BLOCK_CELLS cells (strips) at a time, with the bits of one pass.
    """
    if L < 0:
        raise ValueError(f"prox weight must be nonnegative, got {L}")
    u, g, out = u_k.values, grad.values, np.empty_like(u_k.values)
    for b in _blocks(u):
        zero_ok, v, _ = _prox_sets(problem.spec, u[..., b], g[..., b], L)
        out[..., b] = np.where(zero_ok, 0.0, v)
    return replace(u_k, values=out)


def select_step(problem, strategy, ev_k, grad, flat_tol=0.0):
    """Pick the prox weight for one iteration from the current point's Evaluation ev_k.

    Returns (L, ev_next, trials): the accepted weight and the Evaluation of
    the accepted point.  Every trial, FIXED's one included, is evaluated
    once, f and g together, and a trial whose objective is NaN raises
    NonFiniteError at once.  FIXED applies its weight without a test.
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
    reported as a zero step that returns ev_k itself, at the last weight
    tried; the second raises StepSearchError.
    """
    trials = 0
    flattest = math.inf

    def attempt(L):
        """(L, ev_t) of the trial at weight L, and whether it passes the decrease test."""
        nonlocal trials, flattest
        u_t = iht_step(problem, ev_k.u, grad, L)
        ev_t = Evaluation(u_t, problem.eval_f(u_t), problem.eval_g(u_t))
        trials += 1
        if math.isnan(ev_t.F):
            # an infinite trial is an ordinary rejection; NaN means the objective is broken
            raise NonFiniteError(f"objective F=nan at trial weight L={L:g}")
        flattest = min(flattest, abs(ev_t.F - ev_k.F))
        return (L, ev_t), descent_ok(ev_k, ev_t, strategy.eta)

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
        return L, ev_k, trials
    raise StepSearchError(
        f"descent condition failed for every L up to {L:g}; gradient and objective disagree"
    )


def fp_residual(problem, u, L, grad=None):
    """Stationarity residual of u under the thresholding map at weight L.

    Per cell the residual is (L+alpha) times the distance from the cell value
    to the prox solution set, i.e. the size of the violated optimality
    relation measured in the gradient scale (so it does not vanish trivially
    as L grows); the maximum over cells is returned.  Zero exactly when every
    cell satisfies the fixed-point inclusion.  The cells are taken
    fem.BLOCK_CELLS at a time; a maximum is exact in any order, so the
    maximum of the block maxima has the bits of one pass.
    """
    s = problem.spec
    if grad is None:
        grad = problem.value_and_grad(u)[1]
    maxima = []
    for b in _blocks(u.values):
        ub = u.values[..., b]
        zero_ok, v, v_ok = _prox_sets(s, ub, grad.values[..., b], L)
        dist = np.minimum(np.where(zero_ok, np.abs(ub), np.inf), np.where(v_ok, np.abs(ub - v), np.inf))
        maxima.append(dist.max(initial=0.0))
    # np.max keeps a NaN block maximum, as the one-pass maximum does
    return (L + s.alpha) * float(np.max(maxima, initial=0.0))


def run(problem, options: SolverOptions = None, compute_fp_residual=True):
    """Iterate until |F_{k+1} - F_k| <= stop_tol or the iteration budget is hit.

    Every iteration is logged (accepted weight, trials, f, g, F, support
    measure, step norm, support-mask distance, cumulative PDE solves) from
    the accepted trial's Evaluation, so the penalty is evaluated afresh only
    at the start point.  The solve count is the paper's, tallied here: 2 per
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

    f_0, grad = problem.value_and_grad(u)
    solves = 2
    ev = Evaluation(u, f_0, problem.eval_g(u))
    initial_F = ev.F
    mask_prev = u.support_mask()

    records = []
    termination = MAX_ITERATIONS
    violations = 0

    for k in range(1, options.max_iterations + 1):
        if k > 1:
            _, grad = problem.value_and_grad(ev.u)
            solves += 2
        if not (math.isfinite(ev.F) and np.isfinite(grad.values).all()):
            raise NonFiniteError(f"objective F={ev.F:g} or its gradient is not finite at iteration {k}")
        L_k, ev_next, trials = select_step(problem, strategy, ev, grad, flat_tol=options.stop_tol)
        solves += trials
        if ev_next is ev:
            # a flat exit: the top of the rejected ladder produced nothing
            L_k = records[-1].L if records else strategy.L_hat0
        F_next = ev_next.F
        if not math.isfinite(F_next):
            raise NonFiniteError(f"objective F={F_next:g} is not finite after iteration {k}")
        mask_next = ev_next.u.support_mask()
        records.append(
            IterationRecord(
                k=k,
                L=L_k,
                trials=trials,
                f=ev_next.f,
                g=ev_next.g,
                F=F_next,
                support=ev_next.u.measure(mask_next),
                step_norm=ev_next.u.diff_norm(ev.u),
                chi_dist=ev.u.measure(mask_prev != mask_next),
                pde_solves=solves,
            )
        )
        if strategy.kind == FIXED and F_next > ev.F + 1e-14:
            violations += 1
            log.warning(
                "objective increased at iteration %d with fixed L=%g (dF=%.3e); "
                "the fixed weight is below the gradient Lipschitz constant",
                k, strategy.L_fixed, F_next - ev.F,
            )
        stop = abs(F_next - ev.F) <= options.stop_tol
        ev, mask_prev = ev_next, mask_next
        if stop:
            termination = TOLERANCE
            break

    report = SolveReport(
        records=records,
        initial_F=initial_F,
        final_control=ev.u,
        final_f=ev.f,
        final_g=ev.g,
        final_F=ev.F,
        termination=termination,
        pde_solves=solves,
        monotonicity_violations=violations,
    )
    if compute_fp_residual:
        report.fp_residual_L = records[-1].L
        report.fp_residual = fp_residual(problem, ev.u, report.fp_residual_L)
    return report
