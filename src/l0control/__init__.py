"""Hard-thresholding solver for support-penalized optimal control of elliptic PDEs.

The package bundles exact scalar prox maps for the support penalty
(`l0control.prox`), a structured P1 finite-element layer on the unit square
(`l0control.fem`), the assembled control problems (`l0control.problem`), the
thresholding iteration with adaptive prox weights (`l0control.solver`), and
an experiment harness with a CLI (`l0control.experiments`, `l0control.cli`).
"""

from .fem import (
    DIRICHLET_POISSON,
    NEUMANN_HELMHOLTZ,
    AssembledPDE,
    ControlField,
    Mesh,
    assemble,
    build_mesh,
    element_means,
    interpolate_nodal,
    l2_inner_control,
    l2_norm_control,
    l2_norm_state,
)
from .problem import (
    L0,
    L1,
    SWITCHING,
    ControlProblem,
    EvaluationBudget,
    ProblemSpec,
    SwitchingControl,
    default_target,
    make_problem,
    switching_target,
    unsolvable_target,
    zero_target,
)
from .prox import (
    ProxParams,
    ScalarSolutionSet,
    SwitchingPoint,
    box_hard_threshold,
    convex_envelope_value,
    convexified_not_fixed_point_check,
    fp_membership,
    hard_threshold,
    prox_l0,
    prox_l1,
    prox_switch,
    separation_threshold,
)
from .solver import (
    IterationRecord,
    SolveReport,
    SolverOptions,
    StepSearchError,
    StepStrategy,
    descent_ok,
    fp_residual,
    iht_step,
    run,
    select_step,
)

__version__ = "0.1.0"
