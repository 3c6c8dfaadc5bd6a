"""Hard-thresholding solver for support-penalized optimal control of elliptic PDEs.

The package bundles exact scalar prox maps for the support penalty
(`l0control.prox`), a structured P1 finite-element layer on the unit square
(`l0control.fem`), the assembled control problems (`l0control.problem`), the
thresholding iteration with adaptive prox weights (`l0control.solver`), and
an experiment harness with a CLI (`l0control.experiments`, `l0control.cli`).
"""

__version__ = "0.1.0"
