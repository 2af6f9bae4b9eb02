"""Spectral collocation solver for singular fractional Emden-Fowler
initial-value problems on (0, 1), built on Boubaker-polynomial operational
matrices for the Caputo derivative.

Typical use:

>>> from fracemden import problems, solver
>>> report = solver.solve(problems.lane_emden(1), N=6)
>>> report.C  # series coefficients of the approximate solution
"""

from .approx import (
    EvaluationError,
    l2_error,
    max_abs_error_on_grid,
    project,
)
from .fraccalc import (
    GeneralizedPolynomial,
    OperationalMatrix,
    build_D,
    build_E,
    build_Z,
    caputo_monomial,
    caputo_polynomial,
    gamma_fn,
    xbar_exponents,
)
from .linalg import (
    SingularMatrixError,
    condition_estimate,
    gram,
    hilbert,
    lu_solve,
)
from .polybasis import (
    BoubakerBasis,
    Polynomial,
    boubaker_coefficient,
    boubaker_polynomial,
    boubaker_recurrence_check,
    build_basis,
    build_M,
    eval_basis,
    eval_series,
)
from .solver import (
    EmdenFowlerProblem,
    NonConvergenceError,
    SolveReport,
    SolverError,
    assemble_residual,
    collocation_points,
    residual_certificate,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "BoubakerBasis",
    "EmdenFowlerProblem",
    "EvaluationError",
    "GeneralizedPolynomial",
    "NonConvergenceError",
    "OperationalMatrix",
    "Polynomial",
    "SingularMatrixError",
    "SolveReport",
    "SolverError",
    "assemble_residual",
    "boubaker_coefficient",
    "boubaker_polynomial",
    "boubaker_recurrence_check",
    "build_D",
    "build_E",
    "build_M",
    "build_Z",
    "build_basis",
    "caputo_monomial",
    "caputo_polynomial",
    "collocation_points",
    "condition_estimate",
    "eval_basis",
    "eval_series",
    "gamma_fn",
    "gram",
    "hilbert",
    "l2_error",
    "lu_solve",
    "max_abs_error_on_grid",
    "project",
    "residual_certificate",
    "solve",
    "xbar_exponents",
    "__version__",
]
