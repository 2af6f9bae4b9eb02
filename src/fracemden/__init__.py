"""Spectral collocation solver for singular fractional Emden-Fowler
initial-value problems on (0, 1), built on Boubaker-polynomial operational
matrices for the Caputo derivative.

Typical use:

>>> from fracemden import problems, solver
>>> report = solver.solve(problems.lane_emden(1), N=6)
>>> report.C  # series coefficients of the approximate solution

Importing the package loads none of its modules: each public name and each
submodule is imported on first access (PEP 562), so a command pays only for
the modules it uses.
"""

from importlib import import_module as _import

__version__ = "1.0.0"

_PUBLIC = {
    "approx": "EvaluationError l2_error project",
    "fraccalc": "GeneralizedPolynomial OperationalMatrix build_D build_D_pair build_E "
                "caputo_monomial caputo_polynomial",
    "linalg": "SingularMatrixError condition_estimate gram hilbert lu_solve",
    "polybasis": "BoubakerBasis Polynomial boubaker_coefficient boubaker_polynomial "
                 "boubaker_recurrence_check build_basis build_M eval_basis eval_series",
    "solver": "EmdenFowlerProblem NonConvergenceError SolveReport SolverError "
              "assemble_residual collocation_points residual_certificate solve",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = ("approx", "cli", "expr", "fraccalc", "linalg", "polybasis",
               "problems", "refdata", "solver")

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _import(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_SUBMODULES))
