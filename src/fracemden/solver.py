"""Collocation assembly and Newton solve for singular fractional
Emden-Fowler initial-value problems

    D^(2a) u(x) + (lambda / x^a) D^(a) u(x) + s(x) g(u(x)) = h(x),
    u(0) = a0,  D^(a) u(0) = b0,        0 < x < 1,  1/2 < a <= 1.

The solution is sought as a degree-N basis series u = C^T B(x).  Both
fractional derivatives are replaced by their operational matrices (the
order-2a derivative is built directly as a single fractional order, not as
a composition), the equation is enforced at the N-1 interior
Chebyshev-Lobatto points x_i = (cos(i pi / N) + 1) / 2, i = 1..N-1 -- which
avoids both the singular point x = 0 and the endpoint x = 1 -- and the two
initial conditions close the square algebraic system.  A damped Newton
iteration with a forward-difference Jacobian solves it; the nonlinearity g
is a black-box expression, so no analytic Jacobian is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr, fraccalc, linalg
from .fraccalc import GeneralizedPolynomial, OperationalMatrix
from .polybasis import BoubakerBasis, build_basis, eval_basis

CONDITION_WARNING_THRESHOLD = 1e12


class SolverError(Exception):
    pass


class SingularJacobianError(SolverError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"singular Jacobian at Newton iteration {iteration}")


class NonConvergenceError(SolverError):
    def __init__(self, best_residual: float, iterations: int):
        self.best_residual = best_residual
        self.iterations = iterations
        super().__init__(
            f"Newton did not converge in {iterations} iterations; "
            f"best residual {best_residual:.3e}"
        )


@dataclass(frozen=True)
class EmdenFowlerProblem:
    """Problem data: order, damping strength, coefficient/forcing/nonlinearity
    expressions, and initial values.

    s and h are expressions in x, g is an expression in u, exact (optional,
    for error reporting) is an expression in x.
    """

    alpha: float
    lam: float
    s: expr.Expression
    g: expr.Expression
    h: expr.Expression
    a: float
    b: float
    exact: expr.Expression | None = None

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1], got {self.alpha}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


def problem_from_strings(alpha, lam, s, g, h, a, b, exact=None) -> EmdenFowlerProblem:
    """Convenience constructor parsing the expression fields."""
    return EmdenFowlerProblem(
        alpha=float(alpha),
        lam=float(lam),
        s=expr.parse(s, {"x"}),
        g=expr.parse(g, {"u"}),
        h=expr.parse(h, {"x"}),
        a=float(a),
        b=float(b),
        exact=None if exact is None else expr.parse(exact, {"x"}),
    )


@dataclass(frozen=True)
class SolveReport:
    """Solution coefficients plus diagnostics of one collocation solve."""

    C: np.ndarray
    points: tuple[float, ...]
    newton_iters: int
    residual_inf: float
    cond_Q: float
    error_table: tuple[tuple[float, float, float, float], ...] | None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.C.setflags(write=False)


def collocation_points(N: int) -> list[float]:
    """Interior Chebyshev-Lobatto points (cos(i pi / N) + 1) / 2, i=1..N-1.

    Descending, strictly inside (0, 1): the grid excludes x = 1 (i = 0)
    and the singular point x = 0 (i = N).
    """
    if N < 2:
        raise ValueError(f"need N >= 2 for collocation, got {N}")
    return [(math.cos(i * math.pi / N) + 1.0) / 2.0 for i in range(1, N)]


def _eval_at(e: expr.Expression, name: str, value: float, where: str) -> float:
    try:
        return expr.evaluate(e, {name: value})
    except expr.EvalError as err:
        raise expr.EvalError(
            f"{err.args[0]} while evaluating {where} at {name}={value!r}",
            err.subexpr,
        ) from err


def assemble_residual(
    problem: EmdenFowlerProblem,
    basis: BoubakerBasis,
    D_alpha: OperationalMatrix,
    D_2alpha: OperationalMatrix,
    C,
) -> np.ndarray:
    """Residual of the collocated algebraic system at coefficients C.

    Entries 0..N-2 are the collocation residuals (left side minus h) at the
    interior points in descending order; entry N-1 is u(0) - a and entry N
    is D^(alpha) u(0) - b.
    """
    N = basis.N
    C = np.asarray(C, dtype=float)
    out = np.empty(N + 1)
    pts = collocation_points(N)
    for k, x in enumerate(pts):
        Bx = eval_basis(x, basis)
        u = float(C @ Bx)
        frac2 = float(C @ (D_2alpha.D @ Bx))
        frac1 = float(C @ (D_alpha.D @ Bx))
        sval = _eval_at(problem.s, "x", x, "s(x)")
        gval = _eval_at(problem.g, "u", u, "g(u)")
        hval = _eval_at(problem.h, "x", x, "h(x)")
        out[k] = frac2 + problem.lam / x ** problem.alpha * frac1 + sval * gval - hval
    B0 = eval_basis(0.0, basis)
    out[N - 1] = float(C @ B0) - problem.a
    out[N] = float(C @ (D_alpha.D @ B0)) - problem.b
    return out


def solve(
    problem: EmdenFowlerProblem,
    N: int,
    *,
    tol: float = 1e-10,
    max_iters: int = 50,
    fd_step: float = 1e-7,
) -> SolveReport:
    """Damped Newton on the collocated system.

    Starts from C = [a, 0, ..., 0] (the constant function u = a, which
    already satisfies u(0) = a since B_0 = 1 and the higher basis
    constants only enter through their own coefficients).  Success means
    the infinity-norm residual fell to tol within max_iters iterations.
    The forward-difference Jacobian is not exact even for a linear
    problem, so linear problems need no fixed number of iterations:
    mixed_power(0.7) takes 2 at N = 6 but 6 at N = 10, and linear solves
    at N = 10 take 2-7 over alpha in [0.7, 1).
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    basis = build_basis(N)
    D1 = fraccalc.build_D(problem.alpha, basis)
    D2 = fraccalc.build_D(2.0 * problem.alpha, basis)

    def F(C):
        return assemble_residual(problem, basis, D1, D2, C)

    C = np.zeros(N + 1)
    C[0] = problem.a
    r = F(C)
    rnorm = float(np.max(np.abs(r)))
    best = rnorm
    iters = 0
    while rnorm > tol:
        if iters >= max_iters:
            raise NonConvergenceError(best, iters)
        J = np.empty((N + 1, N + 1))
        for j in range(N + 1):
            step = fd_step * max(1.0, abs(C[j]))
            Cp = C.copy()
            Cp[j] += step
            J[:, j] = (F(Cp) - r) / step
        try:
            d = linalg.lu_solve(J, -r)
        except linalg.SingularMatrixError as err:
            raise SingularJacobianError(iters) from err
        # damp by halving until the residual norm actually decreases
        t = 1.0
        for _ in range(30):
            Cn = C + t * d
            rn = F(Cn)
            rn_norm = float(np.max(np.abs(rn)))
            if rn_norm < rnorm:
                break
            t *= 0.5
        else:
            raise NonConvergenceError(min(best, rnorm), iters + 1)
        C, r, rnorm = Cn, rn, rn_norm
        best = min(best, rnorm)
        iters += 1

    cond_q = linalg.condition_estimate(linalg.gram(basis))
    warnings = ()
    if cond_q > CONDITION_WARNING_THRESHOLD:
        warnings = (
            f"Gram matrix condition estimate {cond_q:.3e} exceeds "
            f"{CONDITION_WARNING_THRESHOLD:.0e}; coefficients may carry "
            f"significant rounding error",
        )

    error_table = None
    if problem.exact is not None:
        rows = []
        for k in range(1, 11):
            x = k / 10.0
            approx = float(C @ eval_basis(x, basis))
            exact_val = _eval_at(problem.exact, "x", x, "exact(x)")
            rows.append((x, approx, exact_val, abs(approx - exact_val)))
        error_table = tuple(rows)

    return SolveReport(
        C=C,
        points=tuple(collocation_points(N)),
        newton_iters=iters,
        residual_inf=rnorm,
        cond_Q=cond_q,
        error_table=error_table,
        warnings=warnings,
    )


def residual_certificate(
    problem: EmdenFowlerProblem,
    C,
    basis: BoubakerBasis,
    grid,
) -> list[tuple[float, float]]:
    """Pointwise residual of the differential equation for u = C^T B, with
    both fractional derivatives applied exactly term by term.

    Independent of the operational matrices, so it exposes their projection
    error: at the collocation points of a converged solve the residual is
    at rounding level only if the matrices did their job.
    """
    C = np.asarray(C, dtype=float)
    mono = basis.M.T @ C  # monomial coefficients of C^T B
    u_poly = GeneralizedPolynomial.from_terms(
        (c, float(k)) for k, c in enumerate(mono)
    )
    d1 = fraccalc.caputo_polynomial(u_poly, problem.alpha)
    d2 = fraccalc.caputo_polynomial(u_poly, 2.0 * problem.alpha)
    out = []
    for x in grid:
        x = float(x)
        if not 0.0 < x <= 1.0:
            raise ValueError(f"grid point {x} outside (0, 1]")
        u = u_poly(x)
        sval = _eval_at(problem.s, "x", x, "s(x)")
        gval = _eval_at(problem.g, "u", u, "g(u)")
        hval = _eval_at(problem.h, "x", x, "h(x)")
        resid = d2(x) + problem.lam / x ** problem.alpha * d1(x) + sval * gval - hval
        out.append((x, resid))
    return out
