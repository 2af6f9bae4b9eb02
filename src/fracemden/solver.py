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
initial conditions close the square algebraic system.

That system is assembled once per solve as an affine operator plus one
nonlinear term, r(C) = A C + s * g(Phi C) - h, where row k of Phi is
B(x_k).  Damped Newton solves it with the exact Jacobian
J = A + diag(s * g'(Phi C)) Phi; g' comes from forward-mode
differentiation of the g expression (expr.evaluate_with_derivative).

What does not depend on the problem is built once per key and cached:
per degree bound N one record of the basis, the collocation points, Phi,
B(0), the basis at the error-table points and the Gram condition
estimate, which assemble_residual reads too; per (alpha, N) the
operational matrices of orders alpha and 2 alpha and the affine pieces
Phi D_2alpha^T, Phi D_alpha^T and D_alpha B(0).  Every cached array is
read-only.  A solve then applies only what belongs to its problem: the
damping lambda / x^alpha, s and h.

lambda, a, b and tol must be finite, and a start point whose residual is
not finite raises SolverError naming the point: Newton's stop test cannot
see a NaN.  A stop level that overflows (a = 1e308, say) raises SolverError
naming the row whose scale overflowed, since it would accept any residual,
and so does a Newton step that is not finite (b = 1e308, say).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import expr, fraccalc, linalg
from .fraccalc import GeneralizedPolynomial, OperationalMatrix
from .polybasis import DEGREE_CAP, BoubakerBasis, build_basis, eval_basis

CONDITION_WARNING_THRESHOLD = 1e12
# Newton stops once the residual is within this many unit roundoffs of the
# scale |A||C| + |s g(Phi C)| + |rhs| of its own terms: evaluating r at the
# exact root in double precision cannot promise less.  With a factor of 1,
# about one linear solve in forty at N = 10 still takes a second step that
# only reshuffles rounding; with 4, each of 4000 such solves over alpha in
# [0.7, 1) stops after its one exact step.
ROUNDING_FLOOR_FACTOR = 4
_EPS = float(np.finfo(float).eps)
# (alpha, N) keys whose operators stay cached; each entry holds a few
# (N+1)-square arrays.
_OPERATOR_CACHE_SIZE = 32
# points of a solve's error table
_TABLE_XS = tuple(k / 10.0 for k in range(1, 11))


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
        for name, v in (("lambda", self.lam), ("a", self.a), ("b", self.b)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
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


def _eval_at(
    e: expr.Expression, name: str, value: float, where: str, *, derivative=False
):
    try:
        if derivative:
            return expr.evaluate_with_derivative(e, name, value)
        return expr.evaluate(e, {name: value})
    except expr.EvalError as err:
        raise expr.EvalError(
            f"{err.args[0]} while evaluating {where} at {name}={value!r}",
            err.subexpr,
        ) from err


class _Degree(NamedTuple):
    """What a solve takes from the degree bound N alone."""

    basis: BoubakerBasis
    pts: tuple[float, ...]  # interior collocation points, descending
    x: np.ndarray  # the same points as an array
    Phi: np.ndarray  # row k is B(x_k)
    B0: np.ndarray  # B(0)
    cond_Q: float  # condition estimate of the Gram matrix
    table_rows: np.ndarray  # B(x) at the error-table points _TABLE_XS


class _Operators(NamedTuple):
    """The affine pieces that depend on (alpha, N) alone."""

    D_alpha: OperationalMatrix
    D_2alpha: OperationalMatrix
    P2: np.ndarray  # Phi D_2alpha^T: D^(2alpha) of each basis function at x_k
    P1: np.ndarray  # Phi D_alpha^T
    ic: np.ndarray  # D_alpha B(0): the row of the condition D^(alpha) u(0) = b


class _System(NamedTuple):
    """The collocated system r(C) = A C + [s * g(Phi C); 0; 0] - rhs."""

    A: np.ndarray  # affine part: N-1 collocation rows, then the two IC rows
    Phi: np.ndarray  # row k is B(x_k) at collocation point k
    s: np.ndarray  # s(x_k)
    rhs: np.ndarray  # [h(x_k); a; b]


def _operators(
    degree: _Degree, D_alpha: OperationalMatrix, D_2alpha: OperationalMatrix
) -> _Operators:
    return _Operators(
        D_alpha, D_2alpha, degree.Phi @ D_2alpha.D.T, degree.Phi @ D_alpha.D.T,
        D_alpha.D @ degree.B0,
    )


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@lru_cache(maxsize=DEGREE_CAP + 1)
def _cached_degree(N: int) -> _Degree:
    """The read-only grid and error-table rows of degree N, with the Gram
    condition estimate."""
    basis = build_basis(N)
    pts = tuple(collocation_points(N))
    degree = _Degree(
        basis, pts, np.array(pts), eval_basis(pts, basis), eval_basis(0.0, basis),
        linalg.condition_estimate(linalg.gram(basis)),
        eval_basis(_TABLE_XS, basis),
    )
    _read_only(degree.x, degree.Phi, degree.B0, degree.table_rows)
    return degree


@lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _cached_operators(alpha: float, N: int) -> _Operators:
    """The read-only operators of order alpha on the degree-N grid."""
    degree = _cached_degree(N)
    ops = _operators(
        degree,
        fraccalc.build_D(alpha, degree.basis),
        fraccalc.build_D(2.0 * alpha, degree.basis),
    )
    _read_only(ops.P2, ops.P1, ops.ic)
    return ops


def _assemble(problem: EmdenFowlerProblem, degree: _Degree, ops: _Operators) -> _System:
    damping = problem.lam / degree.x ** problem.alpha
    A = np.vstack([ops.P2 + damping[:, None] * ops.P1, degree.B0, ops.ic])
    s = np.array([_eval_at(problem.s, "x", x, "s(x)") for x in degree.pts])
    h = np.array([_eval_at(problem.h, "x", x, "h(x)") for x in degree.pts])
    return _System(A, degree.Phi, s, np.concatenate([h, [problem.a, problem.b]]))


def _residual(problem: EmdenFowlerProblem, system: _System, C: np.ndarray):
    """r(C) and its nonlinear part s * g(Phi C)."""
    g = [_eval_at(problem.g, "u", u, "g(u)") for u in (system.Phi @ C).tolist()]
    sg = system.s * np.array(g)
    r = system.A @ C - system.rhs
    r[: sg.size] += sg
    return r, sg


def _jacobian(problem: EmdenFowlerProblem, system: _System, C: np.ndarray):
    """Exact J = A + [diag(s * g'(Phi C)) Phi; 0; 0]."""
    dg = [
        _eval_at(problem.g, "u", u, "g(u)", derivative=True)[1]
        for u in (system.Phi @ C).tolist()
    ]
    J = system.A.copy()
    J[: len(dg)] += (system.s * np.array(dg))[:, None] * system.Phi
    return J


def _stop_level(
    system: _System, sg: np.ndarray, C: np.ndarray, tol: float, pts: tuple[float, ...]
) -> float:
    """max(tol, the rounding floor of evaluating r at C).

    A floor that overflows would accept any residual, so it raises
    SolverError naming the row and the terms of its scale.
    """
    with np.errstate(over="ignore"):
        AC = np.abs(system.A) @ np.abs(C)
        scale = AC + np.abs(system.rhs)
        scale[: sg.size] += np.abs(sg)
    top = float(np.max(scale))
    if not math.isfinite(top):
        k = int(np.flatnonzero(~np.isfinite(scale))[0])
        n = len(pts)
        row = f"collocation point x = {pts[k]!r}" if k < n else (
            ("initial condition u(0) = a", "initial condition D^(alpha) u(0) = b")[k - n]
        )
        sg_k = abs(sg[k]) if k < n else 0.0
        raise SolverError(
            f"stop level overflows: the residual scale |A||C| + |s g(Phi C)| + |rhs| "
            f"at the {row} is {AC[k]} + {sg_k} + {abs(system.rhs[k])}"
        )
    return max(tol, ROUNDING_FLOOR_FACTOR * _EPS * top)


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
    is D^(alpha) u(0) - b.  The grid is solve's cached one for basis.N, so
    a basis above DEGREE_CAP is refused here too.
    """
    degree = _cached_degree(basis.N)
    system = _assemble(problem, degree, _operators(degree, D_alpha, D_2alpha))
    return _residual(problem, system, np.asarray(C, dtype=float))[0]


def solve(
    problem: EmdenFowlerProblem,
    N: int,
    *,
    tol: float = 1e-10,
    max_iters: int = 50,
) -> SolveReport:
    """Damped Newton on the collocated system, with its exact Jacobian.

    Starts from C = [a, 0, ..., 0] (the constant function u = a, which
    already satisfies u(0) = a since B_0 = 1 and the higher basis
    constants only enter through their own coefficients).  Each step is
    halved until the infinity-norm residual strictly decreases.  Success
    means the infinity-norm residual fell to max(tol, floor) within
    max_iters iterations, where
    floor = ROUNDING_FLOOR_FACTOR * eps * max(|A||C| + |s g(Phi C)| + |rhs|)
    is the rounding level of evaluating the residual at C itself; the
    reported residual_inf is the true residual, never the floor.  The
    Jacobian is exact, so a linear g takes one Newton step.

    The basis, its collocation grid, the error-table rows and the Gram
    condition are built once per N, and the operational matrices of orders
    alpha and 2 alpha with their products on that grid once per (alpha, N);
    they are cached as read-only arrays, so a repeated key builds no matrix.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    degree = _cached_degree(N)
    system = _assemble(problem, degree, _cached_operators(problem.alpha, N))

    C = np.zeros(N + 1)
    C[0] = problem.a
    r, sg = _residual(problem, system, C)
    rnorm = float(np.max(np.abs(r)))
    if not math.isfinite(rnorm):
        # the initial-condition rows come to a - a and -b: k is a collocation row
        k = int(np.flatnonzero(~np.isfinite(r))[0])
        raise SolverError(
            f"residual {r[k]} at the start point u = a, at collocation point "
            f"x = {degree.pts[k]!r}: its terms are A C = {(system.A @ C)[k]}, "
            f"s(x) g(a) = {sg[k]} and h(x) = {system.rhs[k]}"
        )
    iters = 0
    while rnorm > _stop_level(system, sg, C, tol, degree.pts):
        if iters >= max_iters:
            raise NonConvergenceError(rnorm, iters)
        J = _jacobian(problem, system, C)
        try:
            d = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as err:
            raise SingularJacobianError(iters) from err
        if not all(map(math.isfinite, d.tolist())):
            # refused before a residual at C + t d could warn of inf * 0
            k = int(np.flatnonzero(~np.isfinite(d))[0])
            raise SolverError(
                f"Newton step not finite at iteration {iters}: "
                f"J d = -r gives d[{k}] = {d[k]}"
            )
        # damp by halving until the residual norm actually decreases
        t = 1.0
        for _ in range(30):
            Cn = C + t * d
            rn, sgn = _residual(problem, system, Cn)
            rn_norm = float(np.max(np.abs(rn)))
            if rn_norm < rnorm:
                break
            t *= 0.5
        else:
            raise NonConvergenceError(rnorm, iters + 1)
        C, r, sg, rnorm = Cn, rn, sgn, rn_norm
        iters += 1

    cond_q = degree.cond_Q
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
        for x, bx in zip(_TABLE_XS, degree.table_rows):
            approx = float(C @ bx)
            exact_val = _eval_at(problem.exact, "x", x, "exact(x)")
            rows.append((x, approx, exact_val, abs(approx - exact_val)))
        error_table = tuple(rows)

    return SolveReport(
        C=C,
        points=degree.pts,
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
