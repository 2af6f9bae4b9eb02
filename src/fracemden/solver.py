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
differentiation of the g expression.  A problem compiles s, h, g, g' and
exact once (EmdenFowlerProblem.compiled): a built-in as it is built, from
templates compiled once per process (problems._template), any other on
first use.  Their constant subtrees, such as the Gamma terms of a
manufactured forcing, are folded; each point still goes through the same
libm calls in the same order, so values are bit-identical to walking the
expression trees.

What does not depend on the problem is one read-only operator record per
(alpha, N, lambda): the points, Phi, A = [Phi D_2alpha^T +
diag(lambda / x^alpha) Phi D_alpha^T; B(0); D_alpha B(0)] (at lambda = 0
without the damping term, which would add only zeros) and the largest
row sum R of |A|.  One builder makes it from N, alpha, lambda and the two
Caputo matrices, on a grid cached per N; solve caches it per key, with
both matrices from one exact pass (fraccalc.build_D_pair), and
assemble_residual builds it, uncached, from the matrices it is given.  A
solve then evaluates s, h and max|rhs| once, and u = Phi C once per
Newton iterate for both r and J.

At N = 6 the arithmetic of a Newton iterate takes nanoseconds and its cost
is the fixed cost of each numpy call, so a step makes as few of them as it
can without changing a bit.  s g(u), s g'(u), the residual's sum and its
norms are Python floats, which add and multiply as float64 does.  J is
formed and factorized in _newton_step, one call of the dgesv gufunc that
np.linalg.solve wraps, under the errstate np.linalg.solve opens: that
skips only the wrapper's argument conversion and type checks, nearly half
the cost of a 7 x 7 solve.  numpy.linalg._umath_linalg is private to
numpy; _newton_step is its only user here, with no fallback, so a numpy
that renames it fails the tests.

The stop level is max(tol, floor); the rounding floor, an |A||C| product,
is computed only where it can decide: while the residual is above tol and
not already above the floor's upper bound
4 eps (1 + 2^-40) (R max|C| + max|s g| + max|rhs|), whose margin covers
the rounding of both, so every decision is the floor's own.

A solve computes C, its Newton iterations, its residual and the last
Jacobian Newton factorized, and keeps J and the problem in its report.
The rest is computed on first read: kappa_2(J) (cond_J, one SVD), the
warning keyed on it, and the error table, which evaluates exact.  So a
solve runs no SVD and never calls exact.  Every table of u_N (the error
table, the CLI's solution.csv and reproduce tables) comes from one
evaluator, SolveReport.rows.

lambda, a, b and tol must be finite, and b must be 0 when lambda > 0 (a
solution regular at x = 0 has D^(a) u(0) = 0 there).  An s(x) that is not
finite at a collocation point, and a start point whose residual is not
finite, raise SolverError naming the point: Newton's stop test cannot see
a NaN.  So do a stop level that overflows (a = 1e308, say), naming the
row whose scale overflowed, since it would accept any residual, and a
Newton step that is not finite (h = 1.7e308, say), naming the Jacobian
row that overflowed if one did (s = 1e308, say).  exact is report-only:
where it raises EvalError it never fails a solve (SolveReport.rows).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg  # only _newton_step may call it

from . import expr, fraccalc
from .fraccalc import GeneralizedPolynomial, OperationalMatrix
from .polybasis import (DEGREE_CAP, BoubakerBasis, build_basis, coefficient_vector, eval_basis,
                        eval_series)

# SolveReport warns above this kappa_2(J), where a Newton step may carry a
# relative rounding error of 2.2e-6; on the built-ins it fires only at
# N >= 12.  kappa_2(J) does not see the rounding of the operational matrices,
# so a quiet report is no accuracy certificate: mixed_power(0.7) at N = 14
# reads kappa_2 = 1.2e9 and an error of 2.1.
CONDITION_WARNING_THRESHOLD = 1e10
# Newton stops once the residual is within this many unit roundoffs of the
# scale |A||C| + |s g(Phi C)| + |rhs| of its own terms: evaluating r at the
# exact root in double precision cannot promise less.  With a factor of 1,
# about one linear solve in forty at N = 10 still takes a second step that
# only reshuffles rounding; with 4, each of 4000 such solves over alpha in
# [0.7, 1) stops after its one exact step.
ROUNDING_FLOOR_FACTOR = 4
_EPS = float(np.finfo(float).eps)
# The floor's cheap upper bound is 4 eps M (R max|C| + max|s g| + max|rhs|),
# with R the largest row sum of |A| and the margin M = 1 + 2^-40 (the
# rounding bounds are those of Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., sec. 3.5).  With n = N + 1 columns, u = eps / 2 and
# S the exact largest row sum of |A|:
# - the floor's scale, |A||C| in any summation order plus two additions,
#   is computed no larger than (1 + gamma_(n+2)) (S max|C| + max|s g| + max|rhs|);
# - the bound's R (numpy's row sum) is at least (1 - gamma_(n-1)) S, and its
#   two products and two sums lose at most a factor (1 - u)^3 on each term.
# M covers both while (2n + 4) u is well below 2^-40: at DEGREE_CAP it is
# 2^-47.8.  Rounding to nearest is monotone, so a finite M (...) bounds the
# floor's scale, which then cannot overflow, and 4 eps M (...) bounds the
# floor, 4 eps being a power of two.
_FLOOR_BOUND_MARGIN = 1.0 + 2.0**-40
# Below this the bound is not used: subnormal products of |A||C| round by
# an absolute amount that the relative margin does not cover.
_FLOOR_BOUND_MIN = float(np.finfo(float).tiny)
# (alpha, N, lambda) keys whose operators stay cached; each holds a few
# (N+1)-wide arrays.
_CACHE_SIZE = 32
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
        if self.lam > 0 and self.b != 0:
            raise ValueError(
                f"b must be 0 when lambda > 0, got lambda = {self.lam} and b = {self.b}: "
                f"lambda / x^alpha D^(alpha) u is unbounded at x = 0 unless D^(alpha) u(0) = 0"
            )

    @cached_property
    def compiled(self) -> _Compiled:
        """s, h, g, g' and exact as functions of one float, compiled on
        first use and kept on the instance outside eq, hash and repr."""
        fn = expr.compile_expression
        exact = None if self.exact is None else fn(self.exact, "x")
        return _Compiled(fn(self.s, "x"), fn(self.h, "x"), fn(self.g, "u"),
                         expr.compile_with_derivative(self.g, "u"), exact)

    def __getstate__(self):
        # closures do not pickle; a copy compiles its own
        return {k: v for k, v in vars(self).items() if k != "compiled"}


# g_dual(u) is (g(u), g'(u)); exact is None where the problem has none
_Compiled = namedtuple("_Compiled", "s h g g_dual exact")


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


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution coefficients plus diagnostics of one collocation solve.
    cond_J, warnings and error_table are computed on first read; problem is
    the problem solve solved, None in a report built by hand.  Reports
    compare and hash by identity: fieldwise == would compare the C and J
    arrays, which numpy cannot reduce to one truth value."""

    C: np.ndarray
    points: tuple[float, ...]
    newton_iters: int
    residual_inf: float
    J: np.ndarray | None  # the last Jacobian Newton factorized; None if no step
    problem: EmdenFowlerProblem | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.C.setflags(write=False)
        if self.J is not None:
            self.J.setflags(write=False)

    def __setstate__(self, state):
        # pickle and copy.deepcopy skip __post_init__: a copy is read-only too
        vars(self).update(state)
        self.__post_init__()

    @cached_property
    def cond_J(self) -> float | None:
        """kappa_2(J), one SVD on first access; None where J is None."""
        return None if self.J is None else float(np.linalg.cond(self.J))

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        if self.cond_J is None or self.cond_J <= CONDITION_WARNING_THRESHOLD:
            return ()
        return (f"Jacobian condition number {self.cond_J:.3e} exceeds "
                f"{CONDITION_WARNING_THRESHOLD:.0e}; coefficients may carry "
                f"significant rounding error",)

    @cached_property
    def error_table(self) -> tuple[tuple[float, float, float | None, float | None], ...] | None:
        """rows(x = 0.1, ..., 1.0); None where the problem has no exact
        solution."""
        if self.problem is None or self.problem.exact is None:
            return None
        return tuple(self.rows(_TABLE_XS))

    def rows(self, xs) -> list[tuple[float, float, float | None, float | None]]:
        """(x, u_N(x), exact(x), |u_N(x) - exact(x)|) at each point x of the
        sequence xs, u_N by one eval_series call.  exact is report-only: the
        last two fields are None where the problem has no exact solution,
        or where exact raises EvalError (a removable singularity such as
        sin(x)/x at 0)."""
        u = eval_series(self.C, xs, build_basis(self.C.size - 1)).tolist()
        exact = None if self.problem is None else self.problem.compiled.exact

        def row(x, ux):
            try:
                ex = exact(x)
            except expr.EvalError:
                return x, ux, None, None
            return x, ux, ex, abs(ux - ex)

        return [(x, ux, None, None) if exact is None else row(x, ux) for x, ux in zip(xs, u)]


def collocation_points(N: int) -> list[float]:
    """Interior Chebyshev-Lobatto points (cos(i pi / N) + 1) / 2, i=1..N-1.

    Descending, strictly inside (0, 1): the grid excludes x = 1 (i = 0)
    and the singular point x = 0 (i = N).
    """
    if N < 2:
        raise ValueError(f"need N >= 2 for collocation, got {N}")
    return [(math.cos(i * math.pi / N) + 1.0) / 2.0 for i in range(1, N)]


def _eval_all(f, name: str, values, where: str) -> list:
    """f at each value; an EvalError names the first value that raises."""
    try:
        return list(map(f, values))
    except expr.EvalError:
        for value in values:
            try:
                f(value)
            except expr.EvalError as err:
                raise expr.EvalError(
                    f"{err.message} while evaluating {where} at {name}={value!r}",
                    err.subexpr,
                ) from err
        raise


class _Operator(NamedTuple):
    """What a solve reads of one (alpha, N, lambda) key."""

    pts: tuple[float, ...]  # interior collocation points, descending
    Phi: np.ndarray  # row k is B(x_k)
    A: np.ndarray  # affine part: N-1 collocation rows, then the two IC rows
    R: float  # the largest row sum of |A|, for the floor's bound


class _System(NamedTuple):
    """The collocated system r(C) = A C + [s * g(Phi C); 0; 0] - rhs."""

    op: _Operator
    s: list  # s(x_k)
    rhs: np.ndarray  # [h(x_k); a; b]
    rhs_max: float  # max |rhs|, for the floor's bound


@lru_cache(maxsize=DEGREE_CAP + 1)
def _grid(N: int):
    """The basis of degree N with its points and its read-only Phi and B(0)."""
    basis = build_basis(N)
    pts = tuple(collocation_points(N))
    arrays = (eval_basis(pts, basis), eval_basis(0.0, basis))
    for a in arrays:
        a.setflags(write=False)
    return basis, pts, *arrays


def _operator(N: int, alpha: float, lam: float,
              D_alpha: np.ndarray, D_2alpha: np.ndarray) -> _Operator:
    """The read-only operator of the degree-N grid with the matrices given:
    A = [Phi D_2alpha^T + diag(lam / x^alpha) Phi D_alpha^T; B(0); D_alpha B(0)]
    and the largest row sum of |A|."""
    _, pts, Phi, B0 = _grid(N)
    collocation = Phi @ D_2alpha.T
    if lam:  # at lam = 0 the damping term would add only zeros
        collocation += (lam / np.array(pts) ** alpha)[:, None] * (Phi @ D_alpha.T)
    A = np.vstack([collocation, B0, D_alpha @ B0])
    A.setflags(write=False)
    return _Operator(pts, Phi, A, float(np.abs(A).sum(axis=1).max()))


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_operator(alpha: float, N: int, lam: float) -> _Operator:
    return _operator(N, alpha, lam, *fraccalc.build_D_pair(alpha, _grid(N)[0]))


def _assemble(problem: EmdenFowlerProblem, op: _Operator) -> _System:
    f = problem.compiled
    s = _eval_all(f.s, "x", op.pts, "s(x)")
    if not all(map(math.isfinite, s)):
        # refused before s * g(Phi C) could warn of inf * 0
        k = next(k for k, v in enumerate(s) if not math.isfinite(v))
        raise SolverError(f"s(x) = {s[k]} at collocation point x = {op.pts[k]!r} is not finite")
    rhs = _eval_all(f.h, "x", op.pts, "h(x)") + [problem.a, problem.b]
    return _System(op, s, np.array(rhs), _norm_inf(rhs))


def _residual(problem: EmdenFowlerProblem, system: _System, C: np.ndarray):
    """r(C), its infinity norm, its nonlinear part s * g(Phi C) and
    u = Phi C, the last two as lists.  Python floats add and multiply as
    numpy's float64 does, so r is bit for bit A C - rhs + [s g; 0; 0]."""
    u = (system.op.Phi @ C).tolist()
    sg = [s * g for s, g in zip(system.s, _eval_all(problem.compiled.g, "u", u, "g(u)"))]
    r = (system.op.A @ C - system.rhs).tolist()
    r[: len(sg)] = [x + y for x, y in zip(r, sg)]
    return np.array(r), _norm_inf(r), sg, u


def _norm_inf(values: list) -> float:
    """max |v| over a list of floats, bit for bit float(np.abs(v).max()):
    NaN if any v is NaN, which max alone misses after the first item.  A
    sum of inf and -inf is NaN too, so a NaN sum only prompts the search."""
    top = max(map(abs, values))
    total = sum(values)
    if total != total and any(v != v for v in values):
        return math.nan
    return top


def _raise_singular(err: str, flag: int):
    # the errstate's handler: dgesv flags a zero pivot as an invalid value
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _newton_step(A: np.ndarray, Phi: np.ndarray, sdg: list, r: np.ndarray):
    """J = A + [diag(sdg) Phi; 0; 0] and the Newton step d with J d = -r.

    It runs under the errstate np.linalg.solve opens, and d comes from the
    gufunc np.linalg.solve wraps, so d has the same bits and a singular J
    raises LinAlgError.  An overflow in J is ignored and left to the
    caller's finiteness test.  Forming J flags no invalid value: sdg is a
    list of Python floats, and Phi has no zero entry up to DEGREE_CAP.
    """
    J = A.copy()
    J[: len(sdg)] += np.array(sdg)[:, None] * Phi
    return J, _umath_linalg.solve1(J, -r, signature="dd->d")


def _floor_bound(system: _System, sg: list, C: np.ndarray) -> float:
    """An upper bound of _floor at C (see _FLOOR_BOUND_MARGIN), or inf
    where it decides nothing.  r(C) is finite where it is called, so s g
    is too and C holds no NaN."""
    scale = system.op.R * max(map(abs, C.tolist())) + (max(map(abs, sg)) + system.rhs_max)
    bound = ROUNDING_FLOOR_FACTOR * _EPS * (_FLOOR_BOUND_MARGIN * scale)
    return bound if bound >= _FLOOR_BOUND_MIN else math.inf


def _floor(system: _System, sg: list, C: np.ndarray) -> float:
    """The rounding floor of evaluating r at C,
    ROUNDING_FLOOR_FACTOR * eps * max(|A||C| + |s g(Phi C)| + |rhs|).

    A floor that overflows would accept any residual, so it raises
    SolverError naming the row and the terms of its scale.
    """
    op, abs_rhs = system.op, np.abs(system.rhs)
    with np.errstate(over="ignore"):
        AC = np.abs(op.A) @ np.abs(C)
        scale = AC + abs_rhs
        scale[: len(sg)] += np.abs(sg)
    top = float(scale.max())
    if not math.isfinite(top):
        k = int(np.flatnonzero(~np.isfinite(scale))[0])
        n = len(op.pts)
        row = f"collocation point x = {op.pts[k]!r}" if k < n else (
            ("initial condition u(0) = a", "initial condition D^(alpha) u(0) = b")[k - n]
        )
        sg_k = abs(sg[k]) if k < n else 0.0
        raise SolverError(
            f"stop level overflows: the residual scale |A||C| + |s g(Phi C)| + |rhs| "
            f"at the {row} is {AC[k]} + {sg_k} + {abs_rhs[k]}"
        )
    return ROUNDING_FLOOR_FACTOR * _EPS * top


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
    is D^(alpha) u(0) - b.  The record is built, not cached, from the
    matrices given, on solve's cached grid for basis.N, so a basis above
    DEGREE_CAP is refused here too.
    """
    C = coefficient_vector(C, basis)
    system = _assemble(problem, _operator(basis.N, problem.alpha, problem.lam,
                                          D_alpha.D, D_2alpha.D))
    return _residual(problem, system, C)[0]


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
    Jacobian is exact, so a linear g takes one Newton step.  N and
    max_iters must be integers (anything operator.index accepts); another
    type raises TypeError naming the argument.

    The operator record of (alpha, N, lambda) is built once per key,
    with both Caputo matrices from one exact pass, and cached read-only,
    so a repeated key builds no matrix.  Each iterate forms Phi C once, for r
    and J, and the floor is computed only while the residual is above tol
    and at or below the floor's cached-operator bound (_floor_bound), so
    the result is the same as computing it at every iterate.
    """
    N, max_iters = _integer("N", N), _integer("max_iters", max_iters)
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    op = _cached_operator(problem.alpha, N, problem.lam)
    system = _assemble(problem, op)

    C = np.zeros(N + 1)
    C[0] = problem.a
    r, rnorm, sg, u = _residual(problem, system, C)
    if not math.isfinite(rnorm):
        # the initial-condition rows come to a - a and -b: k is a collocation row
        k = int(np.flatnonzero(~np.isfinite(r))[0])
        raise SolverError(
            f"residual {r[k]} at the start point u = a, at collocation point "
            f"x = {op.pts[k]!r}: its terms are A C = {(op.A @ C)[k]}, "
            f"s(x) g(a) = {sg[k]} and h(x) = {system.rhs[k]}"
        )
    iters, J = 0, None
    # the stop level is max(tol, floor): the floor matters only above tol,
    # and only where its bound does not already lie below the residual
    while rnorm > tol and (rnorm > _floor_bound(system, sg, C)
                           or rnorm > _floor(system, sg, C)):
        if iters >= max_iters:
            raise NonConvergenceError(rnorm, iters)
        dg = _eval_all(problem.compiled.g_dual, "u", u, "g'(u)")
        sdg = [s * slope for s, (_, slope) in zip(system.s, dg)]
        try:
            J, d = _newton_step(op.A, op.Phi, sdg, r)
        except np.linalg.LinAlgError as err:
            raise SingularJacobianError(iters) from err
        if not all(map(math.isfinite, d.tolist())):
            # refused before a residual at C + t d could warn of inf * 0
            k = int(np.flatnonzero(~np.isfinite(d))[0])
            cause = f"J d = -r gives d[{k}] = {d[k]}"
            bad_rows = np.flatnonzero(~np.isfinite(J).all(axis=1))
            if bad_rows.size:  # only a collocation row s g'(u) Phi can overflow
                k = int(bad_rows[0])
                cause = (f"the Jacobian row at collocation point x = {op.pts[k]!r} "
                         f"overflows, with s(x) g'(u) = {sdg[k]!r} at u = {u[k]!r}")
            raise SolverError(f"Newton step not finite at iteration {iters}: {cause}")
        # damp by halving until the residual norm actually decreases
        t = 1.0
        for _ in range(30):
            Cn = C + t * d if t < 1.0 else C + d
            rn, rn_norm, sgn, un = _residual(problem, system, Cn)
            if rn_norm < rnorm:
                break
            t *= 0.5
        else:
            raise NonConvergenceError(rnorm, iters + 1)
        C, r, sg, u, rnorm = Cn, rn, sgn, un, rn_norm
        iters += 1

    report = SolveReport(C=C, points=op.pts, newton_iters=iters, residual_inf=rnorm, J=J)
    object.__setattr__(report, "problem", problem)
    return report


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
    xs = [float(x) for x in grid]
    bad = [x for x in xs if not 0.0 < x <= 1.0]
    if bad:
        raise ValueError(f"grid point {bad[0]} outside (0, 1]")
    mono = basis.M.T @ coefficient_vector(C, basis)  # monomial coefficients of C^T B
    u_poly = GeneralizedPolynomial.from_terms((c, float(k)) for k, c in enumerate(mono))
    x = np.array(xs)
    def on_grid(poly: GeneralizedPolynomial) -> np.ndarray:
        # term by term in term order, as poly(x) sums them at each point
        return sum((c * x ** e for c, e in poly.terms), np.zeros_like(x))
    d1 = on_grid(fraccalc.caputo_polynomial(u_poly, problem.alpha))
    d2 = on_grid(fraccalc.caputo_polynomial(u_poly, 2.0 * problem.alpha))
    f = problem.compiled
    s = np.array(_eval_all(f.s, "x", xs, "s(x)"))
    g = np.array(_eval_all(f.g, "u", on_grid(u_poly).tolist(), "g(u)"))
    h = np.array(_eval_all(f.h, "x", xs, "h(x)"))
    resid = d2 + problem.lam / x ** problem.alpha * d1 + s * g - h
    return list(zip(xs, resid.tolist()))
