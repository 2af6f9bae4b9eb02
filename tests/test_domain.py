"""The solver over its whole stated domain: the five built-ins with a free
alpha, at alpha = 0.51, 0.52, ..., 1.00 and N = 2..15, 3,500 cells; and a
nonlinear family beyond them, without closed forms, where Newton often
fails."""

from collections import Counter

from fracemden import expr
from fracemden.problems import lane_emden, mixed_power, shifted_power
from fracemden.solver import SolverError, problem_from_strings, solve

BUILT_INS = {
    "lane_emden0": lambda a: lane_emden(0, a),
    "lane_emden1": lambda a: lane_emden(1, a),
    "lane_emden5": lambda a: lane_emden(5, a),
    "mixed_power": mixed_power,
    "shifted_power": shifted_power,
}
ALPHAS = [k / 100 for k in range(51, 101)]
DEGREES = range(2, 16)
TOL = 1e-10  # solve's default


def test_every_cell_converges_or_fails_by_name():
    # a cell returns a report or raises a SolverError that says why; Newton
    # stops on the rounding floor above tol only where the default route's
    # matrices are noisy (alpha < 1, N >= 9), and not far above it.  The
    # loops run alpha, then N, outermost, so each operator is built once
    # for the lambda = 2 and once for the lambda = 1 built-ins
    cells, failed, above_tol = 0, [], []
    for alpha in ALPHAS:
        problems = {name: build(alpha) for name, build in BUILT_INS.items()}
        for N in DEGREES:
            for name, problem in problems.items():
                cells += 1
                try:
                    report = solve(problem, N)
                except SolverError as err:
                    failed.append((name, alpha, N, str(err)))
                    continue
                if report.residual_inf > TOL:
                    above_tol.append((name, alpha, N, report.residual_inf))
    assert cells == 3500
    assert all(message for *_, message in failed), failed
    assert [(name, alpha, N, r) for name, alpha, N, r in above_tol
            if not (alpha < 1 and N >= 9 and r <= 4e-7)] == []


FAMILY_G = ["u^2", "u^3", "u^5", "exp(u)", "sin(u)"]
FAMILY_H = ["10", "1e2", "1e3", "1e4"]
FAMILY_ALPHAS = [0.6, 0.75, 0.9, 1.0]
FAMILY_DEGREES = [4, 6, 8, 10, 12, 15]
FAMILY_CONVERGED = 603  # the recorded count; a change that lowers it says so


def test_nonlinear_family_converges_or_fails_by_name():
    # D^(2a)u + (lambda/x^a) D^(a)u + g(u) = h, u(0) = D^(a)u(0) = 0: g grows
    # with u or is bounded and h > 0, but large h oscillates fast, so some
    # cells are under-resolved.  A cell returns a report, raises a
    # SolverError, or leaves solve as an EvalError where a line-search trial
    # step overflows g; the loops run alpha, then N, outermost, so each
    # operator is built once per lambda
    outcomes = Counter()
    for alpha in FAMILY_ALPHAS:
        problems = [problem_from_strings(alpha, lam, "1", g, h, 0, 0)
                    for g in FAMILY_G for h in FAMILY_H for lam in (0, 2)]
        for N in FAMILY_DEGREES:
            for problem in problems:
                try:
                    solve(problem, N)
                except SolverError as err:
                    assert str(err)
                    outcomes[type(err).__name__] += 1
                except expr.EvalError as err:
                    assert "while evaluating g(u) at u=" in str(err), str(err)
                    outcomes["EvalError"] += 1
                else:
                    outcomes["converged"] += 1
    assert sum(outcomes.values()) == 960
    assert outcomes["converged"] >= FAMILY_CONVERGED, outcomes
