"""The solver over its whole stated domain: the five built-ins with a free
alpha, at alpha = 0.51, 0.52, ..., 1.00 and N = 2..15, 3,500 cells."""

from fracemden.problems import lane_emden, mixed_power, shifted_power
from fracemden.solver import SolverError, solve

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
