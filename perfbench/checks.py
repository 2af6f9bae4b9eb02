"""Output checks computed apart from fracemden.

Nothing here imports the package: Boubaker values come from the three-term
recurrence, exact solutions from ``math``, and CSV files are read as text.
Every check returns a list of problems found; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import io
import math

# u(0) = a is enforced through one row of the Newton residual, which stops
# at 1e-10 in the infinity norm; 1e-9 leaves room for the evaluation.
IC_TOL = 1e-9
# Where the exact solution lies in the basis span (alpha = 1 with a
# polynomial solution) the solve recovers it to rounding level.
ROUNDING_TOL = 1e-9
# Error-check grid: 21 uniform points on [0, 1].
GRID = tuple(k / 20 for k in range(21))


def boubaker_values(x: float, N: int) -> list[float]:
    """[B_0(x), ..., B_N(x)] from B_0 = 1, B_1 = x, B_2 = x^2 + 2 and
    B_m = x B_{m-1} - B_{m-2} for m >= 3."""
    vals = [1.0, x, x * x + 2.0][: N + 1]
    for m in range(3, N + 1):
        vals.append(x * vals[m - 1] - vals[m - 2])
    return vals


def series(C, x: float) -> float:
    """u_N(x) = sum_m C_m B_m(x)."""
    B = boubaker_values(x, len(C) - 1)
    return math.fsum(float(c) * b for c, b in zip(C, B))


def check_solution(C, exact, a: float, tol: float) -> list[str]:
    """Max error of u_N against exact on GRID is at most tol, and
    u_N(0) = a to IC_TOL."""
    issues = []
    u0 = series(C, 0.0)
    if not abs(u0 - a) <= IC_TOL:
        issues.append(f"u_N(0) = {u0!r}, expected a = {a!r}")
    err = max(abs(series(C, x) - exact(x)) for x in GRID)
    if not err <= tol:
        issues.append(f"max error {err:.3e} exceeds tolerance {tol:.3e}")
    return issues


# -- exact solutions ----------------------------------------------------------


def mixed_power_exact(alpha: float):
    return lambda x: 1.0 + x ** (2 * alpha) + x ** (3 * alpha)


def shifted_power_exact(alpha: float):
    return lambda x: 3.0 + x ** (2 * alpha)


def manufactured_exact(alpha: float, a: float, c: float):
    return lambda x: a + c * x ** (2 * alpha)


def _sinc(x: float) -> float:
    return math.sin(x) / x if x != 0.0 else 1.0


# Closed-form solution of each problems/*.prob file the CLI workload solves.
PROBLEM_FILE_EXACT = {
    "exp_square.prob": lambda x: math.exp(x * x),
    "lane_emden_n0.prob": lambda x: 1.0 - x * x / 6.0,
    "lane_emden_n1.prob": _sinc,
    "lane_emden_n5.prob": lambda x: (1.0 + x * x / 3.0) ** -0.5,
    "mixed_power_alpha07.prob": mixed_power_exact(0.7),
    "mixed_power_alpha1.prob": mixed_power_exact(1.0),
    "shifted_power_alpha1.prob": shifted_power_exact(1.0),
}


# -- CLI artifacts ------------------------------------------------------------


def csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def check_solve_artifacts(files: dict[str, bytes], problem_file: str, tol: float) -> list[str]:
    """solution.csv of `fracemden solve`: its u_N column matches the series
    in coefficients.csv, its exact column matches the closed form, its
    abs_error column is |u_N - exact|, and the error is within tol."""
    issues = []
    for name in ("coefficients.csv", "solution.csv", "report.txt"):
        if name not in files:
            issues.append(f"{name} not written")
    if issues:
        return issues
    coef_rows = csv_rows(files["coefficients.csv"])
    sol_rows = csv_rows(files["solution.csv"])
    if (coef_rows[0] != ["index", "coefficient"]
            or sol_rows[0] != ["x", "u_N", "exact", "abs_error"]):
        return ["unexpected CSV header"]
    C = [float(r[1]) for r in coef_rows[1:]]
    exact = PROBLEM_FILE_EXACT[problem_file]
    if len(sol_rows) != 102:
        return [f"solution.csv has {len(sol_rows) - 1} rows, expected 101"]
    worst = 0.0
    for i, (xs, us, es, errs) in enumerate(sol_rows[1:]):
        x, u = float(xs), float(us)
        if not math.isclose(x, i / 100, abs_tol=1e-15):
            issues.append(f"grid point {i} is {xs}")
        if not _close(u, series(C, x), 1e-12):
            issues.append(f"u_N({xs}) = {us} disagrees with the coefficients")
        ex = exact(x)
        if es == "":
            # sin(x)/x cannot be evaluated at 0 by the expression language
            if not (problem_file == "lane_emden_n1.prob" and x == 0.0 and errs == ""):
                issues.append(f"exact value missing at x = {xs}")
        else:
            if not _close(float(es), ex, 1e-13):
                issues.append(f"exact({xs}) = {es}, expected {ex!r}")
            if float(errs) != abs(u - float(es)):
                issues.append(f"abs_error at x = {xs} is not |u_N - exact|")
        worst = max(worst, abs(u - ex))
    if not worst <= tol:
        issues.append(f"max error {worst:.3e} exceeds tolerance {tol:.3e}")
    return issues


def check_fig3(files: dict[str, bytes]) -> list[str]:
    """fig3_data.csv: exact column is exp(x^2), the error columns match the
    solution columns, and the max error is smaller at N = 6 than at N = 4."""
    if "fig3_data.csv" not in files:
        return ["fig3_data.csv not written"]
    rows = csv_rows(files["fig3_data.csv"])
    if rows[0] != ["x", "u_N4", "u_N6", "exact", "abs_err_N4", "abs_err_N6"]:
        return ["unexpected CSV header"]
    issues = []
    e4 = e6 = 0.0
    for r in rows[1:]:
        x, u4, u6, ex = (float(v) for v in r[:4])
        if not _close(ex, math.exp(x * x), 1e-13):
            issues.append(f"exact({r[0]}) = {r[3]}, expected exp(x^2)")
        if float(r[4]) != abs(u4 - ex) or float(r[5]) != abs(u6 - ex):
            issues.append(f"error columns at x = {r[0]} do not match")
        e4 = max(e4, abs(u4 - math.exp(x * x)))
        e6 = max(e6, abs(u6 - math.exp(x * x)))
    if not e6 < e4:
        issues.append(f"max error at N=6 ({e6:.3e}) not below N=4 ({e4:.3e})")
    return issues


def check_oracle(stdout: bytes) -> list[str]:
    lines = stdout.decode("utf-8").splitlines()
    if not lines or lines[-1] != "PASS":
        return ["oracle-check did not print PASS"]
    return []
