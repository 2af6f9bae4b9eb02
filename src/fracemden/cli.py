"""Command-line front end.

Subcommands: ``basis`` (inspect the polynomial family), ``opmatrix``
(print a differentiation matrix), ``solve`` (run a problem file and write
artifacts), ``reproduce`` (regenerate the benchmark tables and compare
against the published reference digits), ``oracle-check`` (validate an
operational matrix against the exact term-wise derivative).

Exit codes: 0 success, 1 numerical failure, 2 usage or domain error
(an --out that cannot be written among them).
All output is deterministic: identical inputs give byte-identical files.

Each command imports the modules it uses when it runs: ``solve`` loads
problems, solver and expr, ``oracle-check`` fraccalc and approx, and
``reproduce`` refdata on top of ``solve``'s, so a fresh interpreter
compiles only those.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .polybasis import build_basis, build_M_int, eval_basis, monomial_to_boubaker_int

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def poly_str(coeffs) -> str:
    """Human form with descending powers, e.g. 'x^3 + x' or 'x^4 - 2', of an
    ascending row of exact integer coefficients."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            term = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _print_matrix(D: np.ndarray, out) -> None:
    for row in D:
        print(" ".join(format(v, ".10g") for v in row), file=out)


# -- subcommands -------------------------------------------------------------


def cmd_basis(args, out) -> int:
    M = build_M_int(build_basis(args.n, force=args.force).N)  # exact integers
    for n, row in enumerate(M):
        print(f"B_{n} = {poly_str(row)}", file=out)
    print("M =", file=out)
    for row in M:
        print(" ".join(map(str, row)), file=out)
    return EXIT_OK


def cmd_opmatrix(args, out) -> int:
    from . import fraccalc

    alpha, N = args.alpha, args.n
    D = fraccalc.build_D(alpha, build_basis(N)).D
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f"col_{j}" for j in range(N + 1)])
        for row in D:
            writer.writerow([_f17(v) for v in row])
    else:
        _print_matrix(D, out)
    return EXIT_OK


def cmd_solve(args, out) -> int:
    from . import expr, problems, solver

    try:
        spec = problems.parse_problem_file(args.problem_file)
    except OSError as err:
        print(f"error: cannot read {args.problem_file}: {err}", file=sys.stderr)
        return EXIT_USAGE
    except problems.ProblemFileError as err:
        print(f"error: {args.problem_file}: {err}", file=sys.stderr)
        return EXIT_USAGE

    opts = {}
    if spec.tol is not None:
        opts["tol"] = spec.tol
    if spec.max_iters is not None:
        opts["max_iters"] = spec.max_iters
    try:
        report = solver.solve(spec.problem, spec.N, **opts)
    except solver.SolverError as err:
        print(f"error: solve failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except expr.EvalError as err:
        print(f"error: expression evaluation failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    sol_rows = report.rows(np.linspace(0.0, 1.0, 101).tolist())
    lines = [
        f"degree bound N = {spec.N}",
        "collocation points = " + " ".join(_f17(x) for x in report.points),
        f"newton iterations = {report.newton_iters}",
        f"residual_inf = {_f17(report.residual_inf)}",
        "cond_J = " + ("none: no Jacobian was factorized" if report.cond_J is None
                       else _f17(report.cond_J)),
    ]
    for w in report.warnings:
        lines.append(f"warning: {w}")
    max_err = None
    if report.error_table is not None:
        lines.append("")
        lines.append("x approx exact abs_error")
        for row in report.error_table:  # x and u_N only where exact is undefined
            lines.append(" ".join(_f17(v) for v in row if v is not None))
        errs = [row[3] for row in report.error_table if row[3] is not None]
        if errs:
            max_err = max(errs)
            lines.append(f"max abs error = {_f17(max_err)}")

    try:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(
            os.path.join(args.out, "coefficients.csv"),
            ["index", "coefficient"],
            [[str(i), _f17(c)] for i, c in enumerate(report.C)],
        )
        _write_csv(
            os.path.join(args.out, "solution.csv"),
            ["x", "u_N", "exact", "abs_error"],
            [["" if v is None else _f17(v) for v in row] for row in sol_rows],
        )
        with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return EXIT_USAGE

    print(f"solved: N={spec.N}, {report.newton_iters} Newton iteration(s), "
          f"residual_inf = {report.residual_inf:.3e}", file=out)
    if max_err is not None:
        print(f"max abs error vs exact = {max_err:.3e}", file=out)
    print(f"artifacts written to {args.out}", file=out)
    return EXIT_OK


# -- reproduce ---------------------------------------------------------------


def _error_status(computed: float, reference: float) -> str:
    if reference == 0.0:
        return "agree" if computed <= 1e-10 else "worse"
    if computed <= 1e-12 and reference <= 1e-12:
        return "agree"
    ratio = computed / reference
    if ratio > 5.0:
        return "worse"
    if ratio < 0.2:
        return "better"
    return "agree"


def _reproduce_error_table(name, cases, grid, reference, out_dir, out):
    """cases: list of (row_label, problem, N); reference: label -> tuple, or
    None where no digits were published, which writes the raw table only."""
    from . import solver

    raw_rows = []
    comp_rows = []
    for label, problem, N in cases:
        errs = [row[3] for row in solver.solve(problem, N).rows(grid)]
        raw_rows.extend([str(label), _f17(x), _f17(e)] for x, e in zip(grid, errs))
        if reference is not None:
            for x, e, r in zip(grid, errs, reference[label]):
                ratio = "" if r == 0 else format(e / r, ".3g")
                comp_rows.append([str(label), _f17(x), _f17(e), _f17(r), ratio,
                                  _error_status(e, r)])
    _write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        ["case", "x", "abs_error"],
        raw_rows,
    )
    if reference is None:
        print(f"{name}: written (no published digits at this degree)", file=out)
        return
    _write_csv(
        os.path.join(out_dir, f"{name}_comparison.csv"),
        ["case", "x", "computed", "reference", "ratio", "status"],
        comp_rows,
    )
    statuses = [row[-1] for row in comp_rows]
    counts = ", ".join(f"{statuses.count(s)} {s}" for s in ("agree", "better", "worse"))
    print(f"{name}: {counts} (of {len(statuses)} cells)", file=out)


def _reproduce_table1(out_dir, out):
    from . import problems, refdata

    grid = refdata.TABLE1["grid"]
    cases = [(m, problems.lane_emden(1), m) for m in (3, 6)]
    _reproduce_error_table("table1", cases, grid,
                           refdata.TABLE1["rows"], out_dir, out)


def _reproduce_table2(out_dir, out):
    from . import problems, refdata

    grid = refdata.TABLE2["grid"]
    cases = [(a, problems.shifted_power(a), 2) for a in (1.0, 0.85, 0.75)]
    print(refdata.FRACTIONAL_NOTE, file=out)
    _reproduce_error_table("table2", cases, grid,
                           refdata.TABLE2["rows"], out_dir, out)


def _reproduce_unknowns(out_dir, out):
    from . import problems, refdata, solver

    print(refdata.IC_NOTE, file=out)
    print(refdata.FRACTIONAL_NOTE, file=out)
    rows = []
    n_agree = n_total = 0
    for alpha in (0.7, 0.8, 1.0):
        report = solver.solve(problems.mixed_power(alpha), 4)
        ref = refdata.UNKNOWNS[alpha]
        tol = 5e-3 if alpha == 1.0 else 5e-2
        for i, (c, r) in enumerate(zip(report.C, ref)):
            diff = abs(c - r)
            status = "agree" if diff <= tol else "disagree"
            n_total += 1
            n_agree += status == "agree"
            rows.append([_f17(alpha), str(i), _f17(c), _f17(r),
                         _f17(diff), _f17(tol), status])
    _write_csv(
        os.path.join(out_dir, "unknowns_comparison.csv"),
        ["alpha", "index", "computed", "reference", "abs_diff", "tol", "status"],
        rows,
    )
    print(f"unknowns: {n_agree}/{n_total} cells agree", file=out)


def _reproduce_table3(out_dir, out):
    from . import problems, refdata

    grid = refdata.TABLE3["grid"]
    print(refdata.IC_NOTE, file=out)
    print(refdata.FRACTIONAL_NOTE, file=out)
    # the published caption and text disagree on the degree; run both
    for N, tag, reference in ((5, "table3_m5", refdata.TABLE3["columns"]),
                              (4, "table3_m4", None)):
        cases = [(a, problems.mixed_power(a), N) for a in (0.7, 0.8, 1.0)]
        _reproduce_error_table(tag, cases, grid, reference, out_dir, out)


def _reproduce_fig3(out_dir, out):
    from . import problems, solver

    problem = problems.exp_square()
    grid = np.linspace(0.0, 1.0, 101).tolist()
    table = {N: solver.solve(problem, N).rows(grid) for N in (4, 6)}
    rows = [list(map(_f17, (x, u4, u6, ex, e4, e6)))
            for (x, u4, ex, e4), (_, u6, _, e6) in zip(table[4], table[6])]
    max_err = {N: max(row[3] for row in t) for N, t in table.items()}
    _write_csv(
        os.path.join(out_dir, "fig3_data.csv"),
        ["x", "u_N4", "u_N6", "exact", "abs_err_N4", "abs_err_N6"],
        rows,
    )
    print(f"fig3-data: max abs error N=4: {max_err[4]:.3e}, "
          f"N=6: {max_err[6]:.3e} "
          f"({'smaller at N=6' if max_err[6] < max_err[4] else 'NOT smaller at N=6'})",
          file=out)


_REPRODUCE_TARGETS = {
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
    "unknowns": _reproduce_unknowns,
    "table3": _reproduce_table3,
    "fig3-data": _reproduce_fig3,
}


def cmd_reproduce(args, out) -> int:
    targets = list(_REPRODUCE_TARGETS) if args.target == "all" else [args.target]
    try:
        os.makedirs(args.out, exist_ok=True)
        for t in targets:
            _REPRODUCE_TARGETS[t](args.out, out)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# -- oracle-check ------------------------------------------------------------


def cmd_oracle_check(args, out) -> int:
    from . import approx, fraccalc

    alpha, N = args.alpha, args.n
    basis = build_basis(N)
    D = fraccalc.build_D(alpha, basis).D
    ca = math.ceil(alpha)
    ok = True

    zero_dev = float(np.max(np.abs(D[:ca])))
    line = "PASS" if zero_dev == 0.0 else "FAIL"
    ok &= zero_dev == 0.0
    print(f"[{line}] rows below ceil(alpha) exactly zero (max |entry| = {zero_dev:g})",
          file=out)

    if float(alpha).is_integer():
        worst = 0.0
        to_basis = monomial_to_boubaker_int(N)
        for n in range(N + 1):
            image = fraccalc.caputo_polynomial(basis.polys[n], alpha)
            mono = np.zeros(N + 1)
            for c, e in image.terms:
                mono[int(e)] = c
            row = (mono @ to_basis).astype(float)  # basis coordinates of the image
            worst = max(worst, float(np.max(np.abs(D[n] - row))))
        good = worst <= 1e-9
        ok &= good
        print(f"[{'PASS' if good else 'FAIL'}] integer-order exactness "
              f"(max deviation from term-wise derivative = {worst:.3e})", file=out)

    # On each graded quadrature panel, Phi holds B(x) at its nodes and R the
    # projection residuals x^(i-alpha) - e_i^T B(x) of rows i >= ceil(alpha).
    # Evaluating e_i^T B(x) in double carries an absolute error up to
    # eps * sum_j |E_ij||B_j(x)|; its maximum over the nodes is the rounding
    # floor that a failing orthogonality line names.
    E = fraccalc.build_E(alpha, basis)[ca:]
    expnts = np.arange(ca, N + 1) - alpha
    orth = np.zeros((len(expnts), N + 1))  # <residual_i, B_j>
    sq = np.zeros(len(expnts))  # |residual_i|_L2^2
    scale = 0.0  # max_x sum_j |E_ij||B_j(x)|
    for xs, ws in approx._quad_nodes(True):
        Phi = eval_basis(xs, basis)
        R = xs[:, None] ** expnts - Phi @ E.T
        orth += (ws[:, None] * R).T @ Phi
        sq += ws @ (R * R)
        scale = max(scale, float(np.max(np.abs(Phi) @ np.abs(E).T)))
    worst_orth = float(np.max(np.abs(orth)))
    bound = 1e-8
    good = worst_orth <= bound
    ok &= good
    line = (f"[{'PASS' if good else 'FAIL'}] projection-residual orthogonality "
            f"(max |<residual, B_j>| = {worst_orth:.3e})")
    if not good:
        line += (f" > bound {bound:g}; rounding floor "
                 f"eps*max_x sum_j |E_ij||B_j(x)| = {np.finfo(float).eps * scale:.3e}")
    print(line, file=out)

    for i, expnt, l2 in zip(range(ca, N + 1), expnts, np.sqrt(np.maximum(sq, 0.0))):
        print(f"  projection residual |x^{expnt:g} - e_{i}^T B|_L2 = {l2:.3e}",
              file=out)

    print("PASS" if ok else "FAIL", file=out)
    return EXIT_OK if ok else EXIT_NUMERICAL


# -- driver ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracemden",
        description="Spectral collocation solver for singular fractional "
                    "Emden-Fowler initial-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print the polynomial family and its matrix")
    p.add_argument("--n", type=int, required=True, help="degree bound")
    p.add_argument("--force", action="store_true",
                   help="allow degrees beyond the conditioning cap")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("opmatrix", help="print a fractional differentiation matrix")
    p.add_argument("--alpha", type=float, required=True, help="order in (0, 2]")
    p.add_argument("--n", type=int, required=True, help="degree bound")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_opmatrix)

    p = sub.add_parser("solve", help="solve a problem file and write artifacts")
    p.add_argument("problem_file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce", help="regenerate the benchmark tables")
    p.add_argument("--target", required=True,
                   choices=tuple(_REPRODUCE_TARGETS) + ("all",))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("oracle-check",
                       help="validate an operational matrix against the exact derivative")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.func(args, out)
    except ValueError as err:
        # domain errors raised by the library itself: fraccalc._check_order
        # (order range, ceil(alpha) <= N) and build_basis (degree bound and cap)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
