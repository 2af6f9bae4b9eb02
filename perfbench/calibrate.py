"""Regenerate expected.json, the reference errors behind the output checks.

    python3 perfbench/calibrate.py            # rewrite perfbench/expected.json

Each stored error is the max error of today's solver against the exact
solution, on the grid the check uses; workloads.tolerance widens it by
ERROR_MARGIN.  It also lists the alpha-sweep pool points whose solve does
not converge.  Solving all 4000 pool points makes a run take about ten
minutes.  Rerun only when the solver's accuracy is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GRID_START, GRID_STEP, GRID_POINTS = 0.7, 0.0075, 40


def max_error(C, exact) -> float:
    return max(abs(checks.series(C, x) - exact(x)) for x in checks.GRID)


def nonconverging(solver, problems, kind: str) -> list[int]:
    """Pool indices whose alpha-sweep solve raises NonConvergenceError."""
    w = workloads.AlphaSweep
    out = []
    for k in range(w.POOL):
        try:
            solver.solve(getattr(problems, kind)(w.pool_alpha(k)), w.N)
        except solver.NonConvergenceError:
            out.append(k)
    return out


def alpha_sweep(solver, problems) -> dict:
    out = {"grid_start": GRID_START, "grid_step": GRID_STEP,
           "nonconverging": {kind: nonconverging(solver, problems, kind)
                             for kind in workloads.AlphaSweep.KINDS}}
    for kind in workloads.AlphaSweep.KINDS:
        errs = []
        for i in range(GRID_POINTS):
            alpha = GRID_START + i * GRID_STEP
            report = solver.solve(getattr(problems, kind)(alpha), workloads.AlphaSweep.N)
            errs.append(max_error(report.C, getattr(checks, f"{kind}_exact")(alpha)))
        out[kind] = errs
    return out


def nonlinear_family(solver) -> dict:
    w = workloads.NonlinearFamily
    out = {}
    for v in w.variants():
        alpha, g, lam, a, c = v
        p = solver.problem_from_strings(alpha=alpha, lam=lam, s="1", g=g,
                                        h=w.h_source(*v), a=a, b=0.0)
        report = solver.solve(p, w.N)
        out[w.variant_id(*v)] = max_error(report.C, checks.manufactured_exact(alpha, a, c))
    return out


def cli_commands(work: Path) -> dict:
    w = workloads.CliCommands(0, {"cli-commands": {}})
    w.setup(ROOT, work)
    out = {}
    for cmd in w.commands():
        if cmd.args[0] != "solve":
            continue
        result = w.collect(cmd, w.run(w.prepare(cmd)))
        rows = checks.csv_rows(result.files["solution.csv"])[1:]
        name = cmd.args[1].split("/")[-1]
        exact = checks.PROBLEM_FILE_EXACT[name]
        out[name] = max(abs(float(u) - exact(float(x))) for x, u, _, _ in rows)
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fracemden import problems, solver

    work = ROOT / ".perfbench-out" / "calibrate"
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = {
            "alpha-sweep": alpha_sweep(solver, problems),
            "nonlinear-family": nonlinear_family(solver),
            "cli-commands": cli_commands(work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
