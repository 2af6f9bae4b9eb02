"""One line per library solve, for comparing two checkouts of fracemden.

    python tools/solve_digest.py SRC_ROOT > digest.txt

imports fracemden from SRC_ROOT/src and the benchmark's problem
definitions from the perfbench/ next to this script, then solves 2,088
problems: the 288 nonlinear-family problems at N = 6, every 10th point of
the alpha-sweep pool of both linear built-ins at N = 10, and lane_emden
n = 1, 5 at alpha = 0.51..1.00 and N = 2..15.  Each line holds the sha256
of C, the Newton iterations, residual_inf and the sha256 of
repr(error_table), or the error a solve raised; a built-in's line adds the
sha256 of repr(problem), so construction is compared as well as solving.
Two source roots that solve alike print identical files.
"""

import hashlib
import sys
from pathlib import Path

if len(sys.argv) != 2:
    sys.exit(f"usage: python {sys.argv[0]} SRC_ROOT")
sys.path[:0] = [str(Path(sys.argv[1]) / "src"),
                str(Path(__file__).resolve().parent.parent / "perfbench")]

from workloads import AlphaSweep, NonlinearFamily  # noqa: E402  (read only)
from fracemden import expr, problems, solver  # noqa: E402


def line(label, problem, N):
    try:
        r = solver.solve(problem, N)
    except (solver.SolverError, expr.EvalError) as err:
        return f"{label}: {type(err).__name__}: {err}"
    table = hashlib.sha256(repr(r.error_table).encode()).hexdigest()
    return f"{label}: {hashlib.sha256(r.C.tobytes()).hexdigest()} {r.newton_iters} {r.residual_inf!r} {table}"


def built_in(label, problem, N):
    return f"{line(label, problem, N)} {hashlib.sha256(repr(problem).encode()).hexdigest()}"


def main():
    # the benchmark's nonlinear family: s = 1 and a forcing that makes
    # u* = a + c x^(2 alpha) exact, 288 problems at N = 6
    nf = NonlinearFamily
    for v in nf.variants():
        alpha, g, lam, a, c = v
        problem = solver.problem_from_strings(alpha, lam, "1", g, nf.h_source(*v), a, 0.0)
        print(line(f"{nf.variant_id(*v)} N={nf.N}", problem, nf.N))
    # every 10th point of the alpha-sweep pool of both linear built-ins, N = 10
    for kind in AlphaSweep.KINDS:
        for k in range(0, AlphaSweep.POOL, 10):
            alpha = AlphaSweep.pool_alpha(k)
            print(built_in(f"{kind}({alpha!r}) N={AlphaSweep.N}",
                           getattr(problems, kind)(alpha), AlphaSweep.N))
    # lane_emden(1) and (5) over the supported domain, alpha = 0.51, ..., 1.00
    # and N = 2..15: about 300 of these 1,400 stop on the rounding floor above tol
    for n in (1, 5):
        for k in range(51, 101):
            for N in range(2, 16):
                print(built_in(f"lane_emden({n}, {k / 100!r}) N={N}",
                               problems.lane_emden(n, k / 100), N))


if __name__ == "__main__":
    main()
