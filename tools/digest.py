"""Digest a checkout's artifacts and library solves, or compare two digests.

    python tools/digest.py SRC_ROOT OUT_DIR
    python tools/digest.py --diff BASE_DIR HEAD_DIR

The first fills an empty OUT_DIR with lines.txt (wc -l of src/fracemden/*.py),
the artifacts, stdout and exit status (status.txt) of each command below, run
in a fresh interpreter with PYTHONPATH exactly SRC_ROOT/src, solves.txt and
projections.txt; it exits 1 if a command failed.  The second prints a
Markdown summary of every difference but the line counts, and exits 1 if
there is one.
"""

import argparse
import csv
import difflib
import itertools
import math
import os
import random
import subprocess
import sys
from functools import partial
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # problems/ and perfbench/ come from here
CLI = "import sys; from fracemden.cli import main; sys.exit(main(sys.argv[1:]))"
# the next four are build_E's edge orders: the smallest positive order,
# the order just above 1, a single nonzero row and the largest entries; the
# last is an integer order below 2: exact integers, one zero row and the
# columns of M scaled by the degree
OPMATRIX_KEYS = [("0.7041709495205126", "15"), ("0.7", "10"), ("1.5", "8"), ("2.0", "15"),
                 ("5e-324", "15"), ("1.0000000000000002", "4"), ("2.0", "2"), ("0.5", "15"),
                 ("1.0", "15")]
# problem_from_strings arguments and N of solves accepted at their start point
START_ACCEPTED = [((1.0, 0.0, "1", "sqrt(u)", "0", 0.0, 0.0), 4),
                  ((0.7, 1.0, "1", "u", "0", 0.0, 0.0), 6),
                  ((0.8, 0.0, "x", "u^3", "0", 0.0, 0.0), 10)]
# the b contract at lambda = 0: b = u'(0) = 1 is refused below alpha = 1 and solved at it
B_CONTRACT = [((alpha, 0.0, "0", "u", "0", 1.0, 1.0), 4) for alpha in (0.7, 0.9, 1.0)]
# the line search finds no lower residual: at rounding level, and far above it
LINE_SEARCH_STOPS = [((0.75, 0.0, "1", "u^2", "1e4", 0.0, 0.0), 4),
                     ((1.0, 1.0, "1", "-u^2", "-1e4", 2.0, 0.0), 4)]


def commands():
    """(argv, --out directory or None, file for stdout or None) of each command"""
    yield ["reproduce", "--target", "all"], "reproduce", "reproduce.stdout"
    for prob in sorted((ROOT / "problems").glob("*.prob")):
        yield ["solve", f"problems/{prob.name}"], f"solve/{prob.stem}", None
    for a, n in OPMATRIX_KEYS:
        argv = ["opmatrix", "--alpha", a, "--n", n, "--format", "csv"]
        yield argv, None, f"opmatrix/alpha{a}_n{n}.csv"
    yield ["basis", "--n", "15"], None, "stdout/basis_n15.txt"
    yield ["basis", "--n", "40", "--force"], None, "stdout/basis_n40_force.txt"
    for a, n in ("0.7", "6"), ("1.0", "6"):
        yield ["oracle-check", "--alpha", a, "--n", n], None, f"stdout/oracle_alpha{a}_n{n}.txt"


def import_package(src):
    """Put src/src (and perfbench/, read only) first on sys.path; exit unless
    fracemden then comes from there."""
    sys.path[:0] = [str(src / "src"), str(ROOT / "perfbench")]
    import fracemden
    if not Path(fracemden.__file__).resolve().is_relative_to((src / "src").resolve()):
        sys.exit(f"error: fracemden was imported from {fracemden.__file__}, not {src / 'src'}")


def solve_lines():
    """2,096 solves: the nonlinear family and every 10th alpha-sweep pool alpha
    of perfbench/, lane_emden n = 1, 5 at alpha = 0.51..1.00 and N = 2..15,
    START_ACCEPTED, B_CONTRACT and LINE_SEARCH_STOPS.  A line holds the sha256
    of C, the iterations, residual_inf, the sha256 of repr(error_table) and
    of J (or "none"), or the error raised, a refused problem's ValueError
    included; a built-in's line adds the sha256 of repr(problem)."""
    from fracemden import expr, problems, solver
    from workloads import AlphaSweep, NonlinearFamily

    def line(label, make, N, built_in=False):
        try:
            problem = make()
            r = solver.solve(problem, N)
        except (ValueError, solver.SolverError, expr.EvalError) as err:
            text = f"{label}: {type(err).__name__}: {err}"
        else:
            J = "none" if r.J is None else sha256(r.J.tobytes()).hexdigest()
            text = (f"{label}: {sha256(r.C.tobytes()).hexdigest()} {r.newton_iters} "
                    f"{r.residual_inf!r} {sha256(repr(r.error_table).encode()).hexdigest()} {J}")
        return f"{text} {sha256(repr(problem).encode()).hexdigest()}" if built_in else text

    nf = NonlinearFamily  # s = 1 and a forcing that makes u* = a + c x^(2 alpha) exact
    for v in nf.variants():
        alpha, g, lam, a, c = v
        make = partial(solver.problem_from_strings, alpha, lam, "1", g, nf.h_source(*v), a, 0.0)
        yield line(f"{nf.variant_id(*v)} N={nf.N}", make, nf.N)
    for kind in AlphaSweep.KINDS:
        for alpha in map(AlphaSweep.pool_alpha, range(0, AlphaSweep.POOL, 10)):
            yield line(f"{kind}({alpha!r}) N={AlphaSweep.N}",
                       partial(getattr(problems, kind), alpha), AlphaSweep.N, built_in=True)
    # about 300 of these 1,400 stop on the rounding floor above tol
    for n, k, N in itertools.product((1, 5), range(51, 101), range(2, 16)):
        yield line(f"lane_emden({n}, {k / 100!r}) N={N}", partial(problems.lane_emden, n, k / 100),
                   N, True)
    for args, N in START_ACCEPTED + B_CONTRACT + LINE_SEARCH_STOPS:
        yield line(f"problem_from_strings{args!r} N={N}",
                   partial(solver.problem_from_strings, *args), N)


def projection_lines():
    """sha256 of approx.project(f, build_basis(N)), or the error raised, for
    N = 0..15 and four f: a series in the span with random.Random(N)
    coefficients (the exact route), exp (the Legendre route), x^0.3 flagged
    singular at 0, and a non-finite sample."""
    from fracemden import approx
    from fracemden.polybasis import build_basis, eval_series

    def in_span(N):
        basis = build_basis(N)
        rng = random.Random(N)
        C = [rng.uniform(-1.0, 1.0) for _ in range(N + 1)]
        return lambda x: eval_series(C, x, basis)

    inputs = [("in_span", in_span, False), ("exp", lambda N: math.exp, False),
              ("x^0.3", lambda N: lambda x: x ** 0.3, True),
              ("x*inf", lambda N: lambda x: x * math.inf, False)]
    for label, make, singular in inputs:
        for N in range(16):
            try:
                C = approx.project(make(N), build_basis(N), singular_at_zero=singular)
            except (approx.EvaluationError, ArithmeticError, ValueError) as err:
                text = f"{type(err).__name__}: {err}"
            else:
                text = sha256(C.tobytes()).hexdigest()
            yield f"{label} N={N}: {text}"


def digest(src, out):
    """Write the digest of src to out; False if a command exited non-zero."""
    for d in "opmatrix", "stdout":
        (out / d).mkdir(parents=True, exist_ok=True)
    with open(out / "lines.txt", "wb") as fh:
        subprocess.run("wc -l src/fracemden/*.py", shell=True, stdout=fh, cwd=src, check=True)
    env, status = dict(os.environ, PYTHONPATH=str(src / "src")), []
    for argv, out_dir, stdout in commands():
        extra = ["--out", str(out / out_dir)] if out_dir else []
        with open(out / stdout if stdout else os.devnull, "wb") as fh:
            proc = subprocess.run([sys.executable, "-c", CLI, *argv, *extra],
                                  stdout=fh, env=env, cwd=ROOT)
        status.append(f"{proc.returncode} {' '.join(argv)}\n")
    (out / "status.txt").write_text("".join(status))
    import_package(src)
    for name, lines in ("solves.txt", solve_lines()), ("projections.txt", projection_lines()):
        (out / name).write_text("".join(s + "\n" for s in lines), encoding="utf-8")
    return all(s.startswith("0 ") for s in status)


def csv_delta(old, new):
    rows_old, rows_new = (list(csv.reader(f.open(encoding="utf-8"))) for f in (old, new))
    if [len(r) for r in rows_old] != [len(r) for r in rows_new]:
        return "rows or columns changed"
    worst, notes = 0.0, set()
    for cell_old, cell_new in zip(*map(itertools.chain.from_iterable, (rows_old, rows_new))):
        try:
            delta = 0.0 if cell_old == cell_new else abs(float(cell_new) - float(cell_old))
        except ValueError:
            notes.add("text cells differ too")
            continue
        if math.isfinite(delta):
            worst = max(worst, delta)
        else:
            notes.add("non-finite cells differ too")
    return "; ".join([f"max |delta| = {worst:.3g}", *sorted(notes)])


def compare(base, head):
    """Print the summary of head against base; 1 if anything but the line counts differs."""
    counts = {side: (d / "lines.txt").read_text() for side, d in (("base", base), ("head", head))}
    print("Lines in `src/fracemden/*.py` (`wc -l` total): "
          + ", ".join(f"{side} {text.split()[-2]}" for side, text in counts.items()) + ".")
    for side, text in counts.items():
        print(f"`wc -l src/fracemden/*.py` at the {side} commit:\n```\n{text}```")
    fb, fh = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} - {"lines.txt"}
              for d in (base, head))
    changed = [n for n in sorted(fb & fh) if (base / n).read_bytes() != (head / n).read_bytes()]
    if not changed and fb == fh:
        print("Every artifact, stdout, exit status, library solve and projection: "
              "byte-identical to the base.")
        return 0
    print("Files that differ from the base commit:\n```")
    for n in sorted(fb ^ fh | set(changed)):
        print(f"{'differ' if n in changed else 'only in base' if n in fb else 'only in head'}: {n}")
    print("```")
    if csvs := [n for n in changed if n.endswith(".csv")]:
        print("Largest absolute numeric difference in each CSV that differs:\n```")
        print(*(f"{n}: {csv_delta(base / n, head / n)}" for n in csvs), sep="\n")
        print("```")
    if texts := [n for n in changed if n not in csvs]:
        print("Changes in each other file that differs (`diff -u`, first 40 lines of each; "
              "solves.txt in full, without context):")
    for n in texts:
        old, new = ((d / n).read_text(encoding="utf-8").splitlines(True) for d in (base, head))
        solves = n == "solves.txt"
        diff = list(difflib.unified_diff(old, new, f"base/{n}", f"head/{n}", n=0 if solves else 3))
        print("```diff\n" + "".join(diff if solves else diff[:40]) + "```")
    return 1


def main():
    parser = argparse.ArgumentParser(
        usage="%(prog)s SRC_ROOT OUT_DIR | %(prog)s --diff BASE_DIR HEAD_DIR")
    parser.add_argument("--diff", action="store_true")
    parser.add_argument("dirs", nargs=2, type=Path)
    args = parser.parse_args()
    first, second = (d.resolve() for d in args.dirs)
    if args.diff:
        if not all((d / "lines.txt").is_file() for d in (first, second)):
            parser.error("--diff wants two directories written by this script")
        return compare(first, second)
    if not (first / "src" / "fracemden" / "__init__.py").is_file():
        parser.error(f"{first} has no src/fracemden/__init__.py")
    if second.exists() and any(second.iterdir()):
        parser.error(f"{second} is not empty")
    return 0 if digest(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
