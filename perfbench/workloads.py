"""The three benchmark workloads.

Each workload turns a seed into a fixed stream of rounds of operations, so
every run with that seed does the same work.  ``run`` is the timed part of
an operation; ``check`` validates its output with ``checks`` afterwards,
outside the timed region.

alpha-sweep       solver.solve on the linear closed-form problems at N = 10,
                  a fresh alpha in [0.7, 1.0) for every solve: no (alpha, N)
                  operator is ever requested twice in a process; 40 solves
                  per round.
nonlinear-family  solver.solve on 96 manufactured nonlinear problems at each
                  of three alphas (N = 6); every round is a seeded
                  permutation of all 288, so each (alpha, N) key recurs.
cli-commands      the CLI in a fresh interpreter per command, 20 commands
                  per round in a seeded order.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks

# A stored reference error is widened by this factor to give a tolerance;
# no tolerance is tighter than checks.ROUNDING_TOL.
ERROR_MARGIN = 2.0


def tolerance(reference_error: float) -> float:
    return max(ERROR_MARGIN * reference_error, checks.ROUNDING_TOL)


class OperationFailed(Exception):
    """The program raised or exited with an error on one operation."""


@dataclass(frozen=True)
class SolveOp:
    label: str
    problem: object
    N: int
    exact: object
    a: float
    tol: float


class _LibraryWorkload:
    """Operations are in-process calls of fracemden.solver.solve."""

    spawns = False
    artifact_bytes = 0  # nothing is written to files

    def setup(self, root: Path, work: Path) -> None:
        from fracemden import expr, problems, solver

        self.problems = problems
        self.solver = solver
        self._errors = (solver.SolverError, expr.EvalError)

    def rounds_left(self) -> float:
        return math.inf

    def peak_rss_kb(self) -> int:
        """Every solve runs in this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def prepare(self, op: SolveOp) -> SolveOp:
        return op

    def collect(self, op: SolveOp, report):
        return report

    def run(self, op: SolveOp):
        try:
            return self.solver.solve(op.problem, op.N)
        except self._errors as err:
            raise OperationFailed(f"{op.label}: {err}") from err

    def check(self, op: SolveOp, report) -> list[str]:
        return [f"{op.label}: {m}" for m in checks.check_solution(report.C, op.exact, op.a, op.tol)]


class AlphaSweep(_LibraryWorkload):
    name = "alpha-sweep"
    N = 10
    ALPHA_LO, ALPHA_HI = 0.7, 1.0
    KINDS = ("mixed_power", "shifted_power")
    # alpha comes from a fixed pool of POOL points per problem, spread
    # evenly over [0.7, 1.0).  Newton's final residual comes near its
    # 1e-10 tolerance across most of that range, and a few alphas fail to
    # reach it.  So calibrate.py solves every pool point, and
    # expected.json lists those that do not converge; they are never drawn.
    POOL = 2000
    # A round draws one unused pool point in each of STRATA equal slices of
    # the range for each problem.  Cost and Newton iterations depend on
    # alpha, so every round, whatever the seed, has the same mix of cheap
    # and dear solves.  A process can run POOL / STRATA rounds; the timed
    # loop ends early, at a round boundary, if it uses them all.
    STRATA = 20

    def __init__(self, seed: int, expected: dict):
        self.ref = expected[self.name]
        self.rng = random.Random(f"{self.name}:{seed}:")
        per = self.POOL // self.STRATA
        self.unused = {}
        for kind in self.KINDS:
            skip = set(self.ref["nonconverging"][kind])
            slices = []
            for i in range(self.STRATA):
                ks = [k for k in range(i * per, (i + 1) * per) if k not in skip]
                self.rng.shuffle(ks)
                slices.append(ks)
            self.unused[kind] = slices

    @classmethod
    def pool_alpha(cls, k: int) -> float:
        return cls.ALPHA_LO + (cls.ALPHA_HI - cls.ALPHA_LO) * (k + 0.5) / cls.POOL

    def rounds_left(self) -> int:
        return min(len(ks) for slices in self.unused.values() for ks in slices)

    def reference_error(self, kind: str, alpha: float) -> float:
        """Error at the grid point at or below alpha; the error falls
        monotonically in alpha, so that point bounds the whole cell."""
        i = int((alpha - self.ref["grid_start"]) / self.ref["grid_step"])
        errs = self.ref[kind]
        return errs[min(max(i, 0), len(errs) - 1)]

    def round(self) -> list[SolveOp]:
        ops = []
        for kind in self.KINDS:
            for ks in self.unused[kind]:
                if not ks:
                    raise RuntimeError("alpha pool exhausted: raise AlphaSweep.POOL")
                alpha = self.pool_alpha(ks.pop())
                ops.append(SolveOp(
                    f"{kind}({alpha!r})", getattr(self.problems, kind)(alpha), self.N,
                    getattr(checks, f"{kind}_exact")(alpha),
                    1.0 if kind == "mixed_power" else 3.0,
                    tolerance(self.reference_error(kind, alpha)),
                ))
        self.rng.shuffle(ops)
        return ops


class NonlinearFamily(_LibraryWorkload):
    name = "nonlinear-family"
    N = 6
    ALPHAS = (0.75, 0.9, 1.0)
    G = ("u^3", "u^5", "exp(u)", "sin(u)")
    LAMBDAS = (0.5, 1.0, 2.0)
    A = (0.5, 1.0)
    C = (-0.5, -0.25, 0.25, 0.5)

    def __init__(self, seed: int, expected: dict):
        self.rng = random.Random(f"{self.name}:{seed}:")
        self.ref = expected[self.name]

    @classmethod
    def variants(cls):
        for alpha in cls.ALPHAS:
            for g in cls.G:
                for lam in cls.LAMBDAS:
                    for a in cls.A:
                        for c in cls.C:
                            yield alpha, g, lam, a, c

    @staticmethod
    def variant_id(alpha, g, lam, a, c) -> str:
        return f"{alpha}|{g}|{lam}|{a}|{c}"

    @staticmethod
    def h_source(alpha, g, lam, a, c) -> str:
        """Forcing that makes u* = a + c x^(2 alpha) exact with s = 1:
        D^(2a) u* = c G(1+2a) and (lam/x^a) D^(a) u* = lam c G(1+2a)/G(1+a)."""
        a1, a2 = repr(float(alpha)), repr(2.0 * alpha)
        ustar = f"({a!r} + {c!r}*x^{a2})"
        return (
            f"{c!r}*gamma(1 + {a2}) + {lam!r}*{c!r}*gamma(1 + {a2})/gamma(1 + {a1})"
            f" + {g.replace('u', ustar)}"
        )

    def setup(self, root: Path, work: Path) -> None:
        super().setup(root, work)
        self.ops = []
        for v in self.variants():
            alpha, g, lam, a, c = v
            problem = self.solver.problem_from_strings(
                alpha=alpha, lam=lam, s="1", g=g, h=self.h_source(*v), a=a, b=0.0,
            )
            vid = self.variant_id(*v)
            self.ops.append(SolveOp(
                vid, problem, self.N, checks.manufactured_exact(alpha, a, c), a,
                tolerance(self.ref[vid]),
            ))

    def round(self) -> list[SolveOp]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    writes_dir: bool


@dataclass
class CommandResult:
    stdout: bytes
    files: dict[str, bytes]


class CliCommands:
    name = "cli-commands"
    spawns = True
    PROBLEM_FILES = tuple(sorted(checks.PROBLEM_FILE_EXACT))
    TARGETS = ("table1", "table2", "unknowns", "table3", "fig3-data")
    # (alpha, N): two light, two medium and four heavy checks, so that the
    # heavy ones fill the top fifth of a round and p90 falls inside them
    ORACLE = (("0.75", "3"), ("0.95", "3"), ("0.7", "4"), ("0.85", "4"),
              ("0.6", "6"), ("0.7", "6"), ("0.8", "6"), ("0.9", "6"))
    RUN_CLI = "from fracemden.cli import entrypoint; entrypoint()"

    def __init__(self, seed: int, expected: dict):
        self.rng = random.Random(f"{self.name}:{seed}:")
        self.ref = expected[self.name]
        self.first_digest: dict[str, str] = {}
        # set to a directory to run each command under clichild.py, which
        # writes the command's spans to the next numbered file there
        self.trace_dir: Path | None = None
        self.launched = 0
        self.artifact_bytes = 0
        self.max_child_rss_kb = 0

    @classmethod
    def commands(cls) -> list[Command]:
        cmds = [Command(f"solve-{f[:-5]}", ("solve", f"problems/{f}"), True)
                for f in cls.PROBLEM_FILES]
        cmds += [Command(f"reproduce-{t}", ("reproduce", "--target", t), True)
                 for t in cls.TARGETS]
        cmds += [Command(f"oracle-{a}-{n}", ("oracle-check", "--alpha", a, "--n", n), False)
                 for a, n in cls.ORACLE]
        return cmds

    def setup(self, root: Path, work: Path) -> None:
        self.root, self.work = root, work
        work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cmds = self.commands()

    def rounds_left(self) -> float:
        return math.inf

    def peak_rss_kb(self) -> int:
        """The largest resident set of the CLI interpreters run so far."""
        return self.max_child_rss_kb

    def round(self) -> list[Command]:
        cmds = list(self.cmds)
        self.rng.shuffle(cmds)
        return cmds

    def prepare(self, cmd: Command) -> list[str]:
        """Untimed: clear the command's output directory, build its argv."""
        argv = list(cmd.args)
        if cmd.writes_dir:
            out = self.work / cmd.name
            shutil.rmtree(out, ignore_errors=True)
            argv += ["--out", str(out.relative_to(self.root))]
        self.launched += 1
        if self.trace_dir is None:
            return [sys.executable, "-c", self.RUN_CLI, *argv]
        trace_file = self.trace_dir / f"{self.launched:06d}.json"
        child = Path(__file__).resolve().parent / "clichild.py"
        return [sys.executable, str(child), str(trace_file), *argv]

    def run(self, argv: list[str]) -> bytes:
        # stderr goes to a file, so that reading stdout to its end cannot
        # block; the child is reaped with wait4 to read its own rusage.
        with open(self.work / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                raise OperationFailed(
                    f"{' '.join(argv[-6:])}: exit {proc.returncode}: "
                    f"{err.read().decode(errors='replace').strip()[-300:]}"
                )
        return stdout

    def collect(self, cmd: Command, stdout: bytes) -> CommandResult:
        files = {}
        if cmd.writes_dir:
            out = self.work / cmd.name
            for p in sorted(out.iterdir()):
                files[p.name] = p.read_bytes()
        self.artifact_bytes += len(stdout) + sum(len(b) for b in files.values())
        return CommandResult(stdout, files)

    def check(self, cmd: Command, result: CommandResult) -> list[str]:
        verb = cmd.args[0]
        if verb == "solve":
            pf = cmd.args[1].split("/")[-1]
            issues = checks.check_solve_artifacts(result.files, pf, tolerance(self.ref[pf]))
        elif verb == "oracle-check":
            issues = checks.check_oracle(result.stdout)
        elif cmd.args[2] == "fig3-data":
            issues = checks.check_fig3(result.files)
        else:
            issues = [] if result.files else ["no artifact written"]
        digest = artifact_digest(result)
        first = self.first_digest.setdefault(cmd.name, digest)
        if digest != first:
            issues.append("artifacts differ from an earlier run of the same command")
        return [f"{cmd.name}: {m}" for m in issues]


def artifact_digest(result: CommandResult) -> str:
    h = hashlib.sha256(result.stdout)
    for name in sorted(result.files):
        h.update(b"\0" + name.encode() + b"\0" + result.files[name])
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (AlphaSweep, NonlinearFamily, CliCommands)}
