"""Tests of the benchmark itself: short runs of every workload, and proof
that each output check rejects a corrupted result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(HERE / "expected.json", encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- short runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--ops", "4")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] == (8 if trace == "1" else 4)
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names
    for k, v in result["metrics"].items():
        assert math.isfinite(v["value"]), k
        if kind == "end_to_end":
            assert v["value"] > 0, k


def test_same_seed_same_inputs():
    def labels(seed):
        w = workloads.AlphaSweep(seed, EXPECTED)
        w.setup(ROOT, ROOT)
        return [w.round()[0].label for _ in range(5)]

    assert labels(7) == labels(7)
    assert labels(7) != labels(8)


def test_alpha_sweep_never_repeats_alpha_nor_draws_a_nonconverging_one():
    w = workloads.AlphaSweep(3, EXPECTED)
    w.setup(ROOT, ROOT)
    labels = [op.label for _ in range(5) for op in w.round()]
    assert len(set(labels)) == len(labels) == 200
    assert w.rounds_left() == w.POOL // w.STRATA - 5
    for kind, bad in EXPECTED["alpha-sweep"]["nonconverging"].items():
        for k in bad:
            assert f"{kind}({w.pool_alpha(k)!r})" not in labels


class _StubWorkload:
    """Two operations a round, inputs for three rounds."""

    name = "stub"
    spawns = False

    def __init__(self):
        self.left = 3

    def rounds_left(self):
        return self.left

    def round(self):
        self.left -= 1
        return [0, 1]

    def prepare(self, op):
        return op

    def run(self, op):
        return op

    def collect(self, op, raw):
        return raw

    def check(self, op, result):
        return []


def test_timed_loop_ends_at_a_round_boundary_when_inputs_run_out():
    import run

    outcome = run.Outcome()
    t = run.timed_loop(_StubWorkload(), outcome, 60.0, None, 4)
    assert t.exhausted and outcome.attempted == len(t.scaled) == 6
    assert t.scaled_wall > 0
    outcome = run.Outcome()
    t = run.timed_loop(_StubWorkload(), outcome, 60.0, None, 1, reserve=1)
    assert t.exhausted and outcome.attempted == 4
    with pytest.raises(SystemExit):
        run.timed_loop(_StubWorkload(), run.Outcome(), 60.0, None, 10)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "alpha-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- library checks -------------------------------------------------------------


def test_boubaker_recurrence_matches_closed_form():
    from fracemden.polybasis import build_M

    M = build_M(9)
    for x in (0.0, 0.3, 1.0):
        powers = [x ** k for k in range(10)]
        want = [sum(M[n, k] * powers[k] for k in range(10)) for n in range(10)]
        assert checks.boubaker_values(x, 9) == pytest.approx(want, abs=1e-13)


@pytest.fixture(scope="module")
def sweep_op_and_report():
    w = workloads.AlphaSweep(1, EXPECTED)
    w.setup(ROOT, ROOT)
    op = w.round()[0]
    return op, w.run(op)


def test_solution_check_accepts_real_solve(sweep_op_and_report):
    op, report = sweep_op_and_report
    assert checks.check_solution(report.C, op.exact, op.a, op.tol) == []


def test_solution_check_rejects_perturbed_coefficients(sweep_op_and_report):
    op, report = sweep_op_and_report
    C = report.C.copy()
    C[4] += 1e-3
    assert checks.check_solution(C, op.exact, op.a, op.tol)


def test_solution_check_rejects_wrong_exact_value(sweep_op_and_report):
    op, report = sweep_op_and_report
    wrong = lambda x: op.exact(x) + (0.5 if x == 0.5 else 0.0)  # noqa: E731
    assert checks.check_solution(report.C, wrong, op.a, op.tol)


def test_initial_value_check_rejects_wrong_a(sweep_op_and_report):
    op, report = sweep_op_and_report
    issues = checks.check_solution(report.C, op.exact, op.a + 1e-6, 1.0)
    assert any("u_N(0)" in m for m in issues)


def test_polynomial_solution_recovered_to_rounding_level():
    w = workloads.NonlinearFamily(1, EXPECTED)
    w.setup(ROOT, ROOT)
    op = next(o for o in w.ops if o.label.startswith("1.0|u^5"))
    assert op.tol == checks.ROUNDING_TOL
    report = w.run(op)
    assert w.check(op, report) == []
    C = report.C.copy()
    C[2] += 1e-8
    assert w.check(op, dataclasses.replace(report, C=C))


# -- CLI checks -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    work = ROOT / ".perfbench-out" / "test-cli"
    w = workloads.CliCommands(1, EXPECTED)
    w.setup(ROOT, work)
    cmds = {c.name: c for c in w.commands()}

    def run(name):
        cmd = cmds[name]
        return cmd, w.collect(cmd, w.run(w.prepare(cmd)))

    yield w, run
    shutil.rmtree(work, ignore_errors=True)


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1:]


def test_cli_solve_checks(cli):
    w, run = cli
    cmd, result = run("solve-exp_square")
    assert w.check(cmd, result) == []
    # the CLI child's own resident set, which imports numpy
    assert w.peak_rss_kb() > 10 * 1024
    cmd, again = run("solve-exp_square")
    assert w.check(cmd, again) == []

    # one changed byte in an artifact breaks byte-identity
    again.files["report.txt"] = _flip_byte(again.files["report.txt"], 5)
    assert any("differ" in m for m in w.check(cmd, again))

    sol = result.files["solution.csv"].decode()
    lines = sol.splitlines()
    x, u, ex, err = lines[51].split(",")
    tampered = {**result.files}
    tampered["solution.csv"] = sol.replace(lines[51], f"{x},{float(u) + 1e-3!r},{ex},{err}").encode()
    assert checks.check_solve_artifacts(tampered, "exp_square.prob", 1e-3)
    tampered["solution.csv"] = sol.replace(lines[51], f"{x},{u},{float(ex) * 1.01!r},{err}").encode()
    assert checks.check_solve_artifacts(tampered, "exp_square.prob", 1e-3)


def test_cli_fig3_check(cli):
    w, run = cli
    cmd, result = run("reproduce-fig3-data")
    assert w.check(cmd, result) == []
    rows = result.files["fig3_data.csv"].decode().splitlines()
    swapped = [rows[0]] + [",".join(r.split(",")[i] for i in (0, 2, 1, 3, 5, 4)) for r in rows[1:]]
    assert checks.check_fig3({"fig3_data.csv": "\n".join(swapped).encode()})


def test_cli_oracle_check(cli):
    w, run = cli
    cmd, result = run("oracle-0.75-3")
    assert w.check(cmd, result) == []
    assert checks.check_oracle(result.stdout.replace(b"PASS\n", b"FAIL\n"))


# -- tracing --------------------------------------------------------------------


def test_tracer_patches_every_binding_and_counts_outermost_evaluate():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing, fracemden.cli, fracemden.solver, fracemden.approx\n"
        "from fracemden import expr, polybasis\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert fracemden.solver.eval_basis is polybasis.eval_basis\n"
        "assert fracemden.cli.eval_basis is polybasis.eval_basis\n"
        "assert fracemden.approx.eval_basis is polybasis.eval_basis\n"
        "assert polybasis.eval_basis.__wrapped__ is not polybasis.eval_basis\n"
        "e = expr.parse('1 + 2*sin(x)^2', {'x'})\n"
        "expr.evaluate(e, {'x': 0.5})\n"
        "s = tracing.summarize(t.spans)\n"
        "assert s['expr.evaluate']['calls'] == 1, s\n"
        "assert s['expr.parse']['calls'] == 1, s\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["b", 5.0, 6.0, 0, 0]]
    s = tracing.summarize(spans)
    assert s["a"]["self"] == pytest.approx(6.0)
    assert s["b"] == {"calls": 2, "total": pytest.approx(4.0), "self": pytest.approx(4.0)}
