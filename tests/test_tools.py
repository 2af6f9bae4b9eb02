import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fracemden import approx, problems, solver
from fracemden.polybasis import build_basis

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tools" / "digest.py"


def run_digest(*args, **kwargs):
    return subprocess.run([sys.executable, str(DIGEST), *map(str, args)],
                          capture_output=True, text=True, timeout=600, **kwargs)


@pytest.fixture(scope="module")
def head(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest") / "head"
    proc = run_digest(ROOT, out)
    assert proc.returncode == 0, proc.stderr
    return out


def test_digest_holds_every_artifact_and_exit_status(head):
    files = {p.relative_to(head).as_posix() for p in head.rglob("*") if p.is_file()}
    probs = sorted(p.stem for p in (ROOT / "problems").glob("*.prob"))
    want = {"lines.txt", "status.txt", "solves.txt", "projections.txt", "reproduce.stdout",
            "reproduce/table1.csv", "reproduce/fig3_data.csv", "opmatrix/alpha5e-324_n15.csv",
            "stdout/basis_n15.txt", "stdout/basis_n40_force.txt",
            "stdout/oracle_alpha0.7_n6.txt", "stdout/oracle_alpha1.0_n6.txt"}
    want |= {f"solve/{stem}/{name}" for stem in probs
             for name in ("coefficients.csv", "solution.csv", "report.txt")}
    assert want <= files
    assert len([f for f in files if f.startswith("opmatrix/")]) == 9
    status = (head / "status.txt").read_text().splitlines()
    assert len(status) == 1 + len(probs) + 9 + 2 + 2
    assert all(line.startswith("0 ") for line in status)
    assert "0 solve problems/lane_emden_n5.prob" in status
    assert (head / "lines.txt").read_text().splitlines()[-1].split()[-1] == "total"
    assert (head / "stdout" / "oracle_alpha0.7_n6.txt").read_text().splitlines()[-1] == "PASS"


def test_digest_prints_one_line_per_solve(head):
    lines = (head / "solves.txt").read_text().splitlines()
    assert len(lines) == 2088 + 3 + 3 + 2
    labels = [line.partition(": ")[0] for line in lines]
    assert len(set(labels)) == len(labels)
    assert sum(line.endswith(" none") for line in lines) >= 1
    # a built-in's line, as this interpreter solves it
    report = solver.solve(problems.lane_emden(5, 0.7), 12)
    want = " ".join([
        "lane_emden(5, 0.7) N=12:", hashlib.sha256(report.C.tobytes()).hexdigest(),
        str(report.newton_iters), repr(report.residual_inf),
        hashlib.sha256(repr(report.error_table).encode()).hexdigest(),
        hashlib.sha256(report.J.tobytes()).hexdigest(),
        hashlib.sha256(repr(problems.lane_emden(5, 0.7)).encode()).hexdigest(),
    ])
    assert want in lines


def test_digest_hashes_each_projection(head):
    lines = (head / "projections.txt").read_text().splitlines()
    assert [line.partition(":")[0] for line in lines] == [
        f"{label} N={N}" for label in ("in_span", "exp", "x^0.3", "x*inf") for N in range(16)]
    C = approx.project(math.exp, build_basis(6))
    assert f"exp N=6: {hashlib.sha256(C.tobytes()).hexdigest()}" in lines
    assert "x*inf N=1: EvaluationError: non-finite sample f(1.0) = inf" in lines


@pytest.mark.parametrize("args, fragment", [
    ((), "usage"),
    (("/nonexistent", "OUT"), "has no src/fracemden/__init__.py"),
    (("--diff", ROOT, ROOT), "--diff wants two directories"),
], ids=["no-arguments", "root-without-package", "diff-of-non-digests"])
def test_digest_refuses_bad_arguments(tmp_path, args, fragment):
    # a root without the package must not fall back to the fracemden on PYTHONPATH
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = run_digest(*args, env=env, cwd=tmp_path)
    assert proc.returncode == 2 and fragment in proc.stderr
    assert not (tmp_path / "OUT").exists()


def test_digest_refuses_a_full_out_dir(head):
    proc = run_digest(ROOT, head)
    assert proc.returncode == 2 and "is not empty" in proc.stderr


def test_diff_of_a_digest_against_itself_is_identical(head):
    proc = run_digest("--diff", head, head)
    assert proc.returncode == 0, proc.stderr
    assert "byte-identical to the base" in proc.stdout


def test_diff_names_each_change(head, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(head, other)
    matrix = other / "opmatrix" / "alpha0.7_n10.csv"
    rows = matrix.read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    matrix.write_text("\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n")
    basis = other / "stdout" / "basis_n15.txt"
    basis.write_text(basis.read_text().replace("B_2 = x^2 + 2\n", "B_2 = x^2 + 3\n"))
    solves = other / "solves.txt"
    old_line = next(s for s in solves.read_text().splitlines()
                    if s.startswith("lane_emden(5, 0.7) N=12:"))
    fields = old_line.split(" ")  # the label holds three of them, then sha256(C) and the iterations
    new_line = " ".join(fields[:4] + [str(int(fields[4]) + 1)] + fields[5:])
    solves.write_text(solves.read_text().replace(old_line, new_line))
    (other / "solve" / "exp_square" / "report.txt").unlink()

    proc = run_digest("--diff", head, other)
    assert proc.returncode == 1, proc.stderr
    out = proc.stdout.splitlines()
    for name in ("opmatrix/alpha0.7_n10.csv", "stdout/basis_n15.txt", "solves.txt"):
        assert f"differ: {name}" in out
    assert "only in base: solve/exp_square/report.txt" in out
    assert "opmatrix/alpha0.7_n10.csv: max |delta| = 0.25" in out
    assert {"-B_2 = x^2 + 2", "+B_2 = x^2 + 3"} <= set(out)
    assert {f"-{old_line}", f"+{new_line}"} <= set(out)
    assert sum(s.startswith(("-lane", "+lane")) for s in out) == 2
