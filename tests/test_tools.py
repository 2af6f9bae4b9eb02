import hashlib
import subprocess
import sys
from pathlib import Path

from fracemden import problems, solver

ROOT = Path(__file__).resolve().parent.parent


def test_solve_digest_prints_one_line_per_solve():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "solve_digest.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2088
    labels = [line.partition(": ")[0] for line in lines]
    assert len(set(labels)) == len(labels)
    # a built-in's line, as this interpreter solves it
    report = solver.solve(problems.lane_emden(5, 0.7), 12)
    want = " ".join([
        "lane_emden(5, 0.7) N=12:", hashlib.sha256(report.C.tobytes()).hexdigest(),
        str(report.newton_iters), repr(report.residual_inf),
        hashlib.sha256(repr(report.error_table).encode()).hexdigest(),
        hashlib.sha256(repr(problems.lane_emden(5, 0.7)).encode()).hexdigest(),
    ])
    assert want in lines


def test_solve_digest_wants_a_source_root():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "solve_digest.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "usage" in proc.stderr
