import csv
import io
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fracemden
from fracemden import approx, fraccalc
from fracemden.cli import main, poly_str
from fracemden.polybasis import build_basis, build_M_int, eval_basis

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")
SRC_DIR = os.path.dirname(os.path.dirname(fracemden.__file__))


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_module(module, *argv):
    """`python -m module argv...` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPolyStr:
    @pytest.mark.parametrize(
        "n,text",
        [(0, "1"), (1, "x"), (2, "x^2 + 2"), (3, "x^3 + x"), (4, "x^4 - 2")],
    )
    def test_rendering(self, n, text):
        assert poly_str(build_M_int(n)[n]) == text


class TestBasisCommand:
    def test_prints_family(self):
        code, out = run("basis", "--n", "2")
        assert code == 0
        assert "B_2 = x^2 + 2" in out
        assert "M =" in out

    def test_degree_zero(self):
        code, out = run("basis", "--n", "0")
        assert code == 0
        assert "B_0 = 1" in out

    def test_cap_guard(self, capsys):
        code, _ = run("basis", "--n", "16")
        assert code == 2
        assert "condition" in capsys.readouterr().err

    def test_forced_degree_prints_exact_integers(self):
        # from N = 36 on some coefficients exceed 1e6; each must print in full
        code, out = run("basis", "--n", "40", "--force")
        assert code == 0
        assert "- 1553472*x^26 " in out
        lines = out.splitlines()
        assert lines[41] == "M ="
        term = re.compile(r"(-?)(\d+)?\*?(x(?:\^(\d+))?)?")
        rows = []
        for n, line in enumerate(lines[:41]):
            name, poly = line.split(" = ")
            assert name == f"B_{n}"
            row = [0] * 41
            for text in poly.replace("- ", "-").replace("+ ", "").split():
                sign, mag, var, power = term.fullmatch(text).groups()
                row[int(power or 1) if var else 0] = int(mag or 1) * (-1 if sign else 1)
            rows.append(row)
        assert rows == build_M_int(40).tolist()
        assert [list(map(int, line.split())) for line in lines[42:]] == rows

    def test_force_overrides_cap(self):
        code, out = run("basis", "--n", "16", "--force")
        assert code == 0
        assert "B_16" in out


class TestOpmatrixCommand:
    def test_first_order(self):
        code, out = run("opmatrix", "--alpha", "1", "--n", "2")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        got = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_array_equal(got, [[0, 0, 0], [1, 0, 0], [0, 2, 0]])

    def test_second_order_row4(self):
        code, out = run("opmatrix", "--alpha", "2", "--n", "4")
        assert code == 0
        last = [float(v) for v in out.strip().splitlines()[-1].split()]
        assert last == [-24.0, 0.0, 12.0, 0.0, 0.0]

    def test_fractional_entry(self):
        code, out = run("opmatrix", "--alpha", "0.7", "--n", "4")
        assert code == 0
        entry = float(out.strip().splitlines()[1].split()[0])
        assert entry == pytest.approx(7.374542128794902, rel=0, abs=1e-9)

    def test_csv_format(self):
        code, out = run("opmatrix", "--alpha", "1", "--n", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["col_0", "col_1", "col_2"]
        assert [float(v) for v in rows[2]] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("alpha", ["2.5", "0", "-1"])
    def test_order_domain(self, alpha, capsys):
        code, _ = run("opmatrix", "--alpha", alpha, "--n", "4")
        assert code == 2

    def test_order_exceeds_degree(self, capsys):
        code, _ = run("opmatrix", "--alpha", "1.5", "--n", "1")
        assert code == 2

    def test_degree_cap(self, capsys):
        code, _ = run("opmatrix", "--alpha", "1", "--n", "16")
        assert code == 2

    def test_domain_message_comes_from_library(self, capsys):
        code, _ = run("opmatrix", "--alpha", "2.5", "--n", "4")
        assert code == 2
        assert capsys.readouterr().err == "error: order must lie in (0, 2.0], got 2.5\n"


class TestSolveCommand:
    def test_constant_nonlinearity(self, tmp_path):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n0.prob")
        out_dir = tmp_path / "run"
        code, out = run("solve", prob, "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "coefficients.csv")
        assert rows[0] == ["index", "coefficient"]
        coeffs = [float(r[1]) for r in rows[1:]]
        np.testing.assert_allclose(
            coeffs, [4.0 / 3.0, 0.0, -1.0 / 6.0], rtol=0, atol=1e-12
        )
        sol = read_csv(out_dir / "solution.csv")
        assert sol[0] == ["x", "u_N", "exact", "abs_error"]
        assert len(sol) == 102  # header + 101 points
        report = (out_dir / "report.txt").read_text()
        assert "newton iterations" in report
        [cond] = [line for line in report.splitlines() if line.startswith("cond_J = ")]
        assert 1.0 <= float(cond.split(" = ")[1]) < 1e3  # kappa_2(J) = 14.8
        assert "cond_Q" not in report and "warning" not in report
        assert "max abs error" in report

    def test_accepted_start_point_reports_no_jacobian(self, tmp_path):
        # u = 0 solves it with no Newton step, and g' does not exist at u = 0
        prob = tmp_path / "p.prob"
        prob.write_text('alpha = 1\nlambda = 0\ns = "1"\ng = "sqrt(u)"\nh = "0"\n'
                        'a = 0\nb = 0\nN = 4\n')
        code, out = run("solve", str(prob), "--out", str(tmp_path / "o"))
        assert code == 0
        assert "0 Newton iteration(s)" in out
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        assert "cond_J = none: no Jacobian was factorized" in lines
        assert not any(line.startswith("warning") for line in lines)

    def test_ill_conditioned_jacobian_writes_a_warning(self, tmp_path):
        with open(os.path.join(PROBLEMS_DIR, "lane_emden_n1.prob")) as fh:
            text = fh.read()
        prob = tmp_path / "p.prob"
        prob.write_text(text.replace("N      = 6\n", "N      = 15\n"))
        code, _ = run("solve", str(prob), "--out", str(tmp_path / "o"))
        assert code == 0
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("cond_J = "))
        assert float(lines[k].split(" = ")[1]) > 1e10  # 1.354e13
        assert lines[k + 1] == ("warning: Jacobian condition number 1.354e+13 exceeds 1e+10; "
                                "coefficients may carry significant rounding error")

    def test_exact_representation_error(self, tmp_path):
        prob = os.path.join(PROBLEMS_DIR, "shifted_power_alpha1.prob")
        code, out = run("solve", prob, "--out", str(tmp_path / "o"))
        assert code == 0
        sol = read_csv(tmp_path / "o" / "solution.csv")
        errs = [float(r[3]) for r in sol[1:]]
        assert max(errs) <= 1e-12

    @staticmethod
    def _linear_file(tmp_path, exact):
        prob = tmp_path / "p.prob"
        prob.write_text('alpha = 1\nlambda = 0\ns = "1"\ng = "u"\nh = "0"\n'
                        f'a = 1\nb = 1\nN = 3\nexact = "{exact}"\n')
        return str(prob)

    def test_exact_undefined_at_a_point_is_left_empty(self, tmp_path):
        # exact is report-only: its removable singularity at x = 0.5 leaves
        # that point bare and the solve succeeds
        prob = self._linear_file(tmp_path, "sin(x - 0.5)/(x - 0.5)")
        code, out = run("solve", prob, "--out", str(tmp_path / "o"))
        assert code == 0
        lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
        rows = lines[lines.index("x approx exact abs_error") + 1 : -1]
        assert len(rows) == 10
        bare = [row.split() for row in rows if row.startswith("0.5 ")]
        assert len(bare) == 1 and len(bare[0]) == 2
        errs = [float(row.split()[3]) for row in rows if not row.startswith("0.5 ")]
        assert len(errs) == 9 and all(map(math.isfinite, errs))
        assert lines[-1] == f"max abs error = {max(errs):.17g}"
        assert f"max abs error vs exact = {max(errs):.3e}" in out
        sol = read_csv(tmp_path / "o" / "solution.csv")
        row = next(r for r in sol[1:] if float(r[0]) == 0.5)
        assert row[1] == bare[0][1] and row[2:] == ["", ""]

    def test_exact_undefined_everywhere_prints_no_max_error(self, tmp_path):
        prob = self._linear_file(tmp_path, "ln(x - 2)")
        code, out = run("solve", prob, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "max abs error" not in out
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "max abs error" not in report
        rows = report.splitlines()[-10:]
        assert [len(row.split()) for row in rows] == [2] * 10
        sol = read_csv(tmp_path / "o" / "solution.csv")
        assert [r[2:] for r in sol[1:]] == [["", ""]] * 101

    def test_missing_key_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text('alpha = 1\nlambda = 2\ns = "1"\ng = "u"\na = 1\nb = 0\nN = 3\n')
        code, _ = run("solve", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "h" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, tmp_path):
        prob = tmp_path / "bom.prob"
        with open(os.path.join(PROBLEMS_DIR, "lane_emden_n0.prob"), "rb") as fh:
            prob.write_bytes(b"\xef\xbb\xbf" + fh.read())
        code, _ = run("solve", str(prob), "--out", str(tmp_path / "o"))
        assert code == 0

    def test_non_utf8_file_exit2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_bytes(b"alpha = 1\xff\n")
        code, _ = run("solve", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text")
        assert "0xff" in err

    def test_missing_file_exit2(self, tmp_path, capsys):
        code, _ = run("solve", str(tmp_path / "nope.prob"), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_degree_cap_exit2(self, tmp_path, capsys):
        big = tmp_path / "big.prob"
        big.write_text(
            'alpha = 1\nlambda = 2\ns = "1"\ng = "u"\nh = "0"\n'
            "a = 1\nb = 0\nN = 16\n"
        )
        code, _ = run("solve", str(big), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_solver_failure_exit1(self, tmp_path, capsys):
        bad = tmp_path / "hard.prob"
        bad.write_text(
            'alpha = 1\nlambda = 2\ns = "1"\ng = "u"\nh = "0"\n'
            "a = 1\nb = 0\nN = 3\nmax_iters = 0\n"
        )
        code, _ = run("solve", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize("line,cause", [
        ("max_iters = -1", "max_iters must be >= 0, got -1"),
        ('h = "' + "+".join(["x"] * 900) + '"', "nested 900 levels deep, more than 100"),
        ("b = 0.5", "b must be 0 when lambda > 0, got lambda = 2.0 and b = 0.5: "),
        ("alpha = 0.7\nlambda = 0\nb = 1",
         "b must be 0 when alpha < 1, got alpha = 0.7 and b = 1.0: "),
        ("N = 6.5", "value for 'N' is not an integer: '6.5'"),
        ("max_iters = 2.5", "value for 'max_iters' is not an integer: '2.5'"),
    ], ids=["negative_max_iters", "deep_expression", "b_with_lambda", "b_with_alpha_below_one",
            "fractional_N", "fractional_max_iters"])
    def test_refused_input_exit2(self, tmp_path, capsys, line, cause):
        fields = {"alpha": "1", "lambda": "2", "s": '"1"', "g": '"u"', "h": '"0"',
                  "a": "1", "b": "0", "N": "3"}
        for assignment in line.split("\n"):
            key, _, value = assignment.partition(" = ")
            fields[key] = value
        bad = tmp_path / "bad.prob"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        code, _ = run("solve", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert cause in capsys.readouterr().err

    # Newton's stop test is false for a NaN residual and true under an
    # infinite stop level, so unchecked, each of these would print "solved"
    # after 0 Newton iterations and exit 0
    @pytest.mark.parametrize("line,code,cause", [
        ("lambda = nan", 2, "lambda must be finite, got nan"),
        ('h = "1e308*10 - 1e308*10"', 1, "residual nan at the start point"),
        ('s = "1e308*10"', 1, "s(x) = inf at collocation point x = 0.8535533905932737"),
        ("tol = nan", 2, "tol must be finite, got nan"),
        ("a = 1e308", 1, "stop level overflows"),
        ('h = "1.7e308"', 1, "Newton step not finite at iteration 0"),
        ('h = "sin(1e308*10*x)"', 1,
         "expression evaluation failed: sin of inf is undefined"
         " while evaluating h(x) at x=0.8535533905932737 in 'sin(1e+308*10*x)'"),
    ], ids=["lambda", "h", "s", "tol", "overflow", "step", "sin_of_inf"])
    def test_non_finite_input_fails_naming_its_cause(self, tmp_path, capsys, line, code, cause):
        fields = {"alpha": "1", "lambda": "2", "s": '"1"', "g": '"u"', "h": '"0"',
                  "a": "1", "b": "0", "N": "4"}
        key, _, value = line.partition(" = ")
        fields[key] = value
        bad = tmp_path / "bad.prob"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        got, out = run("solve", str(bad), "--out", str(tmp_path / "o"))
        assert got == code
        assert cause in capsys.readouterr().err
        assert "solved" not in out

    def test_nonlinear_problem_file(self, tmp_path):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n5.prob")
        code, out = run("solve", prob, "--out", str(tmp_path / "o"))
        assert code == 0
        report = (tmp_path / "o" / "report.txt").read_text()
        max_err = float(report.rsplit("max abs error = ", 1)[1].split()[0])
        assert max_err <= 1e-5

    def test_deterministic_artifacts(self, tmp_path):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n1.prob")
        for d in ("a", "b"):
            code, _ = run("solve", prob, "--out", str(tmp_path / d))
            assert code == 0
        for name in ("coefficients.csv", "solution.csv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


    def test_out_that_is_a_file_exit2(self, tmp_path, capsys):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n0.prob")
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, out = run("solve", prob, "--out", str(taken))
        assert code == 2
        assert f"error: cannot write {taken}: " in capsys.readouterr().err
        assert out == ""
        assert taken.read_text() == "keep"

    def test_artifact_that_cannot_be_written_exit2(self, tmp_path, capsys):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n0.prob")
        (tmp_path / "o" / "report.txt").mkdir(parents=True)
        code, out = run("solve", prob, "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'o'}: ")
        assert "report.txt" in err
        assert out == ""


class TestReproduceCommand:
    def test_errors_at_rounding_level_agree(self):
        # both below 1e-12: the ratio of two rounding errors means nothing
        from fracemden.cli import _error_status

        assert _error_status(1e-13, 1e-13) == "agree"
        assert _error_status(1e-13, 1e-11) == "better"

    def test_table1(self, tmp_path):
        code, out = run("reproduce", "--target", "table1", "--out", str(tmp_path))
        assert code == 0
        comp = read_csv(tmp_path / "table1_comparison.csv")
        assert comp[0] == ["case", "x", "computed", "reference", "ratio", "status"]
        m3 = [r for r in comp[1:] if r[0] == "3"]
        assert len(m3) == 5
        # degree-3 errors reproduce the published digits closely
        assert all(r[5] == "agree" for r in m3)
        # every degree-3/6 error is inside its published envelope
        assert all(float(r[2]) <= 5e-4 for r in m3)
        m6 = [r for r in comp[1:] if r[0] == "6"]
        assert all(float(r[2]) <= 5e-7 for r in m6)

    def test_unknowns(self, tmp_path):
        code, out = run("reproduce", "--target", "unknowns", "--out", str(tmp_path))
        assert code == 0
        assert "u(0) = 2" in out  # the initial-value discrepancy note
        comp = read_csv(tmp_path / "unknowns_comparison.csv")
        alpha1 = [r for r in comp[1:] if float(r[0]) == 1.0]
        assert len(alpha1) == 5
        assert all(r[6] == "agree" for r in alpha1)

    def test_fig3_data(self, tmp_path):
        code, out = run("reproduce", "--target", "fig3-data", "--out", str(tmp_path))
        assert code == 0
        assert "smaller at N=6" in out
        rows = read_csv(tmp_path / "fig3_data.csv")
        assert rows[0] == ["x", "u_N4", "u_N6", "exact", "abs_err_N4", "abs_err_N6"]
        assert len(rows) == 102

    def test_table2_and_table3_written(self, tmp_path):
        for target, files in (
            ("table2", ["table2.csv", "table2_comparison.csv"]),
            ("table3", ["table3_m5.csv", "table3_m5_comparison.csv", "table3_m4.csv"]),
        ):
            code, _ = run("reproduce", "--target", target, "--out", str(tmp_path))
            assert code == 0
            for name in files:
                assert (tmp_path / name).exists()

    def test_all_targets(self, tmp_path):
        code, out = run("reproduce", "--target", "all", "--out", str(tmp_path))
        assert code == 0
        for name in ("table1_comparison.csv", "table2_comparison.csv",
                     "unknowns_comparison.csv", "table3_m5_comparison.csv",
                     "fig3_data.csv"):
            assert (tmp_path / name).exists()

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            run("reproduce", "--target", "table1", "--out", str(tmp_path / d))
        assert (tmp_path / "a" / "table1_comparison.csv").read_bytes() == (
            tmp_path / "b" / "table1_comparison.csv"
        ).read_bytes()


    def test_out_that_is_a_file_exit2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, out = run("reproduce", "--target", "table1", "--out", str(taken))
        assert code == 2
        assert f"error: cannot write {taken}: " in capsys.readouterr().err
        assert out == ""
        assert taken.read_text() == "keep"

    def test_artifact_that_cannot_be_written_exit2(self, tmp_path, capsys):
        (tmp_path / "table1.csv").mkdir()
        code, _ = run("reproduce", "--target", "table1", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path}: ")
        assert "table1.csv" in err


class TestOracleCheckCommand:
    def test_integer_order_passes(self):
        code, out = run("oracle-check", "--alpha", "1", "--n", "6")
        assert code == 0
        assert "integer-order exactness" in out
        assert out.strip().endswith("PASS")

    def test_fractional_passes_with_residuals(self):
        code, out = run("oracle-check", "--alpha", "0.7", "--n", "4")
        assert code == 0
        assert "projection residual" in out
        assert out.strip().endswith("PASS")

    def test_domain_guard(self, capsys):
        code, _ = run("oracle-check", "--alpha", "2.5", "--n", "4")
        assert code == 2

    def test_avoids_per_point_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("oracle-check integrated point by point")

        monkeypatch.setattr(approx, "integrate_01", forbidden)
        code, out = run("oracle-check", "--alpha", "0.7", "--n", "6")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_failure_names_rounding_floor(self):
        # at N = 15 the orthogonality residual sits below the rounding level
        # of evaluating e_i^T B(x) in double, which the FAIL line prints
        code, out = run("oracle-check", "--alpha", "0.7", "--n", "15")
        assert code == 1
        orth_line = next(s for s in out.splitlines() if "orthogonality" in s)
        match = re.fullmatch(
            r"\[FAIL\] .* = (\S+)\) > bound 1e-08; rounding floor "
            r"eps\*max_x sum_j \|E_ij\|\|B_j\(x\)\| = (\S+)",
            orth_line,
        )
        assert match
        worst, floor = (float(v) for v in match.groups())
        basis = build_basis(15)
        E = fraccalc.build_E(0.7, basis)[1:]
        scale = max(
            float(np.max(np.abs(eval_basis(xs, basis)) @ np.abs(E).T))
            for xs, _ in approx._quad_nodes(True)
        )
        assert floor == float(f"{np.finfo(float).eps * scale:.3e}")
        assert 1e-8 < worst < floor

    def test_pass_line_has_no_floor(self):
        _, out = run("oracle-check", "--alpha", "0.7", "--n", "6")
        orth_line = next(s for s in out.splitlines() if "orthogonality" in s)
        assert re.fullmatch(r"\[PASS\] projection-residual orthogonality "
                            r"\(max \|<residual, B_j>\| = \S+\)", orth_line)

    @pytest.mark.parametrize("N", [3, 6, 10])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.3])
    def test_matches_pointwise_quadrature(self, alpha, N):
        worst_orth, l2 = _pointwise_oracle_figures(alpha, N)
        code, out = run("oracle-check", "--alpha", str(alpha), "--n", str(N))
        good = worst_orth <= 1e-8
        assert code == (0 if good else 1)
        orth_line = next(s for s in out.splitlines() if "orthogonality" in s)
        assert orth_line.startswith("[PASS]" if good else "[FAIL]")
        got_l2 = [float(v) for v in re.findall(r"_L2 = (\S+)", out)]
        assert len(got_l2) == len(l2)
        # the figures print with 4 digits: one unit in the last of them,
        # plus an absolute slack far above the measured 4.4e-18
        for got, want in zip(got_l2, l2):
            assert abs(got - want) <= 1e-3 * want + 1e-17
        got_orth = float(re.search(r"B_j>\| = (\S+)\)", orth_line).group(1))
        assert abs(got_orth - worst_orth) <= 1e-3 * worst_orth + 1e-16


def _pointwise_oracle_figures(alpha, N):
    """Orthogonality and L2 figures by the former route: one closure per
    (i, j) pair, integrated node by node through approx.integrate_01."""
    basis = build_basis(N)
    E = fraccalc.build_E(alpha, basis)
    worst_orth = 0.0
    l2 = []
    for i in range(math.ceil(alpha), N + 1):
        e_i, p = E[i], i - alpha
        for j in range(N + 1):
            def integrand(x, _j=j):
                bx = eval_basis(x, basis)
                return (x ** p - float(e_i @ bx)) * bx[_j]

            r = approx.integrate_01(integrand, singular_at_zero=True)
            worst_orth = max(worst_orth, abs(r))

        def sq(x):
            return (x ** p - float(e_i @ eval_basis(x, basis))) ** 2

        l2.append(math.sqrt(max(approx.integrate_01(sq, singular_at_zero=True), 0.0)))
    return worst_orth, l2


class TestDegreeCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--n", "16"],
            ["opmatrix", "--alpha", "0.7", "--n", "16"],
            ["oracle-check", "--alpha", "0.7", "--n", "16"],
            ["solve", "{prob}", "--out", "{out}"],
        ],
        ids=["basis", "opmatrix", "oracle-check", "solve"],
    )
    def test_every_command_reports_the_library_cap(self, argv, tmp_path, capsys):
        prob = tmp_path / "big.prob"
        prob.write_text(
            'alpha = 0.7\nlambda = 2\ns = "1"\ng = "u"\nh = "0"\n'
            "a = 1\nb = 0\nN = 16\n"
        )
        code, _ = run(*(a.format(prob=prob, out=tmp_path / "o") for a in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert "cap" in err
        # the library keyword is no option of any command
        assert "force=True" not in err


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _ = run("frobnicate")
        assert code == 2

    def test_missing_required_flag(self):
        code, _ = run("basis")
        assert code == 2


@pytest.mark.parametrize("module", ["fracemden", "fracemden.cli"])
class TestRunAsModule:
    def test_solve_gives_the_exit_code_and_artifacts_of_main(self, module, tmp_path):
        prob = os.path.join(PROBLEMS_DIR, "lane_emden_n5.prob")
        code, out = run("solve", prob, "--out", str(tmp_path / "main"))
        proc = run_module(module, "solve", prob, "--out", str(tmp_path / "module"))
        assert (proc.returncode, proc.stderr) == (code, "") == (0, "")
        assert proc.stdout == out.replace(str(tmp_path / "main"), str(tmp_path / "module"))
        for name in ("coefficients.csv", "solution.csv", "report.txt"):
            assert (tmp_path / "module" / name).read_bytes() == (
                tmp_path / "main" / name
            ).read_bytes()

    def test_failing_solve_exits_1(self, module, tmp_path):
        hard = tmp_path / "hard.prob"
        hard.write_text(
            'alpha = 1\nlambda = 2\ns = "1"\ng = "u"\nh = "0"\n'
            "a = 1\nb = 0\nN = 3\nmax_iters = 0\n"
        )
        proc = run_module(module, "solve", str(hard), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: solve failed: ")
        assert proc.stdout == ""
        assert not (tmp_path / "o").exists()
