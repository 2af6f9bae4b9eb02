import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from fracemden import expr, fraccalc, linalg, solver
from fracemden.polybasis import build_basis, eval_basis, eval_series
from fracemden.problems import lane_emden, mixed_power, shifted_power
from fracemden.solver import (
    EmdenFowlerProblem,
    NonConvergenceError,
    SolverError,
    assemble_residual,
    collocation_points,
    residual_certificate,
    solve,
)


class TestCollocationPoints:
    def test_n3(self):
        pts = collocation_points(3)
        np.testing.assert_allclose(pts, [0.75, 0.25], rtol=0, atol=1e-15)

    def test_n2(self):
        pts = collocation_points(2)
        np.testing.assert_allclose(pts, [0.5], rtol=0, atol=1e-15)

    def test_n5_interior_descending(self):
        pts = collocation_points(5)
        assert len(pts) == 4
        assert all(0.0 < x < 1.0 for x in pts)
        assert all(a > b for a, b in zip(pts, pts[1:]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            collocation_points(1)


def _matrices(problem, N):
    basis = build_basis(N)
    D1 = fraccalc.build_D(problem.alpha, basis)
    D2 = fraccalc.build_D(2.0 * problem.alpha, basis)
    return basis, D1, D2


class TestAssembleResidual:
    def test_exact_solution_zeroes_residual(self):
        problem = lane_emden(0)
        basis, D1, D2 = _matrices(problem, 2)
        r = assemble_residual(problem, basis, D1, D2, [4.0 / 3.0, 0.0, -1.0 / 6.0])
        assert np.max(np.abs(r)) <= 1e-12

    def test_shifted_power_exact(self):
        problem = shifted_power(1.0)
        basis, D1, D2 = _matrices(problem, 2)
        r = assemble_residual(problem, basis, D1, D2, [1.0, 0.0, 1.0])
        assert np.max(np.abs(r)) <= 1e-12

    def test_zero_coefficients(self):
        # constant nonlinearity: collocation rows s*g - h = 1, then the two
        # initial-condition rows -a and -b
        problem = lane_emden(0)
        basis, D1, D2 = _matrices(problem, 2)
        r = assemble_residual(problem, basis, D1, D2, np.zeros(3))
        np.testing.assert_allclose(r, [1.0, -1.0, 0.0], rtol=0, atol=1e-15)

    def test_evaluation_error_names_point(self):
        problem = EmdenFowlerProblem(
            alpha=1.0,
            lam=2.0,
            s=expr.parse("ln(x - 1)", {"x"}),
            g=expr.parse("u", {"u"}),
            h=expr.parse("0", {"x"}),
            a=1.0,
            b=0.0,
        )
        basis, D1, D2 = _matrices(problem, 3)
        with pytest.raises(expr.EvalError, match="s\\(x\\)"):
            assemble_residual(problem, basis, D1, D2, np.zeros(4))

    @pytest.mark.parametrize("C", [np.zeros(3), np.zeros(6), np.zeros((5, 1))])
    def test_coefficient_length_checked(self, C):
        # refused before the matmul with Phi, which would fail unnamed
        problem = lane_emden(1)
        basis, D1, D2 = _matrices(problem, 4)
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient vector has shape {C.shape}, expected (5,)")):
            assemble_residual(problem, basis, D1, D2, C)


class TestSolve:
    def test_constant_nonlinearity_exact(self):
        report = solve(lane_emden(0), 2)
        np.testing.assert_allclose(
            report.C, [4.0 / 3.0, 0.0, -1.0 / 6.0], rtol=0, atol=1e-12
        )

    def test_rational_solution(self):
        report = solve(lane_emden(1), 3)
        target = np.array([25673.0, -256.0, -3280.0, 256.0]) / 19113.0
        np.testing.assert_allclose(report.C, target, rtol=0, atol=1e-10)

    def test_cubic_recovery(self):
        report = solve(mixed_power(1.0), 4)
        np.testing.assert_allclose(report.C, [-1, -1, 1, 1, 0], rtol=0, atol=1e-8)

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_linear_problems_need_two_iterations(self, N):
        assert solve(lane_emden(1), N).newton_iters <= 2

    @pytest.mark.parametrize(
        "problem,N",
        [(lane_emden(0), 2), (lane_emden(1), 5), (shifted_power(0.8), 3),
         (mixed_power(0.7), 4)],
        ids=["const", "linear", "frac_shifted", "frac_mixed"],
    )
    def test_initial_conditions_satisfied(self, problem, N):
        report = solve(problem, N)
        basis = build_basis(N)
        assert abs(eval_series(report.C, 0.0, basis) - problem.a) <= 1e-9
        D1 = fraccalc.build_D(problem.alpha, basis)
        ic2 = float(report.C @ (D1.D @ eval_basis(0.0, basis)))
        assert abs(ic2 - problem.b) <= 1e-9

    def test_nonlinear_polytrope(self):
        report = solve(lane_emden(5), 6)
        basis = build_basis(6)
        exact = lambda x: (1.0 + x * x / 3.0) ** -0.5
        worst = max(
            abs(eval_series(report.C, x, basis) - exact(x))
            for x in np.linspace(0.0, 1.0, 51)
        )
        assert worst <= 1e-5
        assert report.residual_inf <= 1e-10

    def test_self_consistent_collocation_residuals(self):
        problem = lane_emden(5)
        report = solve(problem, 5)
        basis, D1, D2 = _matrices(problem, 5)
        r = assemble_residual(problem, basis, D1, D2, report.C)
        assert np.max(np.abs(r)) <= 1e-10

    def test_error_table_present_iff_exact(self):
        report = solve(lane_emden(1), 4)
        assert report.error_table is not None
        assert [row[0] for row in report.error_table] == [
            k / 10.0 for k in range(1, 11)
        ]
        bare = EmdenFowlerProblem(
            alpha=1.0,
            lam=2.0,
            s=expr.parse("1", {"x"}),
            g=expr.parse("u", {"u"}),
            h=expr.parse("0", {"x"}),
            a=1.0,
            b=0.0,
        )
        assert solve(bare, 3).error_table is None

    @pytest.mark.parametrize("N", range(2, 16))
    def test_error_table_u_equals_the_scalar_dot(self, N):
        # u = c . B(x) with c spanning many magnitudes, solved as u'' = h at
        # alpha = 1, so that a different summation order of C . B(x) would
        # change the last bits of the table's u_N column
        basis = build_basis(N)
        rng = np.random.default_rng(N)
        c = rng.normal(size=N + 1) * 10.0 ** rng.uniform(-3, 8, size=N + 1)
        m = (basis.M.T @ c).tolist()  # monomial coefficients
        u = " + ".join(f"({v!r})*x^{k}" for k, v in enumerate(m))
        h = " + ".join(f"({k * (k - 1) * v!r})*x^{k - 2}" for k, v in enumerate(m) if k > 1)
        report = solve(solver.problem_from_strings(1.0, 0.0, "0", "u", h or "0", m[0], m[1], u), N)
        assert np.max(np.abs(report.C - c)) <= 1e-5 * np.max(np.abs(c))  # C is c
        got = np.array([row[1] for row in report.error_table])
        want = np.array([float(report.C @ bx) for bx in eval_basis(solver._TABLE_XS, basis)])
        assert got.tobytes() == want.tobytes()

    def test_exact_undefined_at_a_table_point_leaves_that_row_bare(self):
        # exact is report-only: sin(x - 0.5)/(x - 0.5) divides by zero at
        # x = 0.5, which must not fail a solve whose Newton has converged
        problem = solver.problem_from_strings(1.0, 0.0, "1", "u", "0", 1.0, 1.0,
                                              exact="sin(x - 0.5)/(x - 0.5)")
        report = solve(problem, 3)
        basis = build_basis(3)
        table = report.error_table
        assert [row[0] for row in table] == [k / 10.0 for k in range(1, 11)]
        assert table[4] == (0.5, eval_series(report.C, 0.5, basis), None, None)
        for x, u, ex, err in table[:4] + table[5:]:
            assert u == eval_series(report.C, x, basis)
            assert ex == math.sin(x - 0.5) / (x - 0.5)
            assert err == abs(u - ex) and math.isfinite(err)

    def test_rows_without_exact_are_bare(self):
        # a problem without exact, and reports built by hand, at any degree
        # the basis allows (below the solver's N >= 2 too)
        hand_built = [solver.SolveReport(C=np.array(C), points=(), newton_iters=0,
                                         residual_inf=0.0, J=None)
                      for C in ([2.0], [1.0, 0.5], [1.0, 0.0, 1.0])]
        xs = np.linspace(0.0, 1.0, 11).tolist()
        for report in [solve(_with(lane_emden(1), exact=None), 6), *hand_built]:
            basis = build_basis(report.C.size - 1)
            assert report.error_table is None
            assert report.rows(xs) == [(x, eval_series(report.C, x, basis), None, None)
                                       for x in xs]

    def test_exact_undefined_everywhere_gives_bare_rows(self):
        problem = solver.problem_from_strings(1.0, 0.0, "1", "u", "0", 1.0, 1.0,
                                              exact="ln(x - 2)")
        report = solve(problem, 3)
        assert [row[2:] for row in report.error_table] == [(None, None)] * 10
        assert report.C.tobytes() == solve(_with(problem, exact=None), 3).C.tobytes()

    def test_conditioning_warning_attached(self):
        report = solve(lane_emden(1), 15)  # kappa_2(J) = 1.4e13
        assert report.cond_J > 100 * solver.CONDITION_WARNING_THRESHOLD
        assert any("condition" in w for w in report.warnings)
        low = solve(lane_emden(1), 4)  # kappa_2(J) = 229
        assert low.cond_J < 1e3 and low.warnings == ()

    def test_accepted_start_point_factorizes_nothing(self):
        # u = 0 solves it, so Newton takes no step; g' does not exist at
        # u = 0, so a Jacobian formed at the start point would raise
        problem = solver.problem_from_strings(1.0, 0.0, "1", "sqrt(u)", "0", 0.0, 0.0)
        report = solve(problem, 4)
        assert report.newton_iters == 0 and report.residual_inf == 0.0
        assert report.J is None and report.cond_J is None
        assert report.warnings == ()

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergenceError) as err:
            solve(lane_emden(1), 3, max_iters=0)
        assert err.value.best_residual > 0

    def test_negative_max_iters_refused(self):
        # it used to report "did not converge in 0 iterations"
        with pytest.raises(ValueError, match="max_iters must be >= 0, got -1"):
            solve(lane_emden(1), 3, max_iters=-1)

    @pytest.mark.parametrize(
        "N,max_iters,name",
        [(6.0, 50, "N"), ("6", 50, "N"), (6, 2.5, "max_iters"), (6, None, "max_iters")],
    )
    def test_non_integer_N_and_max_iters_refused_by_name(self, N, max_iters, name):
        # 6.0 used to fail inside numpy, and max_iters = 2.5 ran 3 iterations
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            solve(lane_emden(5), N, max_iters=max_iters)

    def test_numpy_integers_accepted(self):
        report = solve(lane_emden(5), np.int64(6), max_iters=np.int64(50))
        assert report.C.tobytes() == solve(lane_emden(5), 6).C.tobytes()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            EmdenFowlerProblem(
                alpha=0.4, lam=1.0,
                s=expr.parse("1", {"x"}), g=expr.parse("u", {"u"}),
                h=expr.parse("0", {"x"}), a=0.0, b=0.0,
            )
        with pytest.raises(ValueError):
            EmdenFowlerProblem(
                alpha=1.0, lam=-1.0,
                s=expr.parse("1", {"x"}), g=expr.parse("u", {"u"}),
                h=expr.parse("0", {"x"}), a=0.0, b=0.0,
            )
        with pytest.raises(ValueError):
            solve(lane_emden(1), 1)

    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_b_refused_when_lambda_positive(self, alpha):
        # lambda / x^alpha D^(alpha) u is unbounded at x = 0 unless b = 0
        with pytest.raises(ValueError, match=re.escape(
                "b must be 0 when lambda > 0, got lambda = 2.0 and b = 0.5: ")
                + ".*unbounded at x = 0"):
            _with(lane_emden(5, alpha), b=0.5)
        # lambda = 0 leaves b free
        assert _with(lane_emden(5, alpha), lam=0.0, b=0.5).b == 0.5


def _with(problem, **changes):
    fields = {k: getattr(problem, k) for k in ("alpha", "lam", "s", "g", "h", "a", "b")}
    return EmdenFowlerProblem(**{**fields, **changes})


class TestNonFiniteInput:
    # Newton's stop test `rnorm > stop` is false for NaN, so any of these
    # would otherwise be reported as solved without a single step
    @pytest.mark.parametrize("field,name", [("lam", "lambda"), ("a", "a"), ("b", "b")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_problem_rejects_non_finite_data(self, field, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            _with(lane_emden(1), **{field: value})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_solve_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            solve(lane_emden(1), 4, tol=tol)

    def test_non_finite_start_residual_names_the_point(self):
        problem = _with(lane_emden(1), h=expr.parse("1e308*10 - 1e308*10", {"x"}))
        x0 = collocation_points(4)[0]
        with pytest.raises(SolverError, match=f"residual nan .* x = {x0!r}: .* h\\(x\\) = nan"):
            solve(problem, 4)

    def test_non_finite_s_names_itself_before_any_product(self):
        # s(x) g(a) = inf * 0 used to warn and then blame a NaN residual
        problem = _with(lane_emden(1), s=expr.parse("1e308*10", {"x"}),
                        g=expr.parse("u - 1", {"u"}), a=1.0)
        x0 = collocation_points(4)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=f"^s\\(x\\) = inf at collocation point x = {x0!r} is not finite$"):
                solve(problem, 4)

    def test_overflowing_stop_level_names_its_scale(self):
        # |A||C| + |rhs| of the row u(0) = a is 2e308: an infinite stop level
        # would accept the start point's residual of 1e308 as converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SolverError,
                match=r"stop level overflows: .* initial condition u\(0\) = a is 1e\+308 \+ 0.0 \+ 1e\+308",
            ):
                solve(_with(lane_emden(1), a=1e308), 4)

    @pytest.mark.parametrize("h", ["1.7e308", "-1.7e308"])
    def test_non_finite_newton_step_names_itself(self, h):
        # the linear solve overflows into NaN: refused before the residual
        # at the trial point is evaluated, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SolverError,
                match=r"^Newton step not finite at iteration 0: J d = -r gives d\[0\] = nan$",
            ):
                solve(_with(lane_emden(1), h=expr.parse(h, {"x"})), 4)

    def test_non_finite_jacobian_names_its_row(self):
        # s g'(u) = 1e308 is finite, but s g'(u) B(x) overflows in J: the
        # step is refused naming J's row, not d.  J is formed under the
        # step's errstate, so numpy warns of nothing
        x0 = collocation_points(4)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=re.escape(
                    f"Newton step not finite at iteration 0: the Jacobian row at collocation "
                    f"point x = {x0!r} overflows, with s(x) g'(u) = 1e+308 at u = 1.0")):
                solve(_with(lane_emden(1), s=expr.parse("1e308", {"x"})), 4)

    def test_overflowing_s_times_g_prime_names_its_row(self):
        # s g'(u) = 1e305 * 10 * 2^9 is itself inf, while s g(u) = 1.024e308
        # is finite: the row is named with the product, and nothing warns
        x0 = collocation_points(4)[0]
        problem = _with(lane_emden(1), s=expr.parse("1e305", {"x"}),
                        g=expr.parse("u^10", {"u"}), a=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=re.escape(
                    f"Newton step not finite at iteration 0: the Jacobian row at collocation "
                    f"point x = {x0!r} overflows, with s(x) g'(u) = inf at u = 2.0")):
                solve(problem, 4)


class TestExactNewton:
    @pytest.mark.parametrize(
        "problem,N",
        [(lane_emden(5, 0.8), 10), (lane_emden(1, 0.6), 12), (mixed_power(0.75), 10),
         (shifted_power(0.9), 6)],
        ids=["polytrope", "floor_stop", "mixed", "shifted"],
    )
    def test_reported_residual_is_the_true_residual(self, problem, N):
        report = solve(problem, N)
        basis, D1, D2 = _matrices(problem, N)
        r = assemble_residual(problem, basis, D1, D2, report.C)
        assert report.residual_inf == float(np.max(np.abs(r)))

    @pytest.mark.parametrize("alpha", [0.7 + 0.025 * k for k in range(12)])
    @pytest.mark.parametrize("make", [mixed_power, shifted_power])
    def test_linear_problems_take_one_step(self, make, alpha):
        assert solve(make(alpha), 10).newton_iters == 1

    def test_one_residual_per_trial_point(self, monkeypatch):
        # the Jacobian is exact: no residual evaluations beyond the start
        # point and the accepted full step
        calls = []
        residual = solver._residual

        def counted(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(solver, "_residual", counted)
        assert solve(mixed_power(0.8), 10).newton_iters == 1
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "problem,N,iters,floor_calls,stops_on_floor",
        [(lane_emden(5, 0.8), 10, 4, 0, False), (lane_emden(1, 0.6), 12, 1, 1, True)],
        ids=["below_tol", "floor_stop"],
    )
    def test_floor_computed_only_above_tol(
        self, monkeypatch, problem, N, iters, floor_calls, stops_on_floor
    ):
        # the stop level is max(tol, floor): below_tol ends at 9.3e-12 <= tol
        # with no floor for its last iterate, and the floor's bound lies below
        # every residual before it; floor_stop accepts 1.5e-8 > tol on the
        # floor, so it still computes it there, and only there
        tol, levels, floor = 1e-10, [], solver._floor
        monkeypatch.setattr(solver, "_floor",
                            lambda *args: levels.append(floor(*args)) or levels[-1])
        report = solve(problem, N, tol=tol)
        assert (report.newton_iters, len(levels)) == (iters, floor_calls)
        if stops_on_floor:
            assert tol < report.residual_inf <= levels[-1]
        else:
            assert report.residual_inf <= tol
        monkeypatch.undo()
        assert report.C.tobytes() == solve(problem, N, tol=tol).C.tobytes()

    @pytest.mark.parametrize("problem,N", [(lane_emden(1, 0.6), 12), (mixed_power(0.7), 12)],
                             ids=["floor_stop", "nonzero_h"])
    def test_floor_equals_its_formula_at_every_call(self, monkeypatch, problem, N):
        # the floor forms |A| and |rhs| itself: at each call it must equal
        # 4 eps max(|A||C| + |s g(Phi C)| + |rhs|), with A from an uncached
        # record and s, g, rhs evaluated here.  The largest row holds s g in
        # both cells, and h too in nonzero_h (h = 0 in lane_emden)
        basis, D1, D2 = _matrices(problem, N)
        A = solver._operator(N, problem.alpha, problem.lam, D1.D, D2.D).A
        pts, f = collocation_points(N), problem.compiled
        Phi = eval_basis(np.array(pts), basis)
        rhs = np.array([f.h(x) for x in pts] + [problem.a, problem.b])
        values, floor = [], solver._floor

        def checked(system, sg, C):
            sg_here = np.array([f.s(x) * f.g(u) for x, u in zip(pts, (Phi @ C).tolist())])
            scale = np.abs(A) @ np.abs(C) + np.abs(rhs)
            scale[: N - 1] += np.abs(sg_here)
            values.append((floor(system, sg, C),
                           solver.ROUNDING_FLOOR_FACTOR * np.finfo(float).eps * scale.max()))
            return values[-1][0]

        monkeypatch.setattr(solver, "_floor", checked)
        solve(problem, N)
        assert values and all(got == want for got, want in values)

    def test_missing_derivative_is_an_eval_error(self):
        problem = EmdenFowlerProblem(
            alpha=1.0, lam=2.0, s=expr.parse("1", {"x"}),
            g=expr.parse("sqrt(u)", {"u"}), h=expr.parse("1", {"x"}), a=0.0, b=0.0,
        )
        with pytest.raises(expr.EvalError, match="derivative.*g'\\(u\\) at u=0.0"):
            solve(problem, 4)

    def test_newton_step_matches_np_linalg_solve_bit_for_bit(self, monkeypatch):
        # every step of lane_emden(1) and (5) at alpha = 0.51..1.00 and
        # N = 2..15, the last J of each solve included: d is
        # np.linalg.solve's, bit for bit, and the caller's errstate is back
        steps, step = [], solver._newton_step
        monkeypatch.setattr(solver, "_newton_step",
                            lambda *args: steps.append((args, step(*args))) or steps[-1][1])
        errstate = np.geterr()
        finals = [solve(lane_emden(n, k / 100), N).J
                  for n in (1, 5) for k in range(51, 101) for N in range(2, 16)]
        assert np.geterr() == errstate
        assert len(steps) >= len(finals) == 1400
        factorized = {J.tobytes() for _, (J, _) in steps}
        assert all(J.tobytes() in factorized for J in finals)
        for (*_, r), (J, d) in steps:
            assert d.tobytes() == np.linalg.solve(J, -r).tobytes()

    @pytest.mark.parametrize("values", [
        [float("nan"), 1.0, -2.0], [1.0, float("nan"), -2.0], [1.0, -2.0, float("nan")],
        [1.0, float("inf"), -2.0], [1.0, -float("inf"), -2.0],
        [float("inf"), 1.0, -float("inf")], [-0.0, 0.0], [-0.0], [3.0, -3.0, 2.5],
        [1e308, 1e308, -1e308], [5e-324, -1e-320],
    ], ids=["nan_first", "nan_middle", "nan_last", "inf", "minus_inf", "both_infs",
            "signed_zeros", "minus_zero", "tie", "sum_overflows", "subnormal"])
    def test_norm_inf_equals_numpy_bit_for_bit(self, values):
        got, want = solver._norm_inf(values), float(np.abs(np.array(values)).max())
        assert math.isnan(got) == math.isnan(want)
        if not math.isnan(want):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_phi_has_no_zero_entry_up_to_the_cap(self):
        # _newton_step relies on it: inf * 0 would flag an invalid value
        # while J is formed, and read as a singular pivot
        for N in range(2, solver.DEGREE_CAP + 1):
            assert np.all(solver._grid(N)[2] != 0.0)

    def test_singular_jacobian_raises(self):
        # N = 2: J's collocation row 2*e_2 - 8*B(1/2) = [-8, -4, -16] is an
        # exact combination of the initial-condition rows [1, 0, 2], [0, 1, 0]
        problem = EmdenFowlerProblem(
            alpha=1.0, lam=0.0, s=expr.parse("8", {"x"}),
            g=expr.parse("-u", {"u"}), h=expr.parse("1", {"x"}), a=0.0, b=0.0,
        )
        with pytest.raises(solver.SingularJacobianError) as err:
            solve(problem, 2)
        assert err.value.iteration == 0


def _manufactured(g, alpha=0.9, lam=1.0, a=1.0, c=0.25):
    """Problem in g with s = 1 whose forcing makes u* = a + c x^(2 alpha)
    exact, as in the benchmark's nonlinear family."""
    a2 = 2.0 * alpha
    ustar = f"({a!r} + {c!r}*x^{a2!r})"
    h = (f"{c!r}*gamma(1 + {a2!r}) + {lam!r}*{c!r}*gamma(1 + {a2!r})"
         f"/gamma(1 + {alpha!r}) + {g.replace('u', ustar)}")
    return solver.problem_from_strings(alpha, lam, "1", g, h, a, 0.0, exact=ustar)


def _cubic(alpha=0.9, lam=1.0, a=1.0, c=0.25):
    return _manufactured("u^3", alpha, lam, a, c)


def _pool_alpha(k):
    """Point k of the benchmark's alpha-sweep pool of 2000 over [0.7, 1)."""
    return 0.7 + 0.3 * (k + 0.5) / 2000


def _outcome(problem, N, **options):
    try:
        report = solve(problem, N, **options)
    except (SolverError, expr.EvalError) as err:
        return type(err), str(err)
    return report.C.tobytes(), report.newton_iters, report.residual_inf


class TestFloorBound:
    @pytest.mark.parametrize(
        "problem,N,options",
        [(_manufactured("u^3", 0.75, 0.5, 0.5, -0.5), 6, {}),
         (_manufactured("u^5", 0.9, 2.0, 1.0, 0.5), 6, {}),
         (_manufactured("exp(u)", 1.0, 1.0, 0.5, 0.25), 6, {}),
         (_manufactured("sin(u)", 0.75, 2.0, 1.0, -0.25), 6, {}),
         (mixed_power(_pool_alpha(0)), 10, {}),
         (mixed_power(_pool_alpha(1990)), 10, {}),
         (shifted_power(_pool_alpha(20)), 10, {}),
         (shifted_power(_pool_alpha(1990)), 10, {}),
         (lane_emden(1, 0.6), 12, {}),
         (lane_emden(5), 6, {"tol": 0.0, "max_iters": 8}),
         (_with(lane_emden(1), a=1e308), 4, {}),
         (_with(lane_emden(1), h=expr.parse("1.7e308", {"x"})), 4, {})],
        ids=["cubic", "quintic", "exp", "sin", "mixed_pool0", "mixed_pool1990",
             "shifted_pool20", "shifted_pool1990", "floor_stop", "tol0", "a1e308", "h1.7e308"],
    )
    def test_bound_changes_no_outcome(self, monkeypatch, problem, N, options):
        bound, floor_at, pairs = solver._floor_bound, solver._floor, []

        def checked(system, sg, C):
            try:
                floor = floor_at(system, sg, C)
            except SolverError:  # the floor overflows
                floor = math.inf
            pairs.append((bound(system, sg, C), floor))
            return pairs[-1][0]

        monkeypatch.setattr(solver, "_floor_bound", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on = _outcome(problem, N, **options)
        assert pairs and all(b >= floor for b, floor in pairs)
        monkeypatch.setattr(solver, "_floor_bound", lambda *args: math.inf)
        assert _outcome(problem, N, **options) == on


def _clear_caches():
    solver._grid.cache_clear()
    solver._cached_operator.cache_clear()


class TestOperatorCache:
    @pytest.mark.parametrize(
        "problems,N",
        [([lane_emden(5)], 8), ([mixed_power(0.7)], 10), ([_cubic()], 6),
         # one (alpha, N) key, two lambdas: lambda is part of A's key
         ([_cubic(lam=0.5), _cubic(lam=2.0)], 6)],
        ids=["lane_emden5", "mixed_power07", "cubic", "cubic_two_lambdas"],
    )
    def test_warm_solve_equals_cold(self, problems, N):
        colds = []
        for problem in problems:
            _clear_caches()
            colds.append(solve(problem, N))
        for _ in range(2):  # the problems alternate on warm caches
            for problem, cold in zip(problems, colds):
                warm = solve(problem, N)
                assert cold.C.tobytes() == warm.C.tobytes()
                assert cold.newton_iters == warm.newton_iters
                assert cold.residual_inf == warm.residual_inf
                assert cold.error_table is not None
                assert np.array_equal(cold.error_table, warm.error_table)
                assert cold.J.tobytes() == warm.J.tobytes()

    def test_cached_arrays_refuse_writes(self):
        problem = _cubic()
        solve(problem, 6)
        _, _, Phi, B0 = solver._grid(6)
        op = solver._cached_operator(problem.alpha, 6, problem.lam)
        assert op.R == float(np.abs(op.A).sum(axis=1).max())
        arrays = (Phi, B0, op.Phi, op.A)
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = a.copy()  # same values: a failing check corrupts nothing

    def test_operators_built_once_per_key(self, monkeypatch):
        calls = {"build_D_pair": 0, "build_basis": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fraccalc, "build_D_pair",
                            counting("build_D_pair", fraccalc.build_D_pair))
        monkeypatch.setattr(solver, "build_basis", counting("build_basis", build_basis))
        _clear_caches()
        solve(_cubic(0.75), 6)
        assert calls == {"build_D_pair": 1, "build_basis": 1}
        # another problem on the same key reuses every operator
        solve(_cubic(0.75, a=0.5, c=-0.5), 6)
        assert calls == {"build_D_pair": 1, "build_basis": 1}
        # a new lambda or a new order on the same N builds its record, both
        # Caputo matrices from one paired pass, on the cached grid
        solve(_cubic(0.75, lam=2.0), 6)
        assert calls == {"build_D_pair": 2, "build_basis": 1}
        solve(_cubic(1.0), 6)
        assert calls == {"build_D_pair": 3, "build_basis": 1}
        _clear_caches()

    def test_assemble_residual_uses_the_matrices_it_is_given(self):
        problem, N = _cubic(), 6
        before = solve(problem, N)
        basis, D1, D2 = _matrices(problem, N)
        r = assemble_residual(problem, basis, D1, D2, before.C)
        perturbed = fraccalc.OperationalMatrix(D1.alpha, D1.N, D1.D + 1e-3)
        r_perturbed = assemble_residual(problem, basis, perturbed, D2, before.C)
        assert not np.array_equal(r, r_perturbed)
        after = solve(problem, N)
        assert np.array_equal(after.C, before.C)
        assert after.residual_inf == before.residual_inf

    def test_assemble_residual_builds_the_cached_record(self, monkeypatch):
        problem, N = _cubic(), 6
        _clear_caches()
        cached = solver._cached_operator(problem.alpha, N, problem.lam)
        records, assemble = [], solver._assemble
        monkeypatch.setattr(solver, "_assemble",
                            lambda p, op: records.append(op) or assemble(p, op))
        basis, D1, D2 = _matrices(problem, N)
        assemble_residual(problem, basis, D1, D2, np.zeros(N + 1))
        [built] = records
        assert built is not cached
        for name, a, b in zip(solver._Operator._fields, built, cached):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), name
            else:
                assert a == b, name

    def test_assemble_residual_warm_equals_cold(self):
        problem, N = _cubic(), 6
        basis, D1, D2 = _matrices(problem, N)
        C = solve(problem, N).C
        _clear_caches()
        cold = assemble_residual(problem, basis, D1, D2, C)
        warm = assemble_residual(problem, basis, D1, D2, C)
        assert np.array_equal(cold, warm)

    def test_lambda_zero_skips_the_damping_term_bit_for_bit(self):
        # at lambda = 0 the damping term, 0 / x^alpha times Phi D_alpha^T,
        # is not formed; A is the one the full formula gives, byte for byte
        # (a -0.0 could have turned into +0.0; none does on this grid)
        for N in range(2, 16):
            basis, pts, Phi, B0 = solver._grid(N)
            for k in range(51, 101):
                alpha = k / 100
                D1, D2 = fraccalc.build_D_pair(alpha, basis)
                damping = 0.0 / np.array(pts) ** alpha
                full = np.vstack([Phi @ D2.T + damping[:, None] * (Phi @ D1.T), B0, D1 @ B0])
                A = solver._operator(N, alpha, 0.0, D1, D2).A
                assert A.tobytes() == full.tobytes(), (N, alpha)

    def test_assemble_residual_refuses_a_forced_basis_above_the_cap(self):
        problem = lane_emden(1)
        basis = build_basis(16, force=True)
        D = fraccalc.build_D(1.0, basis)
        with pytest.raises(ValueError, match="cap"):
            assemble_residual(problem, basis, D, fraccalc.build_D(2.0, basis), np.zeros(17))


class TestConditioning:
    def test_solve_runs_no_svd_and_builds_no_gram_matrix(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("called on the solve path")

        with monkeypatch.context() as m:
            for owner, name in ((np.linalg, "cond"), (np.linalg, "svd"),
                                (linalg, "gram"), (linalg, "condition_estimate")):
                m.setattr(owner, name, refused)
            _clear_caches()
            linear, nonlinear = solve(mixed_power(0.7), 10), solve(lane_emden(5), 8)
        assert linear.newton_iters == 1 and nonlinear.newton_iters > 1
        for report in (linear, nonlinear):
            assert report.cond_J == np.linalg.cond(report.J)
            with pytest.raises(ValueError):
                report.J[0, 0] = report.J[0, 0]
        # a linear g: J is the same at every iterate, the returned C included
        problem = mixed_power(0.7)
        op = solver._cached_operator(problem.alpha, 10, problem.lam)
        sdg = [problem.compiled.s(x) * problem.compiled.g_dual(u)[1]
               for x, u in zip(op.pts, (op.Phi @ linear.C).tolist())]
        J, _ = solver._newton_step(op.A, op.Phi, sdg, np.zeros(11))
        assert J.tobytes() == linear.J.tobytes()
        for report in (nonlinear, solve(lane_emden(5), 8)):  # kappa read, and not yet
            copy = pickle.loads(pickle.dumps(report))
            assert copy.J.tobytes() == nonlinear.J.tobytes()
            assert copy.cond_J == nonlinear.cond_J

    def test_cond_and_warnings_computed_once_on_first_access(self, monkeypatch):
        calls, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda J: calls.append(J) or cond(J))
        report = solve(lane_emden(1), 15)
        assert calls == []
        assert report.warnings and len(calls) == 1
        assert report.cond_J == cond(report.J) and len(calls) == 1
        assert report.warnings is report.warnings


class TestSolveReport:
    def test_error_table_computed_once_on_first_read(self, monkeypatch):
        calls, rows = [], solver.SolveReport.rows
        monkeypatch.setattr(solver.SolveReport, "rows",
                            lambda report, xs: calls.append(xs) or rows(report, xs))
        report = solve(mixed_power(0.7), 10)
        assert calls == []
        table = report.error_table
        assert len(calls) == 1 and report.error_table is table and len(table) == 10
        assert report.problem == mixed_power(0.7)

    def test_reports_compare_and_hash_by_identity(self):
        a, b = solve(lane_emden(5), 6), solve(lane_emden(5), 6)
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
        assert a.C.tobytes() == b.C.tobytes()

    @pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_copies_stay_read_only(self, duplicate, read_first):
        report = solve(lane_emden(5), 6)
        if read_first:  # the cached diagnostics travel with the copy
            report.cond_J, report.error_table
        dup = duplicate(report)
        for a in (dup.C, dup.J):
            with pytest.raises(ValueError):
                a[...] = a.copy()  # same values: a failing check corrupts nothing
        assert dup.C.tobytes() == report.C.tobytes() and dup.J.tobytes() == report.J.tobytes()
        assert dup.cond_J == report.cond_J
        assert repr(dup.error_table) == repr(report.error_table)


# lane_emden(n, alpha) over the supported domain.  (5, 0.6, 12) is left
# out here: it converges in 4 steps, but alpha = 0.6 + k 2^-52 takes 15
# steps at one k in [-20, 20], so its step count may depend on BLAS
# rounding; test_lane_emden_knife_edge_converges checks only that it and
# its neighbours converge
LANE_EMDEN_SWEEP = [
    (n, alpha, N)
    for n in (1, 5)
    for alpha in (0.6, 0.7, 0.8, 0.9, 1.0)
    for N in (6, 8, 10, 12, 15)
    if (n, alpha, N) != (5, 0.6, 12)
]


@pytest.mark.parametrize("n,alpha,N", LANE_EMDEN_SWEEP)
def test_lane_emden_sweep_converges(n, alpha, N):
    iters = solve(lane_emden(n, alpha), N).newton_iters
    if n == 1:
        assert iters == 1  # linear: one exact Newton step
    else:
        assert iters <= 5


@pytest.mark.parametrize("k", range(-20, 21))
def test_lane_emden_knife_edge_converges(k):
    # solve raises unless Newton converges.  No step-count bound: at k = 11
    # it takes 15 steps and stops on the rounding floor near 4e-7, and 3 or
    # 4 steps elsewhere
    solve(lane_emden(5, 0.6 + k * 2.0**-52), 12)


class TestCompiledExpressions:
    def test_constant_gamma_terms_of_h_are_evaluated_once(self, monkeypatch):
        solver._cached_operator(0.7, 10, 1.0)  # the Caputo matrices call gamma too
        calls = []
        gamma = math.gamma
        monkeypatch.setattr(math, "gamma", lambda z: calls.append(z) or gamma(z))
        # a built-in is compiled as it is built, the gamma terms of its
        # forcing folded then
        problem = mixed_power(0.7)
        report = solve(problem, 10)
        # once per gamma term, not once per term at each of the 9 points
        assert len(calls) == expr.to_string(problem.h).count("gamma(") == 7
        monkeypatch.undo()
        assert report.C.tobytes() == solve(mixed_power(0.7), 10).C.tobytes()

    def test_constant_subtree_that_raises_still_fails_at_solve_time(self):
        problem = _with(lane_emden(1), h=expr.parse("gamma(-1) + x", {"x"}))
        x0 = collocation_points(4)[0]
        with pytest.raises(expr.EvalError) as err:
            solve(problem, 4)
        assert str(err.value) == (
            f"gamma of non-positive value -1.0 "
            f"while evaluating h(x) at x={x0!r} in 'gamma(-1)'"
        )
        assert err.value.subexpr is problem.h.lhs

    def test_error_names_the_first_point_that_raises(self):
        # of the collocation points 0.854, 0.5 and 0.146 of N = 4,
        # sqrt(x - 0.6) is undefined at the last two
        problem = _with(lane_emden(1), h=expr.parse("sqrt(x - 0.6)", {"x"}))
        x1 = collocation_points(4)[1]
        with pytest.raises(expr.EvalError, match=f"h\\(x\\) at x={x1!r} in"):
            solve(problem, 4)

    def test_compiled_once_per_problem(self, monkeypatch):
        problem = _cubic()
        calls = []
        for name in ("compile_expression", "compile_with_derivative"):
            original = getattr(expr, name)
            monkeypatch.setattr(
                expr, name, lambda e, var, f=original: calls.append(var) or f(e, var)
            )
        for N in (4, 6, 8):
            solve(problem, N)
        residual_certificate(problem, solve(problem, 6).C, build_basis(6), [0.5])
        assert sorted(calls) == ["u", "u", "x", "x", "x"]  # s, h, exact; g, g'

    def test_compiled_forms_stay_out_of_eq_hash_repr_and_pickle(self):
        problem, fresh = _cubic(), _cubic()
        solve(problem, 6)
        assert "compiled" in vars(problem) and problem == fresh
        assert hash(problem) == hash(fresh) and repr(problem) == repr(fresh)
        copy = pickle.loads(pickle.dumps(problem))
        assert copy == problem and "compiled" not in vars(copy)
        assert solve(copy, 6).C.tobytes() == solve(problem, 6).C.tobytes()


class TestResidualCertificate:
    def test_exact_solution_constant_case(self):
        problem = lane_emden(0)
        basis = build_basis(2)
        rows = residual_certificate(
            problem, [4.0 / 3.0, 0.0, -1.0 / 6.0], basis,
            [k / 10.0 for k in range(1, 11)],
        )
        assert max(abs(r) for _, r in rows) <= 1e-10

    def test_exact_solution_shifted_power(self):
        problem = shifted_power(1.0)
        basis = build_basis(2)
        rows = residual_certificate(
            problem, [1.0, 0.0, 1.0], basis, [k / 10.0 for k in range(1, 11)]
        )
        assert max(abs(r) for _, r in rows) <= 1e-10

    def test_collocation_points_only(self):
        # collocation enforces the equation only at its own points: the
        # certificate must vanish there and not elsewhere
        problem = lane_emden(1)
        report = solve(problem, 3)
        basis = build_basis(3)
        at_points = residual_certificate(problem, report.C, basis, report.points)
        assert max(abs(r) for _, r in at_points) <= 1e-9
        elsewhere = residual_certificate(problem, report.C, basis, [0.5])
        assert abs(elsewhere[0][1]) > 1e-6

    def test_fractional_certificate_detects_projection_error(self):
        # fractional matrices are projections, so even the converged
        # algebraic solution leaves an order-of-projection residual
        problem = mixed_power(0.7)
        report = solve(problem, 4)
        basis = build_basis(4)
        rows = residual_certificate(problem, report.C, basis, list(report.points))
        worst = max(abs(r) for _, r in rows)
        assert 1e-8 < worst < 10.0

    def test_grid_domain_checked(self):
        problem = lane_emden(0)
        basis = build_basis(2)
        with pytest.raises(ValueError):
            residual_certificate(problem, [1.0, 0.0, 0.0], basis, [0.0])

    @pytest.mark.parametrize("C", [np.zeros(3), np.zeros(6), np.zeros((5, 1))])
    def test_coefficient_length_checked(self, C):
        # refused before the change of basis, whose matmul would fail unnamed
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient vector has shape {C.shape}, expected (5,)")):
            residual_certificate(lane_emden(1), C, build_basis(4), [0.5])

    def test_grid_arrays_agree_with_per_point_evaluation(self):
        # the whole-grid route against the per-point sum of each term;
        # numpy's pow may differ from libm's in the last bit
        problem, N = lane_emden(5, 0.7), 10
        C, basis = solve(problem, N).C, build_basis(N)
        grid = np.linspace(0.005, 1.0, 200)
        u = fraccalc.GeneralizedPolynomial.from_terms(
            (c, float(k)) for k, c in enumerate(basis.M.T @ C))
        d1 = fraccalc.caputo_polynomial(u, problem.alpha)
        d2 = fraccalc.caputo_polynomial(u, 2.0 * problem.alpha)
        f = problem.compiled
        rows = residual_certificate(problem, C, basis, grid)
        assert [x for x, _ in rows] == grid.tolist()
        for x, r in rows:
            per_point = d2(x) + problem.lam / x ** problem.alpha * d1(x) + f.s(x) * f.g(u(x)) - f.h(x)
            assert abs(r - per_point) <= 1e-11
