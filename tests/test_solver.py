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

    def test_conditioning_warning_attached(self):
        report = solve(lane_emden(1), 8)
        assert report.cond_Q > 1e12
        assert any("condition" in w for w in report.warnings)
        assert solve(lane_emden(1), 4).warnings == ()

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergenceError) as err:
            solve(lane_emden(1), 3, max_iters=0)
        assert err.value.best_residual > 0

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

    @pytest.mark.parametrize("b", [1e307, 1e308])
    def test_non_finite_newton_step_names_itself(self, b):
        # the linear solve overflows into NaN: refused before the residual
        # at the trial point is evaluated, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SolverError,
                match=r"^Newton step not finite at iteration 0: J d = -r gives d\[0\] = nan$",
            ):
                solve(_with(lane_emden(1), b=b), 4)


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

    def test_missing_derivative_is_an_eval_error(self):
        problem = EmdenFowlerProblem(
            alpha=1.0, lam=2.0, s=expr.parse("1", {"x"}),
            g=expr.parse("sqrt(u)", {"u"}), h=expr.parse("1", {"x"}), a=0.0, b=0.0,
        )
        with pytest.raises(expr.EvalError, match="derivative.*g\\(u\\) at u=0.0"):
            solve(problem, 4)

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

    def test_gram_condition_is_unchanged(self):
        report = solve(lane_emden(1), 6)
        assert report.cond_Q == linalg.condition_estimate(linalg.gram(build_basis(6)))


def _cubic(alpha=0.9, lam=1.0, a=1.0, c=0.25):
    """u^3 problem with s = 1 whose forcing makes u* = a + c x^(2 alpha)
    exact, as in the benchmark's nonlinear family."""
    a2 = 2.0 * alpha
    ustar = f"({a!r} + {c!r}*x^{a2!r})"
    h = (f"{c!r}*gamma(1 + {a2!r}) + {lam!r}*{c!r}*gamma(1 + {a2!r})"
         f"/gamma(1 + {alpha!r}) + {ustar}^3")
    return solver.problem_from_strings(alpha, lam, "1", "u^3", h, a, 0.0, exact=ustar)


def _clear_caches():
    solver._cached_degree.cache_clear()
    solver._cached_operators.cache_clear()


class TestOperatorCache:
    @pytest.mark.parametrize(
        "problem,N",
        [(lane_emden(5), 8), (mixed_power(0.7), 10), (_cubic(), 6)],
        ids=["lane_emden5", "mixed_power07", "cubic"],
    )
    def test_warm_solve_equals_cold(self, problem, N):
        _clear_caches()
        cold = solve(problem, N)
        warm = solve(problem, N)
        assert np.array_equal(cold.C, warm.C)
        assert cold.residual_inf == warm.residual_inf
        assert cold.error_table is not None
        assert np.array_equal(cold.error_table, warm.error_table)
        assert cold.cond_Q == warm.cond_Q

    def test_cached_arrays_refuse_writes(self):
        problem = _cubic()
        solve(problem, 6)
        degree = solver._cached_degree(6)
        ops = solver._cached_operators(problem.alpha, 6)
        arrays = (degree.x, degree.Phi, degree.B0, degree.table_rows,
                  ops.D_alpha.D, ops.D_2alpha.D, ops.P2, ops.P1, ops.ic)
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = a.copy()  # same values: a failing check corrupts nothing

    def test_operators_built_once_per_key(self, monkeypatch):
        calls = {"build_D": 0, "build_basis": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fraccalc, "build_D", counting("build_D", fraccalc.build_D))
        monkeypatch.setattr(solver, "build_basis", counting("build_basis", build_basis))
        _clear_caches()
        solve(_cubic(0.75), 6)
        assert calls == {"build_D": 2, "build_basis": 1}
        # another problem on the same key reuses every operator
        solve(_cubic(0.75, lam=2.0, a=0.5, c=-0.5), 6)
        assert calls == {"build_D": 2, "build_basis": 1}
        # a new order on the same N builds its matrices only
        solve(_cubic(1.0), 6)
        assert calls == {"build_D": 4, "build_basis": 1}
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

    def test_assemble_residual_warm_equals_cold(self):
        problem, N = _cubic(), 6
        basis, D1, D2 = _matrices(problem, N)
        C = solve(problem, N).C
        _clear_caches()
        cold = assemble_residual(problem, basis, D1, D2, C)
        warm = assemble_residual(problem, basis, D1, D2, C)
        assert np.array_equal(cold, warm)

    def test_assemble_residual_refuses_a_forced_basis_above_the_cap(self):
        problem = lane_emden(1)
        basis = build_basis(16, force=True)
        D = fraccalc.build_D(1.0, basis)
        with pytest.raises(ValueError, match="cap"):
            assemble_residual(problem, basis, D, fraccalc.build_D(2.0, basis), np.zeros(17))


# lane_emden(n, alpha) over the supported domain; every cell converges
# except (5, 0.6, 12), left out because its outcome may depend on BLAS
# rounding (see CHANGES.md)
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
