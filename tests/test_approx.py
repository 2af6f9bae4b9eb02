import math

import numpy as np
import pytest

from fracemden import approx
from fracemden.approx import (
    EvaluationError,
    integrate_01,
    l2_error,
    project,
)
from fracemden.polybasis import boubaker_polynomial, build_basis, eval_series


def _gl_integrate(n, f):
    nodes, weights = approx._gl01(n)
    return float(weights @ np.array([f(float(x)) for x in nodes]))


class TestGaussLegendre:
    def test_midpoint(self):
        nodes, weights = approx._gl01(1)
        np.testing.assert_allclose(nodes, [0.5])
        np.testing.assert_allclose(weights, [1.0])

    def test_cubic_exact_with_two_points(self):
        assert _gl_integrate(2, lambda x: x ** 3) == pytest.approx(0.25, rel=0, abs=1e-14)

    def test_fractional_power(self):
        # plain Gauss points converge only algebraically on the singular-derivative
        # integrand: 7.0e-5 at 16 points (the graded rule below reaches 1e-12)
        assert _gl_integrate(16, lambda x: x ** 0.3) == pytest.approx(1 / 1.3, rel=0, abs=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_weights_sum_to_one(self, n):
        assert approx._gl01(n)[1].sum() == pytest.approx(1.0, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_exactness_degree(self, n):
        for k in range(2 * n):
            got = _gl_integrate(n, lambda x: x ** k)
            assert got == pytest.approx(1.0 / (k + 1), rel=0, abs=1e-13)

    def test_cached_rule_is_read_only(self):
        # _quad_nodes hands the cached arrays of _gl01 to every caller, so a
        # write through one of them would corrupt all later quadratures
        nodes, weights = approx._gl01(approx.QUAD_POINTS)
        xs, ws = approx._quad_nodes(False)[0]
        assert xs is nodes and ws is weights
        for a in (nodes, weights):
            with pytest.raises(ValueError):
                a[0] = a[0]  # the same value: a failing check corrupts nothing


class TestIntegrate01:
    def test_polynomial(self):
        assert integrate_01(lambda x: 3 * x * x) == pytest.approx(1.0, rel=1e-14)

    def test_singular_power_graded(self):
        got = integrate_01(lambda x: x ** 0.3 if x > 0 else 0.0, singular_at_zero=True)
        assert got == pytest.approx(1 / 1.3, rel=0, abs=1e-12)

    def test_nonfinite_sample(self):
        with pytest.raises(EvaluationError) as err:
            integrate_01(lambda x: float("nan"))
        assert 0.0 <= err.value.x <= 1.0


class TestProject:
    def test_constant(self):
        C = project(lambda x: 3.0, build_basis(2))
        np.testing.assert_allclose(C, [3.0, 0.0, 0.0], rtol=0, atol=1e-13)

    def test_shifted_square(self):
        C = project(lambda x: 3.0 + x * x, build_basis(2))
        np.testing.assert_allclose(C, [1.0, 0.0, 1.0], rtol=0, atol=1e-13)

    def test_fractional_power_matches_operational_row(self):
        # the order-0.7 matrix row 1 is the projection of x^0.3 scaled by
        # 1/Gamma(1.3); the quadrature route must land on the same vector
        from fracemden.fraccalc import build_D

        basis = build_basis(4)
        C = project(lambda x: x ** 0.3 if x > 0 else 0.0, basis, singular_at_zero=True)
        row1 = build_D(0.7, basis).D[1]
        np.testing.assert_allclose(C, math.gamma(1.3) * row1, rtol=0, atol=1e-9)

    def test_nonfinite_sample_carries_point(self):
        basis = build_basis(3)
        with pytest.raises(EvaluationError):
            project(lambda x: 1.0 / (x - 0.5) if x != 0.5 else float("inf"), basis)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_idempotence(self, N):
        basis = build_basis(N)
        rng = np.random.default_rng(2024 + N)
        for _ in range(100):
            C = rng.uniform(-1.0, 1.0, N + 1)
            got = project(lambda x: eval_series(C, x, basis), basis)
            np.testing.assert_allclose(got, C, rtol=0, atol=1e-10)

    @pytest.mark.xfail(
        strict=True,
        reason="float64 information floor: recovering degree-8 coefficients "
        "from eps-noisy samples costs ~3e-10 through any sampling operator "
        "(best inverse-norm ~7e5 times ~2 ulp input noise); the 1e-9 "
        "companion test below passes",
    )
    def test_idempotence_degree8_at_1e10(self):
        basis = build_basis(8)
        rng = np.random.default_rng(2024 + 8)
        for _ in range(100):
            C = rng.uniform(-1.0, 1.0, 9)
            got = project(lambda x: eval_series(C, x, basis), basis)
            np.testing.assert_allclose(got, C, rtol=0, atol=1e-10)

    def test_idempotence_degree8_at_float_floor(self):
        basis = build_basis(8)
        rng = np.random.default_rng(2024 + 8)
        for _ in range(100):
            C = rng.uniform(-1.0, 1.0, 9)
            got = project(lambda x: eval_series(C, x, basis), basis)
            np.testing.assert_allclose(got, C, rtol=0, atol=1e-9)


class TestExactLayer:
    @pytest.mark.parametrize("N", range(16))
    def test_interpolate_exact_equals_vandermonde_solve(self, N):
        # the reference: the exact Boubaker Vandermonde V[i][n] = B_n(x_i),
        # by exact Horner at the Lobatto nodes, solved by Gaussian elimination
        from fractions import Fraction

        from fracemden.linalg import solve_fractions

        nodes = [0.5] if N == 0 else [(math.cos(i * math.pi / N) + 1.0) / 2.0
                                      for i in range(N + 1)]
        V = []
        for x in nodes:
            row = []
            for n in range(N + 1):
                acc = Fraction(0)
                for c in reversed(boubaker_polynomial(n).coeffs):
                    acc = acc * Fraction(x) + Fraction(c)
                row.append(acc)
            V.append(row)
        rng = np.random.default_rng(34 + N)
        for _ in range(20):
            vals = (rng.choice([-1.0, 1.0], N + 1) * 10.0 ** rng.uniform(-8, 11, N + 1)).tolist()
            want = np.array([float(v) for v in solve_fractions(V, [Fraction(v) for v in vals])])
            assert approx._interpolate_exact(nodes, vals).tobytes() == want.tobytes()

    @staticmethod
    def _project_legendre_per_row(f, basis, singular_at_zero):
        # one Horner loop and one fsum per Legendre row, then the exact
        # change of basis in Fractions
        from fractions import Fraction

        N = basis.N
        L = [[(-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j)
              for j in range(N + 1)] for k in range(N + 1)]
        panels = [(xs, ws, np.array([f(float(x)) for x in xs]))
                  for xs, ws in approx._quad_nodes(singular_at_zero)]
        a = []
        for k in range(N + 1):
            total = 0.0
            for xs, ws, fv in panels:
                pv = np.zeros_like(xs)
                for j in range(N, -1, -1):
                    pv = pv * xs + L[k][j]
                total += math.fsum(ws * fv * pv)
            a.append(Fraction((2 * k + 1) * total))
        T = approx.legendre_to_boubaker_int(N).tolist()
        return np.array([float(sum(t * ak for t, ak in zip(row, a))) for row in T])

    @pytest.mark.parametrize("N", [2, 8, 15])
    @pytest.mark.parametrize("f,singular", [
        (lambda x: math.exp(x) * math.cos(3 * x), False),
        (lambda x: x ** 0.3 * (1 + x), True),
    ])
    def test_project_legendre_bit_equal_to_per_row_loop(self, N, f, singular):
        basis = build_basis(N)
        got = approx._project_legendre(f, basis, singular)
        want = self._project_legendre_per_row(f, basis, singular)
        assert got.tobytes() == want.tobytes()


class TestL2Error:
    def test_exact_member(self):
        basis = build_basis(3)
        e2 = np.array([0.0, 0.0, 1.0, 0.0])
        b2 = lambda x: x * x + 2.0
        assert l2_error(b2, e2, basis) <= 1e-12

    def test_exact_representation(self):
        basis = build_basis(2)
        assert l2_error(lambda x: 3 + x * x, [1.0, 0.0, 1.0], basis) <= 1e-12

    def test_convergence(self):
        f = lambda x: math.exp(x * x)
        errs = {}
        for N in (2, 6):
            basis = build_basis(N)
            errs[N] = l2_error(f, project(f, basis), basis)
        assert errs[6] < errs[2]


class TestOptimality:
    def test_projection_is_first_order_optimal(self):
        f = lambda x: math.exp(x * x)
        basis = build_basis(5)
        C = project(f, basis)
        base = l2_error(f, C, basis)
        for j in range(6):
            for sign in (1.0, -1.0):
                Cp = C.copy()
                Cp[j] += sign * 1e-3
                assert l2_error(f, Cp, basis) >= base


class TestMonotoneConvergence:
    @pytest.mark.parametrize(
        "f",
        [math.sin, lambda x: math.exp(x * x), lambda x: 1.0 / (1.0 + x)],
        ids=["sin", "exp_sq", "rational"],
    )
    def test_l2_error_strictly_decreases(self, f):
        errs = []
        for N in range(2, 9):
            basis = build_basis(N)
            errs.append(l2_error(f, project(f, basis), basis))
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt < prev + 1e-12

