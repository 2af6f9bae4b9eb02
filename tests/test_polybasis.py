import math
from fractions import Fraction

import numpy as np
import pytest

from fracemden.polybasis import (
    Polynomial,
    boubaker_coefficient,
    boubaker_polynomial,
    boubaker_recurrence_check,
    build_basis,
    build_M,
    eval_basis,
    eval_series,
)


class TestPolynomial:
    def test_degree_ignores_trailing_zeros(self):
        assert Polynomial((2.0, 0.0, 1.0, 0.0, 0.0)).degree == 2

    def test_zero_polynomial_degree(self):
        assert Polynomial((0.0, 0.0)).degree is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())

    def test_evaluation(self):
        p = Polynomial((2.0, 0.0, 1.0))  # x^2 + 2
        assert p(0.0) == 2.0
        assert p(3.0) == 11.0


class TestCoefficient:
    def test_n0(self):
        assert boubaker_coefficient(0, 0) == 1

    def test_n2_p1(self):
        # ((2-4)/(2-1)) * C(1,1) * (-1) = 2
        assert boubaker_coefficient(2, 1) == 2

    def test_n4_p2(self):
        # ((4-8)/(4-2)) * C(2,2) * (+1) = -2
        assert boubaker_coefficient(4, 2) == -2

    @pytest.mark.parametrize("n,p", [(2, 2), (3, -1), (0, 1), (5, 3)])
    def test_out_of_range_p(self, n, p):
        with pytest.raises(ValueError):
            boubaker_coefficient(n, p)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            boubaker_coefficient(-1, 0)

    def test_matches_rational_formula(self):
        for n in range(1, 41):
            for p in range(n // 2 + 1):
                want = Fraction(n - 4 * p, n - p) * math.comb(n - p, p) * (-1) ** p
                assert boubaker_coefficient(n, p) == want


class TestBoubakerPolynomial:
    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (0, (1.0,)),
            (1, (0.0, 1.0)),
            (2, (2.0, 0.0, 1.0)),
            (3, (0.0, 1.0, 0.0, 1.0)),
            (4, (-2.0, 0.0, 0.0, 0.0, 1.0)),
        ],
    )
    def test_low_degrees(self, n, coeffs):
        assert boubaker_polynomial(n).coeffs == coeffs

    @pytest.mark.parametrize("n", range(21))
    def test_monic_exact_degree(self, n):
        p = boubaker_polynomial(n)
        assert p.degree == n
        assert p.coeffs[n] == 1.0

    @pytest.mark.parametrize("n", range(2, 21))
    def test_parity_sparsity(self, n):
        p = boubaker_polynomial(n)
        for k, c in enumerate(p.coeffs):
            if (n - k) % 2 == 1:
                assert c == 0.0


class TestRecurrence:
    @pytest.mark.parametrize("N", [3, 6, 10, 20])
    def test_consistency(self, N):
        assert boubaker_recurrence_check(N)

    def test_independent_reconstruction(self):
        # rebuild the family by the recurrence with plain integer lists and
        # compare against the closed form
        polys = {1: [0, 1], 2: [2, 0, 1]}
        for m in range(3, 16):
            prev1, prev2 = polys[m - 1], polys[m - 2]
            nxt = [0] + prev1
            for i, c in enumerate(prev2):
                nxt[i] -= c
            polys[m] = nxt
            assert tuple(float(c) for c in nxt) == boubaker_polynomial(m).coeffs

    def test_requires_n_at_least_3(self):
        with pytest.raises(ValueError):
            boubaker_recurrence_check(2)


class TestBuildM:
    def test_n1(self):
        np.testing.assert_array_equal(build_M(1), np.eye(2))

    def test_n2(self):
        np.testing.assert_array_equal(
            build_M(2), [[1, 0, 0], [0, 1, 0], [2, 0, 1]]
        )

    def test_n4_row4(self):
        np.testing.assert_array_equal(build_M(4)[4], [-2, 0, 0, 0, 1])

    @pytest.mark.parametrize("N", [3, 8, 15, 20])
    def test_unit_lower_triangular_with_parity(self, N):
        M = build_M(N)
        for n in range(N + 1):
            assert M[n, n] == 1.0
            for k in range(N + 1):
                if k > n or (n - k) % 2 == 1:
                    assert M[n, k] == 0.0

    @pytest.mark.parametrize("N", [3, 8, 15])
    def test_determinant_one(self, N):
        M = build_M(N)
        assert np.prod(np.diag(M)) == 1.0
        assert abs(np.linalg.det(M) - 1.0) < 1e-9

    def test_rows_match_polynomials(self):
        M = build_M(6)
        for n in range(7):
            p = boubaker_polynomial(n)
            np.testing.assert_array_equal(M[n, : n + 1], p.coeffs)


class TestBasis:
    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            build_basis(16)
        assert build_basis(16, force=True).N == 16

    def test_eval_basis_at_zero(self):
        basis = build_basis(4)
        np.testing.assert_array_equal(
            eval_basis(0.0, basis), [1.0, 0.0, 2.0, 0.0, -2.0]
        )

    def test_eval_basis_at_one(self):
        basis = build_basis(4)
        np.testing.assert_array_equal(
            eval_basis(1.0, basis), [1.0, 1.0, 3.0, 2.0, -1.0]
        )

    def test_eval_basis_n2_at_zero(self):
        np.testing.assert_array_equal(
            eval_basis(0.0, build_basis(2)), [1.0, 0.0, 2.0]
        )

    @pytest.mark.parametrize("N", [3, 6, 10, 15])
    def test_eval_basis_equals_scalar_horner(self, N):
        basis = build_basis(N)
        for x in np.random.default_rng(N).uniform(-1.0, 2.0, 500):
            want = np.empty(N + 1)
            for n in range(N + 1):
                acc = 0.0
                for k in range(N, -1, -1):
                    acc = acc * x + basis.M[n, k]
                want[n] = acc
            assert np.array_equal(eval_basis(x, basis), want)

    @pytest.mark.parametrize("N", range(16))
    def test_eval_basis_on_grid_equals_scalar_calls(self, N):
        basis = build_basis(N)
        lobatto = (np.cos(np.arange(N + 1) * math.pi / max(N, 1)) + 1.0) / 2.0
        for xs in (lobatto, np.linspace(0.0, 1.0, 101), np.array([0.37])):
            want = np.array([eval_basis(float(x), basis) for x in xs])
            assert np.array_equal(eval_basis(xs, basis), want)
        assert eval_basis(np.array([]), basis).shape == (0, N + 1)
        assert eval_basis(0.37, basis).shape == (N + 1,)

    def test_polys_match_closed_form(self):
        basis = build_basis(15)
        assert basis.polys == tuple(boubaker_polynomial(n) for n in range(16))

    def test_matrix_read_only(self):
        basis = build_basis(3)
        with pytest.raises(ValueError):
            basis.M[0, 0] = 5.0


class TestEvalSeries:
    def test_exact_solution_value(self):
        basis = build_basis(2)
        assert eval_series([4.0 / 3.0, 0.0, -1.0 / 6.0], 0.0, basis) == pytest.approx(
            1.0, rel=0, abs=1e-15
        )

    def test_shifted_parabola(self):
        basis = build_basis(2)
        assert eval_series([1.0, 0.0, 1.0], 1.0, basis) == pytest.approx(4.0, rel=0, abs=1e-14)

    def test_zero_vector(self):
        basis = build_basis(5)
        assert eval_series(np.zeros(6), 0.7341, basis) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            eval_series([1.0, 2.0], 0.5, build_basis(3))
        with pytest.raises(ValueError, match="shape"):
            eval_series([1.0, 2.0], np.linspace(0.0, 1.0, 5), build_basis(3))

    @pytest.mark.parametrize("N", range(16))
    def test_grid_equals_scalar_calls(self, N):
        basis = build_basis(N)
        rng = np.random.default_rng(N)
        # coefficients spanning many magnitudes, as solves at high N produce,
        # so that a different summation order would change the last bits
        C = rng.normal(size=N + 1) * 10.0 ** rng.uniform(-3, 8, size=N + 1)
        lobatto = (np.cos(np.arange(N + 1) * math.pi / max(N, 1)) + 1.0) / 2.0
        for xs in (lobatto, np.linspace(0.0, 1.0, 101), np.array([0.37])):
            want = np.array([eval_series(C, float(x), basis) for x in xs])
            got = eval_series(C, xs, basis)
            assert got.shape == (len(xs),)
            assert np.array_equal(got, want)
        assert eval_series(C, np.array([]), basis).shape == (0,)
        assert isinstance(eval_series(C, 0.37, basis), float)

    @pytest.mark.parametrize("n", range(9))
    def test_unit_vector_matches_polynomial(self, n):
        basis = build_basis(8)
        poly = boubaker_polynomial(n)
        rng = np.random.default_rng(42)
        e_n = np.zeros(9)
        e_n[n] = 1.0
        for x in rng.uniform(0.0, 1.0, 100):
            got = eval_series(e_n, x, basis)
            want = poly(x)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
