import math

import numpy as np
import pytest

from fracemden.linalg import (
    SingularMatrixError,
    condition_estimate,
    gram,
    gram_fractions,
    gram_is_positive_definite,
    hilbert,
    lu_solve,
    solve_fractions,
)
from fracemden.polybasis import boubaker_polynomial, build_basis


class TestHilbert:
    def test_n0(self):
        np.testing.assert_array_equal(hilbert(0), [[1.0]])

    def test_n1(self):
        np.testing.assert_array_equal(hilbert(1), [[1.0, 0.5], [0.5, 1.0 / 3.0]])

    def test_entry_2_3(self):
        assert hilbert(3)[2, 3] == 1.0 / 6.0

    def test_negative(self):
        with pytest.raises(ValueError):
            hilbert(-1)


class TestGram:
    def test_n0(self):
        np.testing.assert_array_equal(gram(build_basis(0)), [[1.0]])

    def test_n1_is_hilbert(self):
        np.testing.assert_array_equal(gram(build_basis(1)), hilbert(1))

    def test_entry_0_2(self):
        # int_0^1 (x^2 + 2) dx = 7/3
        assert gram(build_basis(2))[0, 2] == pytest.approx(7.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("N", [2, 5, 9, 15])
    def test_exactly_symmetric(self, N):
        Q = gram(build_basis(N, force=True))
        assert np.array_equal(Q, Q.T)

    @pytest.mark.parametrize("N", [2, 5, 8])
    def test_against_quadrature_oracle(self, N):
        # independent oracle: 64-point Gauss-Legendre of the product of the
        # polynomials themselves, never touching M H M^T
        from numpy.polynomial.legendre import leggauss

        xs, ws = leggauss(64)
        xs, ws = (xs + 1) / 2, ws / 2
        polys = [boubaker_polynomial(n) for n in range(N + 1)]
        Q = gram(build_basis(N))
        for i in range(N + 1):
            for j in range(N + 1):
                ref = float(np.sum(ws * [polys[i](x) * polys[j](x) for x in xs]))
                assert abs(Q[i, j] - ref) <= 1e-10

    @pytest.mark.parametrize("N", range(2, 10))
    def test_float_cholesky_small_degrees(self, N):
        np.linalg.cholesky(gram(build_basis(N)))

    @pytest.mark.parametrize("N", range(2, 16))
    def test_positive_definite_exact(self, N):
        # float64 Cholesky breaks down near N = 10 (kappa > 1/eps); the
        # exact rational pivot test certifies definiteness to the cap
        assert gram_is_positive_definite(N)

    def test_gram_fractions_matches_float(self):
        Q = gram(build_basis(4))
        QF = gram_fractions(4)
        for i in range(5):
            for j in range(5):
                assert Q[i, j] == pytest.approx(float(QF[i][j]), rel=1e-15)

    @pytest.mark.parametrize("N", range(16))
    def test_gram_fractions_is_the_definition(self, N):
        # Q_ij = sum_k sum_l M_ik M_jl / (k + l + 1), term by term in Fractions
        from fractions import Fraction

        M = [[int(c) for c in boubaker_polynomial(n).coeffs] for n in range(N + 1)]
        want = tuple(
            tuple(
                sum(Fraction(mi * mj, k + l + 1)
                    for k, mi in enumerate(Mi) if mi for l, mj in enumerate(Mj) if mj)
                for Mj in M
            )
            for Mi in M
        )
        got = gram_fractions(N)
        assert got == want
        assert {type(v) for row in got for v in row} == {Fraction}


class TestLuSolve:
    def test_identity(self):
        np.testing.assert_array_equal(
            lu_solve(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_diagonal(self):
        np.testing.assert_array_equal(
            lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0]), [1.0, 2.0]
        )

    def test_hilbert_constructed_rhs(self):
        A = hilbert(4)
        x = np.ones(5)
        got = lu_solve(A, A @ x)
        np.testing.assert_allclose(got, x, rtol=0, atol=1e-8)

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            A = rng.uniform(-1.0, 1.0, (n, n)) + 4.0 * np.eye(n)
            x = rng.uniform(-1.0, 1.0, n)
            got = lu_solve(A, A @ x)
            np.testing.assert_allclose(got, x, rtol=0, atol=1e-8)

    def test_matrix_rhs(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        X = lu_solve(A, B)
        np.testing.assert_allclose(A @ X, B, rtol=0, atol=1e-14)

    def test_singular_raises_linalg_error(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            lu_solve(A, [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lu_solve(np.eye(3), [1.0, 2.0])

    def test_non_square(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), [1.0, 2.0])


class TestConditionEstimate:
    def test_identity(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_estimate(np.diag([1.0, 1000.0])) == pytest.approx(1000.0)

    def test_hilbert_vs_bruteforce(self):
        H = hilbert(4)
        brute = np.linalg.norm(H, 1) * np.linalg.norm(np.linalg.inv(H), 1)
        est = condition_estimate(H)
        assert brute / 10.0 <= est <= brute * 10.0

    def test_singular_is_inf(self):
        assert condition_estimate(np.zeros((3, 3))) == math.inf

    @pytest.mark.parametrize("N", range(2, 7))
    def test_gram_matches_exact_kappa(self, N):
        # exact reference: ||Q||_1 ||Q^-1||_1 over Fractions, Q^-1 column by
        # column from the exact solve
        from fractions import Fraction

        Q = gram_fractions(N)
        n = N + 1
        cols = [
            solve_fractions(Q, [Fraction(int(i == j)) for i in range(n)])
            for j in range(n)
        ]
        norm_Q = max(sum(abs(Q[i][j]) for i in range(n)) for j in range(n))
        norm_Qinv = max(sum(abs(v) for v in col) for col in cols)
        exact = float(norm_Q * norm_Qinv)
        got = condition_estimate(gram(build_basis(N)))
        assert abs(got - exact) <= 1e-6 * exact


class TestSolveFractions:
    def test_exact_hilbert_solve(self):
        from fractions import Fraction

        H = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
        b = [sum(row) for row in H]  # exact rhs for x = ones
        x = solve_fractions(H, b)
        assert x == [Fraction(1)] * 4

    def test_singular_detected(self):
        from fractions import Fraction

        A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        with pytest.raises(SingularMatrixError):
            solve_fractions(A, [Fraction(1), Fraction(2)])
