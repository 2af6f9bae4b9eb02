import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracemden import linalg
from fracemden.expr import EvalError, evaluate, parse
from fracemden.fraccalc import (
    GeneralizedPolynomial,
    _weighted_inverse,
    build_D,
    build_D_pair,
    build_E,
    caputo_monomial,
    caputo_polynomial,
)
from fracemden.polybasis import (
    boubaker_coefficient,
    boubaker_polynomial,
    build_basis,
    build_M_int,
    eval_basis,
    legendre_to_boubaker_int,
    monomial_to_boubaker_int,
)

# high-precision reference values (mpmath, 30 digits)
TWO_OVER_GAMMA_2_3 = 1.71421924391892592
TWO_OVER_SQRT_PI = 1.12837916709551257


def _factors(alpha, N):
    """z of D = (M z) E: the Caputo factor of x^j for j = 0..N, read from
    caputo_monomial, 0 where it annihilates x^j."""
    images = (caputo_monomial(float(j), alpha) for j in range(N + 1))
    return np.array([0.0 if p.is_zero else p.terms[0][0] for p in images])


class TestGamma:
    """Gamma as the operators consume it: math.gamma inside the Caputo
    factors of caputo_monomial, which build_D scales M by, judged against
    mpmath."""

    def test_one(self):
        # D^alpha x^alpha = Gamma(alpha+1)/Gamma(1): Gamma(1) divides out exactly
        for alpha in (0.5, 0.7, 1.5, 2.0):
            assert caputo_monomial(alpha, alpha).terms == ((math.gamma(alpha + 1.0), 0.0),)

    def test_half(self):
        coef = caputo_monomial(1.0, 0.5).terms[0][0]
        assert coef == pytest.approx(TWO_OVER_SQRT_PI, rel=4.5e-16)

    def test_2_3(self):
        coef = caputo_monomial(2.0, 0.7).terms[0][0]
        assert coef == pytest.approx(TWO_OVER_GAMMA_2_3, rel=4.5e-16)

    def test_integers_factorial(self):
        # integer orders divide exact factorials: the factors are exact integers
        j = np.arange(16.0)
        assert np.array_equal(_factors(1.0, 15), j)
        assert np.array_equal(_factors(2.0, 15), j * np.maximum(j - 1.0, 0.0))
        for n in range(2, 23):
            assert caputo_monomial(float(n), 2.0).terms == ((float(n * (n - 1)), n - 2.0),)

    def test_against_reference_on_range(self):
        # every Caputo factor the supported orders use up to the degree cap
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(30):
            for alpha in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.3, 1.5, 1.75):
                z = _factors(alpha, 15)
                for j in range(math.ceil(alpha), 16):
                    ref = mp.gamma(j + 1) / mp.gamma(j + 1 - mp.mpf(alpha))
                    worst = max(worst, float(abs((z[j] - ref) / ref)))
        assert worst <= 2e-15

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("N", range(2, 16))
    def test_integer_order_matrix_is_integer(self, alpha, N):
        D = build_D(alpha, build_basis(N)).D
        assert np.array_equal(D, np.round(D))

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_domain_error(self, z):
        # math.gamma(-0.5) is finite, so the expression layer's own guard is
        # what keeps Gamma off non-positive arguments in a problem file
        with pytest.raises(EvalError, match="gamma of non-positive value"):
            evaluate(parse(f"gamma({z})", set()), {})


class TestGeneralizedPolynomial:
    def test_canonicalization(self):
        p = GeneralizedPolynomial.from_terms([(1.0, 2.0), (2.0, 0.5), (3.0, 2.0)])
        assert p.terms == ((2.0, 0.5), (4.0, 2.0))

    def test_zero_terms_dropped(self):
        assert GeneralizedPolynomial.from_terms([(1.0, 1.0), (-1.0, 1.0)]).is_zero

    def test_evaluation_at_zero(self):
        p = GeneralizedPolynomial.from_terms([(3.0, 0.0), (5.0, 0.3)])
        assert p(0.0) == 3.0

    def test_evaluation(self):
        p = GeneralizedPolynomial.from_terms([(2.0, 1.3)])
        assert p(0.5) == pytest.approx(2.0 * 0.5 ** 1.3, rel=1e-15)

    def test_grid_evaluation_sums_terms_in_order(self):
        # numpy's power over the grid, added term by term from zeros; a
        # float still gives a float
        p = GeneralizedPolynomial.from_terms([(3.0, 0.0), (-2.5, 0.3), (1e8, 1.7), (-1e8, 2.0)])
        x = np.array([0.0, 1e-3, 0.25, 0.5, 1.0])
        want = np.zeros_like(x)
        for c, e in p.terms:
            want = want + c * np.power(x, e)
        assert p(x).tobytes() == want.tobytes() and p(x)[0] == 3.0
        assert type(p(0.25)) is float and p(0.0) == 3.0
        assert GeneralizedPolynomial(())(x).tobytes() == np.zeros_like(x).tobytes()

    @pytest.mark.parametrize("x,bad", [(-0.5, "-0.5"), (np.array([0.5, -0.25, 1.0]), "-0.25"),
                                       (np.array([math.nan, -2.0]), "-2.0")],
                             ids=["scalar", "array-entry", "after-nan"])
    def test_negative_point_rejected(self, x, bad):
        with pytest.raises(ValueError, match=f"^defined for x >= 0, got {re.escape(bad)}$"):
            GeneralizedPolynomial.from_terms([(1.0, 1.0)])(x)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedPolynomial.from_terms([(1.0, -0.2)])

    @pytest.mark.parametrize("e", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, e):
        with pytest.raises(ValueError, match=f"^exponent must be finite, got {e}$"):
            GeneralizedPolynomial.from_terms([(1.0, 1.0), (1.0, e)])

    @pytest.mark.parametrize(
        "terms,bad",
        [([(math.inf, 1.0)], "inf"), ([(1.0, 0.0), (math.nan, 0.5)], "nan"),
         ([(1e308, 2.0), (1e308, 2.0)], "inf"), ([(math.inf, 2.0), (-math.inf, 2.0)], "nan")],
        ids=["inf", "nan", "merged-overflow", "merged-inf-minus-inf"],
    )
    def test_non_finite_coefficient_rejected(self, terms, bad):
        # checked after equal exponents are merged; it used to be accepted,
        # and the polynomial then evaluated to nan (inf * 0.0 at x = 0)
        message = f"coefficient of x^{terms[-1][1]} must be finite, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeneralizedPolynomial.from_terms(terms)


class TestCaputoMonomial:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 2.0])
    def test_constant_annihilated(self, alpha):
        assert caputo_monomial(0.0, alpha).is_zero

    def test_classical_derivative(self):
        p = caputo_monomial(2.0, 1.0)
        assert p.terms == ((2.0, 1.0),)  # 2x

    def test_fractional_of_square(self):
        p = caputo_monomial(2.0, 0.7)
        assert len(p.terms) == 1
        coef, expnt = p.terms[0]
        assert coef == pytest.approx(TWO_OVER_GAMMA_2_3, rel=1e-12)
        assert expnt == pytest.approx(1.3, rel=0, abs=1e-15)

    def test_low_integer_annihilated(self):
        assert caputo_monomial(1.0, 1.5).is_zero  # beta=1 < ceil(1.5)=2

    def test_noninteger_below_order_rejected(self):
        with pytest.raises(ValueError):
            caputo_monomial(0.3, 0.7)

    def test_noninteger_above_order_allowed(self):
        p = caputo_monomial(0.8, 0.7)
        assert p.terms[0][1] == pytest.approx(0.1, rel=0, abs=1e-15)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            caputo_monomial(-1.0, 0.5)
        with pytest.raises(ValueError):
            caputo_monomial(1.0, 0.0)

    @pytest.mark.parametrize(
        "beta,alpha,message",
        [(math.nan, 0.5, "exponent must be finite, got nan"),
         (math.inf, 0.5, "exponent must be finite, got inf"),
         (1.0, math.inf, "order must be finite, got inf")],
    )
    def test_non_finite_args_named(self, beta, alpha, message):
        # a NaN exponent used to give a NaN term, an infinite order an
        # OverflowError from math.ceil
        with pytest.raises(ValueError, match=f"^{message}$"):
            caputo_monomial(beta, alpha)


class TestCaputoPolynomial:
    def test_b2_first_derivative(self):
        # (x^2 + 2)' = 2x
        p = caputo_polynomial(boubaker_polynomial(2), 1.0)
        assert p.terms == ((2.0, 1.0),)

    def test_b3_second_derivative(self):
        # (x^3 + x)'' = 6x
        p = caputo_polynomial(boubaker_polynomial(3), 2.0)
        assert p.terms == ((6.0, 1.0),)

    def test_b4_first_derivative(self):
        # (x^4 - 2)' = 4x^3
        p = caputo_polynomial(boubaker_polynomial(4), 1.0)
        assert p.terms == ((4.0, 3.0),)

    def test_generalized_input(self):
        g = GeneralizedPolynomial.from_terms([(1.0, 1.4)])
        out = caputo_polynomial(g, 0.7)
        coef, expnt = out.terms[0]
        assert expnt == pytest.approx(0.7, rel=0, abs=1e-14)
        assert coef == pytest.approx(
            math.gamma(2.4) / math.gamma(1.7), rel=1e-12
        )

    def test_type_error(self):
        with pytest.raises(TypeError):
            caputo_polynomial([1.0, 2.0], 1.0)

    def test_overflowing_image_coefficient_rejected(self):
        # 1e308 * Gamma(4) / Gamma(3.5) overflows to inf
        g = GeneralizedPolynomial.from_terms([(1e308, 3.0)])
        with pytest.raises(ValueError, match=r"^coefficient of x\^2\.5 must be finite, got inf$"):
            caputo_polynomial(g, 0.5)


class TestBuildZ:
    """Z of the paper's D = M Z E, the diagonal of Caputo factors: read
    through caputo_monomial, and in build_D, which scales the columns of M
    by them."""

    @staticmethod
    def _D_from(z, alpha, N):
        basis = build_basis(N)
        return basis.M @ np.diag(z) @ build_E(alpha, basis)

    def test_alpha1(self):
        np.testing.assert_allclose(_factors(1.0, 2), [0.0, 1.0, 2.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(build_D(1.0, build_basis(2)).D,
                                   self._D_from([0.0, 1.0, 2.0], 1.0, 2), rtol=0, atol=1e-14)

    def test_alpha2(self):
        np.testing.assert_allclose(_factors(2.0, 3), [0.0, 0.0, 2.0, 6.0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(build_D(2.0, build_basis(3)).D,
                                   self._D_from([0.0, 0.0, 2.0, 6.0], 2.0, 3), rtol=0, atol=1e-13)

    def test_alpha_half(self):
        z = _factors(0.5, 1)
        assert z[0] == 0.0
        assert z[1] == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)
        np.testing.assert_allclose(build_D(0.5, build_basis(1)).D,
                                   self._D_from([0.0, TWO_OVER_SQRT_PI], 0.5, 1), rtol=1e-12)

    def test_order_exceeds_degree(self):
        with pytest.raises(ValueError, match="exceeds degree bound"):
            build_D(1.5, build_basis(1))

    # the opmatrix keys of tools/digest.py, then a sweep of the solver's orders
    @pytest.mark.parametrize("alpha,N", [
        (0.7041709495205126, 15), (0.7, 10), (1.5, 8), (2.0, 15), (5e-324, 15),
        (1.0000000000000002, 4), (2.0, 2), (0.5, 15), (1.0, 15),
        *[(alpha, N) for alpha in (0.51, 0.6, 0.75, 0.9, 1.0) for N in range(2, 16)]])
    def test_D_is_M_diag_z_E_bit_for_bit(self, alpha, N):
        # scaling M's columns by z rounds as the product with diag(z) does,
        # and (M z) E associates as M Z E; tobytes() tells -0.0 from 0.0
        D = build_D(alpha, build_basis(N)).D
        assert D.tobytes() == self._D_from(_factors(alpha, N), alpha, N).tobytes()


def _gram_oracle_E(alpha, N):
    """build_E by its definition: row i solves the Gram normal equations
    Q e_i = Ehat_i exactly over Fractions, with the closed-form moments
    Ehat_i[j] = sum_p m_{j,p} / (i - alpha + j - 2p + 1)."""
    af = Fraction(alpha)
    Q = linalg.gram_fractions(N)
    E = np.zeros((N + 1, N + 1))
    for i in range(math.ceil(alpha), N + 1):
        ehat = [
            sum(
                Fraction(boubaker_coefficient(j, p)) / (i - af + j - 2 * p + 1)
                for p in range(j // 2 + 1)
            )
            for j in range(N + 1)
        ]
        E[i] = [float(v) for v in linalg.solve_fractions(Q, ehat)]
    return E


def _per_row_E(alpha, N):
    """The per-row loop that build_E's whole-array route replaced, kept as
    its reference: the same integers, one row at a time."""
    ca = math.ceil(alpha)
    p, q = Fraction(alpha).as_integer_ratio()
    T = legendre_to_boubaker_int(N)
    E = np.zeros((N + 1, N + 1))
    for i in range(ca, N + 1):
        b = i * q - p
        tail = [1] * (N + 1)  # tail[k] = prod_{k<j<=N} (b + (1+j)q)
        for k in range(N - 1, -1, -1):
            tail[k] = tail[k + 1] * (b + (k + 2) * q)
        den = tail[0] * (b + q)
        num = []
        head = q  # q prod_{j<k} (b - jq)
        for k in range(N + 1):
            num.append((2 * k + 1) * head * tail[k])
            head *= b - k * q
        E[i] = [sum(t * a for t, a in zip(row, num)) / den for row in T]
    return E


def _sweep_alpha(k):
    # the alpha-sweep benchmark's pool point k of 2000 over [0.7, 1.0)
    return 0.7 + (1.0 - 0.7) * (k + 0.5) / 2000


ORACLE_ALPHAS = (
    0.123456789, 0.55, 0.7, 0.7041709495205126, 0.75, 0.9,
    1.0, 1.1, 1.4, 1.5, 1.8, 2.0,
)
ORACLE_GRID = [
    (N, alpha)
    for N in (2, 3, 4, 6, 8, 10, 12, 15)
    for alpha in ORACLE_ALPHAS
    if math.ceil(alpha) <= N
]


def _closed_form_weights(beta, N):
    """Monomial coefficients of the L2 projection of x^beta onto degree N,
    from the closed-form inverse of the Hilbert-type system, in Fractions."""
    f = math.factorial
    den = math.prod(beta + 1 + m for m in range(N + 1))
    return [
        (-1) ** j * Fraction(f(N + j + 1), f(j) ** 2 * f(N - j))
        * math.prod(l - beta for l in range(N + 1) if l != j) / den
        for j in range(N + 1)
    ]


class TestClosedFormKernel:
    """build_E's kernel judged on its own terms, in exact arithmetic: the
    closed-form weights against the normal equations they solve, and the
    cached integer tables against M."""

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
        N=st.integers(min_value=2, max_value=15),
        data=st.data(),
    )
    def test_weights_solve_the_normal_equations(self, alpha, N, data):
        i = data.draw(st.integers(min_value=math.ceil(alpha), max_value=N))
        beta = i - Fraction(alpha)
        w = _closed_form_weights(beta, N)
        for m in range(N + 1):
            assert sum(wj / (m + j + 1) for j, wj in enumerate(w)) == 1 / (m + beta + 1)
        # and build_E's row is their basis coordinates w M^-1, rounded once
        Minv = monomial_to_boubaker_int(N)
        row = [float(sum(w[j] * Minv[j, n] for j in range(N + 1))) for n in range(N + 1)]
        assert build_E(alpha, build_basis(N))[i].tolist() == row

    @pytest.mark.parametrize("N", range(0, 16))
    def test_integer_inverse_times_M_is_identity(self, N):
        Minv, M = monomial_to_boubaker_int(N), np.array(build_M_int(N), dtype=object)
        assert all(type(v) is int for v in Minv.flat)
        assert (Minv @ M).tolist() == np.eye(N + 1, dtype=int).tolist()

    def test_weighted_nonzeros_are_the_scaled_inverse(self):
        N, f = 7, math.factorial
        scaled = [
            [(-1) ** j * f(N + j + 1) // (f(j) ** 2 * f(N - j)) * v for v in row]
            for j, row in enumerate(monomial_to_boubaker_int(N).tolist())
        ]
        J, values, starts = _weighted_inverse(N)
        # column k's run holds exactly its nonzeros, and no run is empty
        G = [[0] * (N + 1) for _ in range(N + 1)]
        for k, (lo, hi) in enumerate(zip(starts, [*starts[1:], len(J)])):
            assert hi > lo
            for j, v in zip(J[lo:hi].tolist(), values[lo:hi]):
                assert v != 0
                G[j][k] = v
        assert G == scaled
        assert all(v == 0 for j, row in enumerate(scaled) for n, v in enumerate(row) if (j - n) % 2)

    def test_cached_tables_refuse_writes(self):
        Minv = monomial_to_boubaker_int(6)
        assert Minv is monomial_to_boubaker_int(6)
        # the change of basis is a transposed view: its base is cached too
        for table in (Minv, *_weighted_inverse(6), legendre_to_boubaker_int(6).base):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 2


class TestBuildE:
    @pytest.mark.parametrize("N, alpha", ORACLE_GRID)
    def test_equals_gram_oracle(self, N, alpha):
        # the closed-form Legendre moments give the exact projection, so
        # after the one rounding to float they match the Gram solve bit for bit
        assert np.array_equal(build_E(alpha, build_basis(N)), _gram_oracle_E(alpha, N))

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
        N=st.integers(min_value=2, max_value=10),
    )
    def test_equals_gram_oracle_any_order(self, alpha, N):
        assert np.array_equal(build_E(alpha, build_basis(N)), _gram_oracle_E(alpha, N))

    @pytest.mark.parametrize("N", range(2, 16))
    def test_equals_per_row_loop(self, N):
        # full-mantissa orders over (0, 2], alpha-sweep pool points and their
        # doubles (the order-2 alpha operator of the same solve)
        rng = random.Random(N)
        sweep = [_sweep_alpha(k) for k in (0, 1, 733, 1000, 1999, rng.randrange(2000))]
        alphas = [2.0 - rng.uniform(0.0, 2.0) for _ in range(12)] + sweep
        alphas += [2.0 * a for a in sweep]
        basis = build_basis(N)
        for alpha in alphas:
            assert np.array_equal(build_E(alpha, basis), _per_row_E(alpha, N)), alpha

    @pytest.mark.parametrize("alpha, N", [
        (2.0, 2),  # a single nonzero row
        (math.nextafter(1.0, 2.0), 4),  # ceil(alpha) = 2 just above alpha = 1
        (1.0, 5), (2.0, 15),  # integer alpha: b = 0 on the first row
        (0.5, 15),  # the largest entries
    ], ids=["single_row", "just_above_1", "alpha1", "alpha2", "largest"])
    def test_edge_shapes_equal_per_row_loop(self, alpha, N):
        E = build_E(alpha, build_basis(N))
        assert E.shape == (N + 1, N + 1)
        assert np.array_equal(E, _per_row_E(alpha, N))
        assert not E[: math.ceil(alpha)].any()

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.4, 2.0])
    def test_matrices_are_float64(self, alpha):
        basis = build_basis(6)
        assert build_E(alpha, basis).dtype == np.float64
        assert build_D(alpha, basis).D.dtype == np.float64

    def test_cached_change_of_basis_is_read_only(self):
        T = legendre_to_boubaker_int(6)
        assert T is legendre_to_boubaker_int(6)
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0] = 2

    def test_operator_path_avoids_gram_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Gram system entered the operator path")

        monkeypatch.setattr(linalg, "gram_fractions", forbidden)
        monkeypatch.setattr(linalg, "solve_fractions", forbidden)
        for alpha in (0.7, 1.0, 1.4, 2.0):
            build_D(alpha, build_basis(6))

    def test_monomial_row_alpha1_n2(self):
        # x^0 = B_0
        E = build_E(1.0, build_basis(2))
        np.testing.assert_array_equal(E[1], [1.0, 0.0, 0.0])

    def test_monomial_row_alpha1_n3(self):
        # x^2 = B_2 - 2 B_0
        E = build_E(1.0, build_basis(3))
        np.testing.assert_array_equal(E[3], [-2.0, 0.0, 1.0, 0.0])

    def test_zero_rows_below_ceiling(self):
        E = build_E(1.4, build_basis(4))
        np.testing.assert_array_equal(E[:2], np.zeros((2, 5)))

    @pytest.mark.parametrize("alpha", [0.7, 1.4])
    def test_projection_orthogonality(self, alpha):
        # residual of each expansion must be L2-orthogonal to every basis
        # member; verified by graded quadrature, independent of the
        # closed-form moments used in the construction
        from fracemden.approx import integrate_01

        basis = build_basis(4)
        E = build_E(alpha, basis)
        ca = math.ceil(alpha)
        for i in range(ca, 5):
            e_i = E[i]
            expnt = i - alpha
            for j in range(5):
                def integrand(x):
                    bx = eval_basis(x, basis)
                    return (x ** expnt - float(e_i @ bx)) * bx[j]

                assert abs(integrate_01(integrand, singular_at_zero=True)) <= 1e-8


class TestBuildD:
    def test_alpha1_n2(self):
        D = build_D(1.0, build_basis(2)).D
        np.testing.assert_array_equal(D, [[0, 0, 0], [1, 0, 0], [0, 2, 0]])

    def test_alpha1_n3_row3(self):
        # (x^3 + x)' = 3x^2 + 1 = 3 B_2 - 5 B_0
        D = build_D(1.0, build_basis(3)).D
        np.testing.assert_array_equal(D[3], [-5.0, 0.0, 3.0, 0.0])

    def test_alpha2_n4_row4(self):
        # (x^4 - 2)'' = 12 x^2 = 12 B_2 - 24 B_0
        D = build_D(2.0, build_basis(4)).D
        np.testing.assert_array_equal(D[4], [-24.0, 0.0, 12.0, 0.0, 0.0])

    def test_fractional_entry_against_quadrature_oracle(self):
        # independent oracle: build the projection of x^0.3 with mpmath
        # quadrature and an mpmath linear solve, then scale by 1/Gamma(1.3)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        basis = build_basis(4)
        polys = [boubaker_polynomial(n) for n in range(5)]

        def bj(x, j):
            return sum(mp.mpf(c) * x ** k for k, c in enumerate(polys[j].coeffs))

        Q = mp.matrix(5, 5)
        ehat = mp.matrix(5, 1)
        for i in range(5):
            for j in range(5):
                Q[i, j] = mp.quad(lambda x: bj(x, i) * bj(x, j), [0, 1])
            ehat[i] = mp.quad(lambda x: x ** mp.mpf("0.3") * bj(x, i), [0, 0.5, 1])
        e1 = mp.lu_solve(Q, ehat)
        row1_oracle = [float(v / mp.gamma(mp.mpf("1.3"))) for v in e1]

        D = build_D(0.7, basis).D
        np.testing.assert_allclose(D[1], row1_oracle, rtol=0, atol=2e-9)
        # frozen regression value for the first entry
        assert D[1, 0] == pytest.approx(7.374542128794902, rel=0, abs=1e-9)

    def test_fractional_reconstruction_at_one(self):
        # row 1 reconstructs the projection of x^0.3 / Gamma(1.3); its true
        # endpoint value is 1/Gamma(1.3) ~ 1.1142 and the projection
        # overshoot keeps the reconstruction inside [1.05, 1.13]
        basis = build_basis(4)
        D = build_D(0.7, basis).D
        val = float(D[1] @ eval_basis(1.0, basis))
        assert 1.05 <= val <= 1.13

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.4, 1.6, 2.0])
    def test_zero_rows(self, alpha):
        basis = build_basis(5)
        D = build_D(alpha, basis).D
        ca = math.ceil(alpha)
        assert np.array_equal(D[:ca], np.zeros((ca, 6)))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("N", [4, 7, 10])
    def test_integer_order_exactness(self, alpha, N):
        # assemble the matrix independently: exact term-wise derivative of
        # each basis member, re-expanded through the triangular system
        basis = build_basis(N)
        D = build_D(alpha, basis).D
        for n in range(N + 1):
            image = caputo_polynomial(basis.polys[n], alpha)
            mono = np.zeros(N + 1)
            for c, e in image.terms:
                mono[int(e)] = c
            row = np.linalg.solve(basis.M.T, mono)
            np.testing.assert_allclose(D[n], row, rtol=0, atol=1e-9)

    def test_order_domain(self):
        basis = build_basis(4)
        with pytest.raises(ValueError):
            build_D(2.5, basis)
        with pytest.raises(ValueError):
            build_D(0.0, basis)

    def test_matrix_immutable(self):
        op = build_D(1.0, build_basis(3))
        with pytest.raises(ValueError):
            op.D[0, 0] = 1.0


class TestBuildDPair:
    """The paired builder that solve uses, against two build_D calls."""

    @pytest.mark.parametrize("N", range(2, 16))
    def test_equals_two_build_D_byte_for_byte(self, N):
        # full-mantissa orders in (1/2, 1), alpha-sweep pool points, an
        # order with a short binary expansion, and the exact integer orders
        # 1 and 2; tobytes() tells -0.0 from 0.0
        rng = random.Random(N)
        alphas = [1.0 - rng.uniform(0.0, 0.5) for _ in range(8)]
        alphas += [_sweep_alpha(k) for k in (0, 1999, rng.randrange(2000))]
        alphas += [0.75, 1.0]
        basis = build_basis(N)
        for alpha in alphas:
            pair = build_D_pair(alpha, basis)
            for D, order in zip(pair, (alpha, 2.0 * alpha)):
                ref = build_D(order, basis).D
                assert (D.dtype, D.shape) == (ref.dtype, ref.shape)
                assert D.tobytes() == ref.tobytes(), (alpha, order)

    def test_order_domain(self):
        basis = build_basis(4)
        with pytest.raises(ValueError, match="order must lie in"):
            build_D_pair(1.5, basis)  # 2 alpha = 3 > 2
        with pytest.raises(ValueError, match="order must lie in"):
            build_D_pair(0.0, basis)
        with pytest.raises(ValueError, match="exceeds degree bound"):
            build_D_pair(1.0, build_basis(1))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_order_is_named_by_every_builder(self, alpha):
        # the order is checked before its integer ratio is taken, which
        # NaN and inf do not have
        basis = build_basis(4)
        for build in (build_E, build_D, build_D_pair):
            with pytest.raises(ValueError, match=f"order must lie in .*, got {alpha}$"):
                build(alpha, basis)


class TestConsistencyDecay:
    def test_l2_reconstruction_error_decreases(self):
        # fixed rows n <= 4; richer spans must not degrade the projection
        # (L2 metric: pointwise grid maxima are allowed to wobble)
        from fracemden.approx import integrate_01

        alpha = 0.7
        errs = []
        for N in range(4, 9):
            basis = build_basis(N)
            D = build_D(alpha, basis).D
            worst = 0.0
            for n in range(5):
                exact = caputo_polynomial(basis.polys[n], alpha)

                def sq(x):
                    return (float(D[n] @ eval_basis(x, basis)) - exact(x)) ** 2

                val = math.sqrt(max(integrate_01(sq, singular_at_zero=True), 0.0))
                worst = max(worst, val)
            errs.append(worst)
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= 1.1 * prev
        assert errs[-1] < errs[0]
