"""Caputo fractional calculus and the differentiation operational matrix.

The Caputo derivative of order alpha > 0 annihilates constants and maps a
power x^beta to Gamma(beta+1)/Gamma(beta+1-alpha) * x^(beta-alpha) (zero for
integer beta below ceil(alpha)).  Applying this rule term-wise to each basis
polynomial, and re-expanding the fractional powers x^(i-alpha) back into the
basis by L2 projection, yields an (N+1)x(N+1) matrix D with

    D^alpha B(x) ~= D B(x),

so differentiating a coefficient vector reduces to one matrix product.
Supported orders are 0 < alpha <= 2.

The projection of x^beta, beta = i - alpha, has the closed-form shifted
Legendre coefficients (Saadatmandi & Dehghan, Comput. Math. Appl. 59 (2010)
1326-1336)

    a_k = (2k+1) prod_{j<k} (beta - j) / prod_{j<=k} (beta + 1 + j),

and a fixed integer matrix maps them to basis coefficients, so no Gram
system is formed or solved.  alpha enters as its exact binary rational p/q,
all moments of a row share one integer denominator, and all rows are formed
at once in integer arrays with one correctly rounded integer quotient per
entry -- the same float as the exact rational solution of the normal
equations.  Only the Gamma-factor scaling is floating point; Gamma is the
standard library's math.gamma, which is within a few ulp and returns the
exact factorials through 22!.  For integer alpha every x^(i-alpha) lies in
the basis span, every Gamma ratio is a quotient of exact factorials, and the
resulting matrix is exactly integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polybasis import BoubakerBasis, Polynomial, legendre_to_boubaker_int

MAX_ORDER = 2.0


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """Finite sum of c * x^e terms with real exponents e >= 0.

    Closed under the Caputo rules used here, unlike plain polynomials.
    Terms are canonicalized: zero coefficients dropped, equal exponents
    merged, sorted by exponent.
    """

    terms: tuple[tuple[float, float], ...]  # (coefficient, exponent)

    @staticmethod
    def from_terms(terms) -> "GeneralizedPolynomial":
        merged: dict[float, float] = {}
        for c, e in terms:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            merged[e] = merged.get(e, 0.0) + c
        canon = tuple(
            (c, e) for e, c in sorted(merged.items()) if c != 0.0
        )
        return GeneralizedPolynomial(canon)

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError(f"defined for x >= 0, got {x}")
        total = 0.0
        for c, e in self.terms:
            if x == 0.0:
                total += c if e == 0.0 else 0.0
            else:
                total += c * x ** e
        return total

    @property
    def is_zero(self) -> bool:
        return not self.terms


def caputo_monomial(beta: float, alpha: float) -> GeneralizedPolynomial:
    """Caputo derivative of order alpha applied to x^beta.

    Integer beta below ceil(alpha) is annihilated (constants and the low
    powers absorbed by the initial conditions); otherwise the result is the
    single term Gamma(beta+1)/Gamma(beta+1-alpha) * x^(beta-alpha); both
    arguments of math.gamma are then at least 1.
    """
    if beta < 0:
        raise ValueError(f"exponent must be >= 0, got {beta}")
    if not alpha > 0:
        raise ValueError(f"order must be > 0, got {alpha}")
    beta_is_int = float(beta).is_integer()
    if beta_is_int and beta < math.ceil(alpha):
        return GeneralizedPolynomial(())
    if beta - alpha < 0:
        # only reachable with non-integer beta; the image would have a
        # negative exponent, which this representation excludes
        raise ValueError(
            f"Caputo image of x^{beta} at order {alpha} has negative exponent"
        )
    coef = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha)
    return GeneralizedPolynomial(((coef, beta - alpha),))


def caputo_polynomial(P, alpha: float) -> GeneralizedPolynomial:
    """Term-wise Caputo derivative of a Polynomial or GeneralizedPolynomial.

    This is the exact reference operator; the operational matrix is only an
    approximation of it and is validated against this function.
    """
    if isinstance(P, Polynomial):
        items = [(c, float(e)) for e, c in enumerate(P.coeffs) if c != 0.0]
    elif isinstance(P, GeneralizedPolynomial):
        items = list(P.terms)
    else:
        raise TypeError(f"unsupported operand type {type(P).__name__}")
    out: list[tuple[float, float]] = []
    for c, e in items:
        image = caputo_monomial(e, alpha)
        for ic, ie in image.terms:
            out.append((c * ic, ie))
    return GeneralizedPolynomial.from_terms(out)


def _check_order(alpha: float, N: int) -> int:
    if not 0 < alpha <= MAX_ORDER:
        raise ValueError(f"order must lie in (0, {MAX_ORDER}], got {alpha}")
    ca = math.ceil(alpha)
    if ca > N:
        raise ValueError(f"ceil(alpha)={ca} exceeds degree bound N={N}")
    return ca


def build_Z(alpha: float, N: int) -> np.ndarray:
    """Diagonal Gamma-ratio factors: entry (j, j) = Gamma(j+1)/Gamma(j+1-alpha)
    for j = ceil(alpha)..N, zero otherwise.

    Both Gammas are math.gamma at arguments >= 1.  For integer alpha they
    are exact factorials, so the entries are exact integers.
    """
    ca = _check_order(alpha, N)
    Z = np.zeros((N + 1, N + 1))
    for j in range(ca, N + 1):
        Z[j, j] = math.gamma(j + 1.0) / math.gamma(j + 1.0 - alpha)
    return Z


def build_E(alpha: float, basis: BoubakerBasis) -> np.ndarray:
    """Expansion matrix of the fractional powers: row i holds the basis
    coefficients of the L2 projection of x^(i-alpha); rows below
    ceil(alpha) are zero.

    With alpha = p/q exactly and beta = b/q, b = iq - p >= 0, the Legendre
    moments of row i are a_k = num_k / den with
    num_k = (2k+1) q prod_{j<k} (b - jq) prod_{k<j<=N} (b + (1+j)q) and
    den = prod_{j<=N} (b + (1+j)q) > 0, all integers.  The row is
    T num / den for the integer Legendre-to-basis matrix T.  All rows are
    formed at once in whole-array integer arithmetic (object arrays of
    Python ints), with one correctly rounded integer quotient per entry.
    """
    N = basis.N
    ca = _check_order(alpha, N)
    p, q = Fraction(alpha).as_integer_ratio()  # exact value of the float argument
    j = np.arange(N + 1).astype(object)
    b = np.arange(ca, N + 1).astype(object)[:, None] * q - p  # one row per i
    one = np.ones_like(b)
    # tail[:, k] = prod_{k<j<=N} (b + (1+j)q) and head[:, k] = q prod_{j<k} (b - jq)
    tail = np.multiply.accumulate(np.hstack([one, b + (1 + j[:0:-1]) * q]), 1)[:, ::-1]
    head = np.multiply.accumulate(np.hstack([q * one, b - j[:-1] * q]), 1)
    num, den = (2 * j + 1) * head * tail, tail[:, :1] * (b + q)
    E = np.zeros((N + 1, N + 1))
    E[ca:] = (num @ legendre_to_boubaker_int(N).T) / den
    return E


@dataclass(frozen=True)
class OperationalMatrix:
    """Order-alpha Caputo differentiation acting on basis coefficients."""

    alpha: float
    N: int
    D: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.D.setflags(write=False)


def build_D(alpha: float, basis: BoubakerBasis) -> OperationalMatrix:
    """Operational matrix D = M Z E with rows 0..ceil(alpha)-1 exactly zero.

    For integer alpha each x^(i-alpha) lies in the span, the exact
    projection recovers its integer coordinates, and D is exact.
    """
    _check_order(alpha, basis.N)
    D = basis.M @ build_Z(alpha, basis.N) @ build_E(alpha, basis)
    return OperationalMatrix(alpha=alpha, N=basis.N, D=D)
