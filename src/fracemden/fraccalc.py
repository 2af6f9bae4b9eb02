"""Caputo fractional calculus and the differentiation operational matrix.

The Caputo derivative of order alpha > 0 annihilates constants and maps a
power x^beta to Gamma(beta+1)/Gamma(beta+1-alpha) * x^(beta-alpha) (zero for
integer beta below ceil(alpha)).  Applying this rule term-wise to each basis
polynomial, and re-expanding the fractional powers x^(i-alpha) back into the
basis by L2 projection, yields an (N+1)x(N+1) matrix D with

    D^alpha B(x) ~= D B(x),

so differentiating a coefficient vector reduces to one matrix product.
Supported orders are 0 < alpha <= 2.

The projection of x^beta, beta = i - alpha, onto polynomials of degree N
solves a Hilbert-type (Cauchy) system with a closed-form inverse (M.-D.
Choi, Amer. Math. Monthly 90 (1983) 301-312), which gives its monomial
coefficients (see build_E); the integer inverse of M maps them to basis
coefficients, so no Gram system is formed or solved.  alpha enters as its
exact binary rational p/q, all coefficients of a row share one integer
denominator, and all rows are formed at once in integer arrays with one
correctly rounded integer quotient per entry -- the same float as the exact
rational solution of the normal equations.  Only the Gamma-factor scaling is
floating point; Gamma is the standard library's math.gamma, which is within
a few ulp and returns the exact factorials through 22!.  For integer alpha
every x^(i-alpha) lies in the basis span, every Gamma ratio is a quotient
of exact factorials, and the resulting matrix is exactly integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polybasis import BoubakerBasis, Polynomial, monomial_to_boubaker_int

MAX_ORDER = 2.0


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """Finite sum of c * x^e terms with finite real exponents e >= 0.

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
            if not math.isfinite(e):
                raise ValueError(f"exponent must be finite, got {e}")
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
    arguments of math.gamma are then at least 1.  Both must be finite.
    """
    if beta < 0:
        raise ValueError(f"exponent must be >= 0, got {beta}")
    if not alpha > 0:
        raise ValueError(f"order must be > 0, got {alpha}")
    for name, v in (("exponent", beta), ("order", alpha)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
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


@lru_cache(maxsize=32)
def _weighted_inverse(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks (B_n has only powers of n's parity) of the integer
    inverse of M with row j scaled by (-1)^j (N+j+1)! / (j!^2 (N-j)!)."""
    f = math.factorial
    c = [(-1) ** j * f(N + j + 1) // (f(j) ** 2 * f(N - j)) for j in range(N + 1)]
    G = monomial_to_boubaker_int(N) * np.array(c, dtype=object)[:, None]
    G.setflags(write=False)
    return G[0::2, 0::2], G[1::2, 1::2]


def build_E(alpha: float, basis: BoubakerBasis) -> np.ndarray:
    """Expansion matrix of the fractional powers: row i holds the basis
    coefficients of the L2 projection of x^(i-alpha); rows below
    ceil(alpha) are zero.

    With alpha = p/q exactly and beta = b/q, b = iq - p >= 0, the monomial
    coefficients of row i are w_j = c_j num_j / den with the integer weight
    c_j = (-1)^j (N+j+1)!/(j!^2 (N-j)!), num_j = q prod_{l!=j} (lq - b)
    from one prefix and one suffix product, and den = prod_{m<=N}
    (b + (1+m)q) > 0.  The row is num G / den for the cached G = diag(c)
    M^{-1}, applied block by parity.  All rows are formed at once in
    whole-array integer arithmetic (object arrays of Python ints), with one
    correctly rounded integer quotient per entry.
    """
    N = basis.N
    ca = _check_order(alpha, N)
    p, q = float(alpha).as_integer_ratio()  # exact value of the float argument
    lq = np.arange(N + 1).astype(object) * q
    b = np.arange(ca, N + 1).astype(object)[:, None] * q - p  # one row per i
    f = lq - b
    f[:, 0] *= q  # only the prefix products read column 0
    num = np.full_like(f, q)
    np.multiply.accumulate(f[:, :-1], 1, out=num[:, 1:])
    num[:, :-1] *= np.multiply.accumulate(f[:, :0:-1], 1)[:, ::-1]
    den = np.multiply.reduce(lq + (b + q), 1)[:, None]
    even, odd = _weighted_inverse(N)
    E = np.zeros((N + 1, N + 1))
    E[ca:, 0::2] = (num[:, 0::2] @ even) / den
    E[ca:, 1::2] = (num[:, 1::2] @ odd) / den
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
