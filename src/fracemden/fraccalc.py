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
coefficients (see _expansions); the integer inverse of M maps them to basis
coefficients, so no Gram system is formed or solved.  alpha enters as its
exact binary rational p/q, all coefficients of a row share one integer
denominator, and the rows are formed together in integer arrays with one
correctly rounded integer quotient per entry -- the same float as the exact
rational solution of the normal equations.  A solve of order alpha needs
the orders alpha and 2 alpha = 2p/q, which share q: build_D_pair stacks the
rows of both into one pass (one prefix/suffix product, one sparse product
with the nonzeros of the cached integer inverse, one quotient per entry),
and each order's row denominators slide along its consecutive rows, one
multiplication and one exact division per row.  build_E is the same pass
over one order.  Only the Gamma-factor scaling is floating point; Gamma is
the standard library's math.gamma, which is within a few ulp and returns
the exact factorials through 22!.  For integer alpha every x^(i-alpha)
lies in the basis span, every Gamma ratio is a quotient of exact
factorials, and the resulting matrix is exactly integer.
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
def _weighted_inverse(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of G, the integer inverse of M with row j scaled by
    c_j = (-1)^j (N+j+1)! / (j!^2 (N-j)!), column by column: their rows J,
    their values and the start of each column's run, so that
    num G = add.reduceat(num[:, J] * values, starts, axis=1).  Under a
    third of G is nonzero (B_n has only powers of n's parity, and M^{-1}
    is triangular), and no run is empty: B_k is monic, so G[k, k] = c_k."""
    f = math.factorial
    c = [(-1) ** j * f(N + j + 1) // (f(j) ** 2 * f(N - j)) for j in range(N + 1)]
    G = monomial_to_boubaker_int(N) * np.array(c, dtype=object)[:, None]
    K, J = np.nonzero(G.T)  # column-major, so K is sorted
    tables = (J, G[J, K], np.searchsorted(K, np.arange(N + 1)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _expansions(alpha: float, N: int, multiples: tuple[int, ...]) -> list[np.ndarray]:
    """Expansion matrices of the orders m alpha, m in multiples, from one
    stacked pass: row i of each holds the basis coefficients of the L2
    projection of x^(i - m alpha); rows below ceil(m alpha) are zero.

    With alpha = p/q exactly, the orders m p/q share q.  With t_k = kq - mp,
    row i of order m has b = t_i >= 0, and its monomial coefficients are
    w_j = c_j num_j / den with the integer weight
    c_j = (-1)^j (N+j+1)!/(j!^2 (N-j)!), num_j = q prod_{l!=j} (lq - b) from
    one prefix and one suffix product, and den = prod_{k=i+1}^{i+N+1} t_k,
    whose factors are all positive: along an order's consecutive rows den
    slides by one multiplication and one exact division.  The row is
    num G / den for the cached G = diag(c) M^{-1}, summed over its nonzeros
    only.  The rows of all orders are stacked into one set of whole-array
    integer operations (object arrays of Python ints), with one correctly
    rounded integer quotient per entry.
    """
    cas = [_check_order(m * alpha, N) for m in multiples]  # m alpha is exact for m = 1, 2
    p, q = float(alpha).as_integer_ratio()  # exact value of the float argument
    b, den = [], []
    for m, ca in zip(multiples, cas):
        t = [k * q - m * p for k in range(ca, 2 * N + 2)]  # t[k - ca] = t_k
        b += t[: N + 1 - ca]  # rows i = ca..N
        d = math.prod(t[1 : N + 2])
        den.append(d)
        for r in range(1, N + 1 - ca):  # row i = ca + r
            d = d * t[r + N + 1] // t[r]
            den.append(d)
    f = np.arange(N + 1).astype(object) * q - np.array(b, dtype=object)[:, None]
    f[:, 0] *= q  # only the prefix products read column 0
    num = np.full_like(f, q)
    np.multiply.accumulate(f[:, :-1], 1, out=num[:, 1:])
    num[:, :-1] *= np.multiply.accumulate(f[:, :0:-1], 1)[:, ::-1]
    J, values, starts = _weighted_inverse(N)
    X = np.add.reduceat(num[:, J] * values, starts, axis=1)  # num G
    rows = X / np.array(den, dtype=object)[:, None]
    out, top = [], 0
    for ca in cas:
        E = np.zeros((N + 1, N + 1))
        E[ca:] = rows[top : top + N + 1 - ca]
        top += N + 1 - ca
        out.append(E)
    return out


def build_E(alpha: float, basis: BoubakerBasis) -> np.ndarray:
    """Expansion matrix of the fractional powers: row i holds the basis
    coefficients of the L2 projection of x^(i-alpha); rows below
    ceil(alpha) are zero.  The one-order case of _expansions."""
    return _expansions(alpha, basis.N, (1,))[0]


@dataclass(frozen=True)
class OperationalMatrix:
    """Order-alpha Caputo differentiation acting on basis coefficients."""

    alpha: float
    N: int
    D: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.D.setflags(write=False)


def _caputo_matrices(alpha: float, basis: BoubakerBasis,
                     multiples: tuple[int, ...]) -> list[np.ndarray]:
    """D = M Z E of each order m alpha, m in multiples, from one _expansions call."""
    E = _expansions(alpha, basis.N, multiples)
    return [basis.M @ build_Z(m * alpha, basis.N) @ E_m for m, E_m in zip(multiples, E)]


def build_D(alpha: float, basis: BoubakerBasis) -> OperationalMatrix:
    """Operational matrix D = M Z E with rows 0..ceil(alpha)-1 exactly zero.

    For integer alpha each x^(i-alpha) lies in the span, the exact
    projection recovers its integer coordinates, and D is exact.
    """
    D = _caputo_matrices(alpha, basis, (1,))[0]
    return OperationalMatrix(alpha=alpha, N=basis.N, D=D)


def build_D_pair(alpha: float, basis: BoubakerBasis) -> tuple[np.ndarray, np.ndarray]:
    """The matrices D of build_D(alpha, basis) and build_D(2 alpha, basis),
    bit for bit, with both expansions from one pass of _expansions: the
    pair a solve of order alpha reads.  Needs 0 < alpha <= 1."""
    return tuple(_caputo_matrices(alpha, basis, (1, 2)))
