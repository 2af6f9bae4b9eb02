"""Boubaker polynomial basis on [0, 1].

The family starts B_0 = 1, B_1 = x, B_2 = x^2 + 2 and continues with the
three-term recurrence B_m = x*B_{m-1} - B_{m-2} for m >= 3.  Every B_n is
monic of degree n with integer coefficients, and only powers with the same
parity as n appear.  The whole basis up to degree N is summarised by the
unit lower-triangular change-of-basis matrix M with B(x) = M * [1, x, ..,
x^N]^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Gram matrices of this basis inherit Hilbert-like conditioning, so large
# degree bounds silently destroy double-precision accuracy.  Constructions
# beyond this cap must be forced explicitly.
DEGREE_CAP = 15


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as monomial coefficients, ascending powers.

    ``coeffs[i]`` multiplies x^i.  Trailing zeros are allowed; ``degree``
    ignores them and is None for the zero polynomial.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a Polynomial needs at least one coefficient")

    @property
    def degree(self) -> int | None:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return None

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def boubaker_coefficient(n: int, p: int) -> int:
    """Coefficient of x^(n-2p) in B_n.

    Evaluates ((n-4p)/(n-p)) * C(n-p, p) * (-1)^p as one exact integer
    division; the result is always an integer.  n = 0 is the special case
    B_0 = 1, where the quotient formula is indeterminate.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if p < 0 or p > n // 2:
        raise ValueError(f"p={p} outside [0, {n // 2}] for n={n}")
    if n == 0:
        return 1
    value, rem = divmod((n - 4 * p) * math.comb(n - p, p) * (-1) ** p, n - p)
    # the family is integer-valued; a remainder here would mean a bug
    assert rem == 0
    return value


def _int_coeffs(n: int) -> list[int]:
    """Ascending integer coefficient list of B_n, length n+1."""
    c = [0] * (n + 1)
    for p in range(n // 2 + 1):
        c[n - 2 * p] = boubaker_coefficient(n, p)
    return c


def boubaker_polynomial(n: int) -> Polynomial:
    """B_n as a Polynomial; monic of exact degree n."""
    return Polynomial(tuple(float(c) for c in _int_coeffs(n)))


def boubaker_recurrence_check(N: int) -> bool:
    """Verify x*B_{m-1} - B_{m-2} reproduces the closed form for 3 <= m <= N.

    The recurrence is seeded with B_1 = x and B_2 = x^2 + 2 (seeding from
    B_0, B_1 would produce x^2 - 1 instead of B_2) and the comparison is
    coefficient-exact in integer arithmetic.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    prev2 = _int_coeffs(1)
    prev1 = _int_coeffs(2)
    for m in range(3, N + 1):
        nxt = [0] + prev1  # x * B_{m-1}
        for i, c in enumerate(prev2):
            nxt[i] -= c
        if nxt != _int_coeffs(m):
            return False
        prev2, prev1 = prev1, nxt
    return True


def build_M_int(N: int) -> list[list[int]]:
    """Exact integer rows of the basis-to-monomial matrix, row n = B_n."""
    if N < 0:
        raise ValueError(f"degree bound must be nonnegative, got {N}")
    return [_int_coeffs(n) + [0] * (N - n) for n in range(N + 1)]


@lru_cache(maxsize=32)
def legendre_shifted_int(N: int) -> tuple[tuple[int, ...], ...]:
    """Integer monomial coefficients of the shifted Legendre polynomials
    on [0,1]: row k, entry j = (-1)^(k+j) C(k,j) C(k+j,j)."""
    return tuple(
        tuple(
            (-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j)
            if j <= k
            else 0
            for j in range(N + 1)
        )
        for k in range(N + 1)
    )


@lru_cache(maxsize=32)
def legendre_to_boubaker_int(N: int) -> np.ndarray:
    """Integer change of basis T = M^{-T} L^T from shifted Legendre to
    Boubaker coefficients: sum_k a_k P~_k = sum_n (T a)_n B_n.

    Column k holds the basis coordinates of P~_k, found by exact back
    substitution through M^T; they are integers because M is unit lower
    triangular with integer entries: Python ints in a read-only object array.
    """
    L = legendre_shifted_int(N)
    Mint = build_M_int(N)
    cols = []
    for k in range(N + 1):
        c = [0] * (N + 1)
        for n in range(N, -1, -1):
            c[n] = L[k][n] - sum(Mint[i][n] * c[i] for i in range(n + 1, N + 1))
        cols.append(c)
    T = np.array(cols, dtype=object).T
    T.setflags(write=False)
    return T


def build_M(N: int) -> np.ndarray:
    """(N+1)x(N+1) matrix M with B(x) = M T(x), T = [1, x, ..., x^N]^T.

    Unit lower triangular with the parity sparsity pattern, so det M = 1.
    """
    return np.array(build_M_int(N), dtype=float)


@dataclass(frozen=True)
class BoubakerBasis:
    """Degree bound N plus all basis-dependent precomputation.

    Immutable after construction; safe to share across threads.
    """

    N: int
    polys: tuple[Polynomial, ...]
    M: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.M.setflags(write=False)


def build_basis(N: int, force: bool = False) -> BoubakerBasis:
    """Construct the basis B_0..B_N.

    Degrees above DEGREE_CAP are refused unless forced, because the Gram
    matrix condition number exceeds ~1e12 well before that point.
    """
    if N < 0:
        raise ValueError(f"degree bound must be nonnegative, got {N}")
    if N > DEGREE_CAP and not force:
        raise ValueError(
            f"N={N} exceeds the default cap {DEGREE_CAP}: the Gram matrix "
            "condition number grows Hilbert-like and double precision "
            "results are unreliable"
        )
    Mint = build_M_int(N)
    polys = tuple(
        Polynomial(tuple(float(c) for c in row[: n + 1])) for n, row in enumerate(Mint)
    )
    return BoubakerBasis(N=N, polys=polys, M=np.array(Mint, dtype=float))


def eval_basis(x, basis: BoubakerBasis) -> np.ndarray:
    """[B_0(x), ..., B_N(x)] for a scalar x; for an array of points, the
    matrix whose row k is that vector at x[k].

    One Horner loop runs over all rows of M and all points at once.  Each
    entry sees the same multiply and add roundings, in the same order, as
    a scalar Horner loop over its row, so a grid call equals the stack of
    scalar calls bit for bit.
    """
    M = basis.M
    x = np.asarray(x, dtype=float)
    acc = np.empty(x.shape + (basis.N + 1,))
    acc[...] = M[:, basis.N]
    x = x[..., None]
    for k in range(basis.N - 1, -1, -1):
        acc *= x
        acc += M[:, k]
    return acc


def eval_series(C, x, basis: BoubakerBasis):
    """Evaluate the series sum_n C[n] * B_n(x): a float for a scalar x; for
    a 1-D array of points, the array of those floats, each the same dot
    product C . B(x_k) as the scalar call, bit for bit (B(x) @ C would
    not be: BLAS may sum a matrix-vector product in another order)."""
    C = np.asarray(C, dtype=float)
    if C.shape != (basis.N + 1,):
        raise ValueError(
            f"coefficient vector has shape {C.shape}, expected ({basis.N + 1},)"
        )
    B = eval_basis(x, basis)
    if B.ndim == 1:
        return float(C @ B)
    return np.array([C @ row for row in B])
