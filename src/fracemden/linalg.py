"""Dense real linear algebra sized for small spectral systems.

Everything here operates on matrices at most (DEGREE_CAP+1) square, in two
layers.  The float layer is numpy: the Gram matrix M H M^T, and a solve
and a 1-norm condition number that both go to numpy's LAPACK.  The
exact-rational layer returns Fractions where Hilbert-like conditioning
would ruin float64: the exact Gram matrix, one integer product over the
common denominator of H, backs the positive-definiteness certificate, and
the exact solve serves the Vandermonde interpolation in approx.  The
operational matrix uses neither solve: its expansion matrix E comes from
Choi's closed-form inverse of the Hilbert-type system and the integer
inverse of M, in exact integer arithmetic (see fraccalc).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polybasis import BoubakerBasis, build_M_int


class SingularMatrixError(Exception):
    """Raised by the exact layer on an exactly zero pivot; carries its index."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"exactly singular pivot at index {pivot_index}")


def hilbert(N: int) -> np.ndarray:
    """(N+1)x(N+1) Hilbert matrix, entry (i, j) = 1/(i+j+1) = int_0^1 x^i x^j dx."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    idx = np.arange(N + 1)
    return 1.0 / (idx[:, None] + idx[None, :] + 1.0)


def gram(basis: BoubakerBasis) -> np.ndarray:
    """Gram matrix Q[i][j] = int_0^1 B_i B_j dx, via M H M^T.

    The upper triangle is mirrored so the result is symmetric to the exact
    representation.
    """
    M = basis.M
    R = M @ hilbert(basis.N) @ M.T
    return np.triu(R) + np.triu(R, 1).T


def lu_solve(A: np.ndarray, b) -> np.ndarray:
    """Solve A x = b (b a vector or a matrix of right-hand sides) by LAPACK.

    Raises np.linalg.LinAlgError (a ValueError) on a singular matrix.
    Nothing under src/ calls it (a Newton step calls LAPACK's dgesv
    directly, solver._newton_step); it stays only because the benchmark's
    tracer wraps it by name.
    """
    return np.linalg.solve(A, b)


def condition_estimate(A: np.ndarray) -> float:
    """1-norm condition number ||A||_1 ||A^-1||_1; inf if A is singular.

    Accurate while kappa stays well below 1/eps.  Past that it saturates
    near 1e17-1e18, which says only that double precision is exhausted.
    Nothing under src/ calls it (a solve reports kappa_2 of its Jacobian,
    SolveReport.cond_J); it stays for the public API and because the
    benchmark's tracer wraps it by name.
    """
    return float(np.linalg.cond(A, 1))


# -- exact-rational layer ---------------------------------------------------


@lru_cache(maxsize=32)
def gram_fractions(N: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Gram matrix M H M^T as Fractions: one integer product
    M (L H) M^T over the common denominator L = lcm(1, ..., 2N+1) of H."""
    L = math.lcm(*range(1, 2 * N + 2))
    idx = np.arange(N + 1).astype(object)
    M = build_M_int(N)
    Q = M @ (L // (idx[:, None] + idx + 1)) @ M.T
    return tuple(tuple(Fraction(q, L) for q in row) for row in Q.tolist())


def solve_fractions(A, b) -> list[Fraction]:
    """Gaussian elimination over Fractions: exact solve of A x = b."""
    n = len(b)
    A = [list(row) for row in A]
    b = list(b)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(A[i][k]))
        if A[p][k] == 0:
            raise SingularMatrixError(k)
        if p != k:
            A[k], A[p] = A[p], A[k]
            b[k], b[p] = b[p], b[k]
        for i in range(k + 1, n):
            if A[i][k] == 0:
                continue
            f = A[i][k] / A[k][k]
            for j in range(k + 1, n):
                A[i][j] -= f * A[k][j]
            b[i] -= f * b[k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - sum(A[i][j] * x[j] for j in range(i + 1, n))) / A[i][i]
    return x


def gram_is_positive_definite(N: int) -> bool:
    """Exact LDL^T pivot test on the rational Gram matrix.

    float64 Cholesky of the Gram matrix breaks down around N = 10 because
    kappa exceeds 1/eps; this certificate is conditioning-proof.
    """
    A = [list(row) for row in gram_fractions(N)]
    n = N + 1
    for k in range(n):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k, n):
                A[i][j] -= f * A[k][j]
    return True
