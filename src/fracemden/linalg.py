"""Dense real linear algebra sized for small spectral systems.

Everything here operates on plain numpy arrays at most (DEGREE_CAP+1)
square.  Alongside the double-precision kernels there is an exact-rational
layer (Fraction matrices) used where Hilbert-like conditioning would ruin
float64.  The operational matrix does not use it: its expansion matrix E
comes from closed-form Legendre moments in exact integer arithmetic (see
fraccalc).  The rational Gram matrix now backs only the positive-
definiteness certificate, and the exact solve also serves the Vandermonde
interpolation in approx.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polybasis import BoubakerBasis, build_M_int


class SingularMatrixError(Exception):
    """Raised on an exactly zero pivot; carries the pivot index."""

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


def lu_factor(A: np.ndarray):
    """LU with partial pivoting; returns (LU, piv). Internal helper."""
    A = np.array(A, dtype=float)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            raise SingularMatrixError(k)
        if p != k:
            A[[k, p]] = A[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        A[k + 1:, k] /= A[k, k]
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return A, piv


def lu_solve(A: np.ndarray, b) -> np.ndarray:
    """Solve A x = b (b a vector or a matrix of right-hand sides)."""
    LU, piv = lu_factor(A)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 1
    B = b[:, None].copy() if vector else b.copy()
    if B.shape[0] != LU.shape[0]:
        raise ValueError(
            f"right-hand side has {B.shape[0]} rows, matrix is {LU.shape[0]}x{LU.shape[0]}"
        )
    B = B[piv]
    n = LU.shape[0]
    for k in range(n):  # forward, unit lower
        B[k + 1:] -= np.outer(LU[k + 1:, k], B[k])
    for k in range(n - 1, -1, -1):  # backward
        B[k] /= LU[k, k]
        B[:k] -= np.outer(LU[:k, k], B[k])
    return B[:, 0] if vector else B


def invert(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return lu_solve(A, np.eye(A.shape[0]))


def condition_estimate(A: np.ndarray) -> float:
    """1-norm condition number from the explicit inverse; inf if singular.

    Fine at these sizes; accurate to a small factor until kappa approaches
    1/eps, which is exactly when the caller should stop trusting results.
    """
    A = np.asarray(A, dtype=float)
    try:
        Ainv = invert(A)
    except SingularMatrixError:
        return math.inf
    return float(np.linalg.norm(A, 1) * np.linalg.norm(Ainv, 1))


# -- exact-rational layer ---------------------------------------------------


@lru_cache(maxsize=32)
def gram_fractions(N: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Gram matrix as Fractions (M is integer, H is rational)."""
    Mint = build_M_int(N)
    H = [[Fraction(1, i + j + 1) for j in range(N + 1)] for i in range(N + 1)]
    rows = []
    for i in range(N + 1):
        row = []
        for j in range(N + 1):
            s = Fraction(0)
            for k in range(i + 1):
                mik = Mint[i][k]
                if mik == 0:
                    continue
                hk = H[k]
                for l in range(j + 1):
                    mjl = Mint[j][l]
                    if mjl:
                        s += mik * hk[l] * mjl
            row.append(s)
        rows.append(tuple(row))
    return tuple(rows)


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
