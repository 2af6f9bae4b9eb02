"""Quadrature on [0, 1] and L2 projection onto the polynomial basis span.

Projection returns the coefficient vector C minimizing ||f - C^T B|| in
L2[0,1].  The naive route (Gram-matrix normal equations in float64) loses
up to ~kappa(Q)*eps, which is catastrophic beyond N ~ 4, so two better
conditioned routes are used:

* functions that already lie in the span (residual at check points at
  rounding level) are recovered by interpolation at Chebyshev-Lobatto
  nodes, with the Vandermonde system solved exactly over Fractions -- the
  float nodes are dyadic rationals over one power of two and the basis has
  integer coefficients, so the Vandermonde matrix is one integer product
  and the only error left is the caller's own evaluation noise;
* everything else goes through inner products against the shifted Legendre
  frame (orthogonal, so no amplification), one Horner pass over the whole
  integer Legendre table per panel, followed by an exact integer change of
  basis back to the working family.

Both routes agree with the Gram-matrix definition in exact arithmetic.
Quadrature order is fixed (64 Gauss-Legendre points, composited over four
geometrically graded panels when an integrable singularity at x = 0 is
flagged) to keep results bit-reproducible; every rule comes from one
cached, read-only node/weight pair per point count.  Series values on a
grid come from polybasis.eval_series, one call per grid.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .polybasis import (
    BoubakerBasis,
    build_M_int,
    eval_basis,  # unused here, but perfbench's tracer patches this binding
    eval_series,
    legendre_shifted_int,
    legendre_to_boubaker_int,
)

QUAD_POINTS = 64
# panel edges graded toward 0: keeps Gauss error ~1e-13 even for x^s, s > -1
SINGULAR_PANELS = (0.0, 1e-6, 1e-4, 1e-2, 1.0)
# interpolation residual (relative to sample scale) below which f is treated
# as an exact member of the span
_SPAN_DETECT_RTOL = 1e-11


class EvaluationError(Exception):
    """A function sample came back non-finite; carries the sample point."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"non-finite sample f({x!r}) = {value!r}")


@lru_cache(maxsize=64)
def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1],
    exact for polynomials of degree <= 2n-1; read-only since every caller
    shares the cached arrays."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _sample(f, xs: np.ndarray) -> np.ndarray:
    vals = np.empty(len(xs))
    for i, x in enumerate(xs):
        v = float(f(float(x)))
        if not math.isfinite(v):
            raise EvaluationError(float(x), v)
        vals[i] = v
    return vals


def _quad_nodes(singular_at_zero: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    xs, ws = _gl01(QUAD_POINTS)
    if not singular_at_zero:
        return [(xs, ws)]
    panels = []
    for lo, hi in zip(SINGULAR_PANELS[:-1], SINGULAR_PANELS[1:]):
        panels.append((lo + (hi - lo) * xs, (hi - lo) * ws))
    return panels


def integrate_01(f, singular_at_zero: bool = False) -> float:
    """int_0^1 f(x) dx by the fixed 64-point rule (graded panels when f is
    singular at the left endpoint)."""
    total = 0.0
    for xs, ws in _quad_nodes(singular_at_zero):
        total += float(ws @ _sample(f, xs))
    return total


@lru_cache(maxsize=32)
def _lobatto_vandermonde(N: int):
    """Chebyshev-Lobatto nodes on [0,1] and the exact rational Vandermonde
    V[i][n] = B_n(node_i), both as tuples.  Each node is a_i/Q over one
    power of two Q, so Q^N V is the integer product (a_i^k Q^(N-k)) M^T."""
    from fractions import Fraction

    if N == 0:
        nodes = (0.5,)
    else:
        nodes = tuple((math.cos(i * math.pi / N) + 1.0) / 2.0 for i in range(N + 1))
    Q = max(x.as_integer_ratio()[1] for x in nodes)
    a = np.array([int(x * Q) for x in nodes], dtype=object)[:, None]
    k = np.arange(N + 1).astype(object)
    QNV = (a**k * Q ** (N - k)) @ build_M_int(N).T
    return nodes, tuple(tuple(Fraction(v, Q**N) for v in row) for row in QNV.tolist())


def _interpolate_exact(vals: list[float], N: int) -> np.ndarray:
    from fractions import Fraction

    from .linalg import solve_fractions

    _, V = _lobatto_vandermonde(N)
    sol = solve_fractions(V, [Fraction(v) for v in vals])
    return np.array([float(v) for v in sol])


def _project_legendre(f, basis: BoubakerBasis, singular_at_zero: bool) -> np.ndarray:
    from fractions import Fraction

    N = basis.N
    L = legendre_shifted_int(N).astype(float)
    total = np.zeros(N + 1)
    for xs, ws in _quad_nodes(singular_at_zero):
        wf = ws * _sample(f, xs)
        pv = np.zeros((N + 1, len(xs)))
        for j in range(N, -1, -1):  # Horner over every Legendre row at once
            pv = pv * xs + L[:, j, None]
        total += [math.fsum(wf * row) for row in pv]
    a = np.arange(1, 2 * N + 2, 2) * total
    # exact integer change of basis from the Legendre frame
    C = legendre_to_boubaker_int(N) @ np.array([Fraction(v) for v in a], dtype=object)
    return C.astype(float)


def project(f, basis: BoubakerBasis, singular_at_zero: bool = False) -> np.ndarray:
    """Best-L2 coefficient vector of f over the basis span.

    f must be evaluable on [0, 1]; a non-finite sample raises
    EvaluationError carrying the point.  Set singular_at_zero when f has an
    integrable singularity (e.g. a fractional power) at the left endpoint.
    """
    N = basis.N
    if not singular_at_zero:
        nodes, _ = _lobatto_vandermonde(N)
        vals = [float(v) for v in _sample(f, np.array(nodes))]
        C_hat = _interpolate_exact(vals, N)
        check, _ = _gl01(N + 2)
        resid = float(np.max(np.abs(_sample(f, check) - eval_series(C_hat, check, basis))))
        scale = max(1.0, max(abs(v) for v in vals))
        if resid <= _SPAN_DETECT_RTOL * scale:
            # f is (to rounding) already in the span: the interpolant IS the
            # projection, recovered far more accurately than any quadrature
            return C_hat
    return _project_legendre(f, basis, singular_at_zero)


def l2_error(f, C, basis: BoubakerBasis, singular_at_zero: bool = False) -> float:
    """sqrt of int_0^1 (f - C^T B)^2 dx by quadrature."""
    total = 0.0
    for xs, ws in _quad_nodes(singular_at_zero):
        rv = _sample(f, xs) - eval_series(C, xs, basis)
        total += float(ws @ (rv * rv))
    return math.sqrt(max(total, 0.0))
