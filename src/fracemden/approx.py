"""Quadrature on [0, 1] and L2 projection onto the polynomial basis span.

Projection returns the coefficient vector C minimizing ||f - C^T B|| in
L2[0,1].  The naive route (Gram-matrix normal equations in float64) loses
up to ~kappa(Q)*eps, which is catastrophic beyond N ~ 4, so two better
conditioned routes are used:

* functions that already lie in the span (residual at check points at
  rounding level) are recovered by interpolation at Chebyshev-Lobatto
  nodes, exactly over Fractions -- the float nodes are dyadic rationals,
  so Newton divided differences give the interpolant's monomial
  coefficients in O(N^2) and the integer inverse of M maps them to the
  basis, and the only error left is the caller's own evaluation noise;
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
    eval_basis,  # unused here, but perfbench's tracer patches this binding
    eval_series,
    legendre_shifted_int,
    legendre_to_boubaker_int,
    monomial_to_boubaker_int,
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


def _interpolate_exact(nodes, vals) -> np.ndarray:
    """Basis coefficients of the polynomial through the points (nodes[i],
    vals[i]): Newton divided differences over Fractions (Bjorck & Pereyra,
    1970), the Newton form expanded into monomial coefficients, then the
    integer change of basis; one rounding per coefficient."""
    from fractions import Fraction

    xs = [Fraction(x) for x in nodes]
    c = [Fraction(v) for v in vals]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
    p = [c[-1]]  # ascending monomial coefficients, by p <- p (x - xs[k]) + c[k]
    for k in range(len(xs) - 2, -1, -1):
        p = [0, *p]
        for j in range(len(p) - 1):
            p[j] -= xs[k] * p[j + 1]
        p[0] += c[k]
    C = np.array(p, dtype=object) @ monomial_to_boubaker_int(len(xs) - 1)
    return np.array([float(v) for v in C])


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
        # Chebyshev-Lobatto nodes: dyadic floats, taken exactly as Fractions
        nodes = [0.5] if N == 0 else [(math.cos(i * math.pi / N) + 1.0) / 2.0
                                      for i in range(N + 1)]
        vals = _sample(f, np.array(nodes)).tolist()
        C_hat = _interpolate_exact(nodes, vals)
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
