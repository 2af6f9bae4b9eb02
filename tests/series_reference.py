"""An independent reference for lane_emden(n, alpha): its fractional power
series, summed with mpmath.

With u = sum_k c_k t^k and t = x^alpha, D^alpha t^k = G_k t^(k-1) exactly,
where G_k = Gamma(k alpha + 1) / Gamma((k - 1) alpha + 1), and the order
2 alpha takes t^k to G_k G_(k-1) t^(k-2).  So the equation
D^(2 alpha) u + (lambda / x^alpha) D^alpha u + u^n = 0 with u(0) = 1 and
D^alpha u(0) = 0 gives c_0 = 1, c_1 = 0 and, for k >= 2,

    c_k = -[u^n]_(k-2) / (G_k (G_(k-1) + lambda)),

where [u^n]_m is the coefficient of t^m in u^n.  It comes from
J. C. P. Miller's power recurrence (Knuth, TAOCP Vol. 2, 3rd ed., sec.
4.7): p_0 = c_0^n and p_m = sum_(j=1..m) ((n + 1) j - m) c_j p_(m-j) /
(m c_0), which reads only c_1..c_m.  At alpha = 1 this is the classical
Lane-Emden series.  Nothing here uses the basis, the operational matrices
or the solver.

The series converges at x = 0.5 over the whole domain (1/2, 1]; at x = 1
its radius in t falls below 1 for small alpha.  So each sum comes with the
size of its last terms, which a caller checks.  c_1 = 0 makes every odd
coefficient vanish, so that size is the larger of the last two.
"""

from functools import lru_cache

import mpmath

LAMBDA = 2  # lane_emden's damping coefficient


@lru_cache(maxsize=None)
def lane_emden_series(n: int, alpha: float, x: float, terms: int = 240,
                      digits: int = 30) -> tuple[float, float]:
    """(u(x), size of the last terms) of lane_emden(n, alpha), from
    `terms` terms of its series at `digits` significant digits; alpha and
    x are taken as the binary floats given."""
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        G = [None] + [mpmath.gamma(k * a + 1) / mpmath.gamma((k - 1) * a + 1)
                      for k in range(1, terms)]
        c = [mpmath.mpf(1), mpmath.mpf(0)]
        p = [c[0] ** n]  # p[m] is [u^n]_m
        for k in range(2, terms):
            m = k - 2
            if m:
                p.append(mpmath.fsum(((n + 1) * j - m) * c[j] * p[m - j]
                                     for j in range(1, m + 1)) / (m * c[0]))
            c.append(-p[m] / (G[k] * (G[k - 1] + LAMBDA)))
        t = mpmath.mpf(x) ** a
        series = [ck * t**k for k, ck in enumerate(c)]
        return float(mpmath.fsum(series)), float(max(map(abs, series[-2:])))
