"""lane_emden(n, alpha) against its power series summed in mpmath
(series_reference), which shares no code with the solver."""

import math

import pytest

from fracemden.problems import lane_emden
from fracemden.solver import solve
from series_reference import lane_emden_pade, lane_emden_series

EXACT_AT_ALPHA_1 = {1: lambda x: math.sin(x) / x, 5: lambda x: (1 + x * x / 3) ** -0.5}
# u(1) of lane_emden(5, alpha), where [m/m] Pade sums in s = x^(2 alpha)
# agree to 15 digits for m = 20, 30, 40 and 60
PADE_AT_1 = {0.51: 0.835647731851061, 0.6: 0.836994578855898}


@pytest.mark.parametrize("n", sorted(EXACT_AT_ALPHA_1))
@pytest.mark.parametrize("x", [0.25, 0.5, 1.0])
def test_series_at_alpha_1_is_the_closed_form(n, x):
    u, last = lane_emden_series(n, 1.0, x)
    assert last < 1e-30
    assert u == pytest.approx(EXACT_AT_ALPHA_1[n](x), rel=0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8, 0.9, 1.0])
def test_series_converges_at_half_over_the_domain(alpha):
    _, last = lane_emden_series(5, alpha, 0.5)
    assert last < 1e-34


def test_series_value_at_alpha_0_6():
    # correctly rounded: at 40 digits and 300 terms the sum is
    # 0.90821020463363474394, 2.3e-17 above the midpoint of two floats
    assert lane_emden_series(5, 0.6, 0.5)[0] == 0.9082102046336348


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("N", [12, 15])
def test_paper_route_at_alpha_1_matches_the_series(n, N):
    [(_, u, _, _)] = solve(lane_emden(n, 1.0), N).rows([0.5])
    assert abs(u - lane_emden_series(n, 1.0, 0.5)[0]) <= 1e-11


@pytest.mark.parametrize("alpha", sorted(PADE_AT_1))
def test_pade_sum_at_1_past_the_radius(alpha):
    # the plain sum diverges at x = 1 for these alpha; two Pade orders
    # agree, on the tabulated value, with a Q that keeps one sign on [0, 1]
    assert lane_emden_series(5, alpha, 1.0)[1] > 1
    (u30, q30), (u40, q40) = (lane_emden_pade(5, alpha, 1.0, m) for m in (30, 40))
    assert abs(u30 - u40) <= 1e-13
    assert max(abs(u30 - PADE_AT_1[alpha]), abs(u40 - PADE_AT_1[alpha])) <= 1e-14
    for q in (q30, q40):
        assert len(q) == 1001
        assert all(v > 0 for v in q) or all(v < 0 for v in q)
