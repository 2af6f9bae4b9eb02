"""lane_emden(n, alpha) against its power series summed in mpmath
(series_reference), which shares no code with the solver."""

import math

import pytest

from fracemden.problems import lane_emden
from fracemden.solver import solve
from series_reference import lane_emden_series

EXACT_AT_ALPHA_1 = {1: lambda x: math.sin(x) / x, 5: lambda x: (1 + x * x / 3) ** -0.5}


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
