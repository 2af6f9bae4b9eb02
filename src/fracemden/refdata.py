"""Published reference values for the benchmark problems.

These are the digits printed in the reference tables that the
``reproduce`` subcommand compares against, transcribed verbatim (5-digit
rounding and all).  They are comparison data, not truth: the fractional
rows in particular carry substantial noise from the original computation
(see the comparison notes below), so disagreement there is reported, not
treated as failure.
"""

from __future__ import annotations

ERROR_GRID_5 = (0.1, 0.3, 0.5, 0.7, 0.9)
ERROR_GRID_10 = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# lane_emden(1): absolute error of the degree-m solve against sin(x)/x
TABLE1 = {
    "grid": ERROR_GRID_5,
    "rows": {
        3: (3.6881e-5, 1.5070e-4, 7.9560e-5, 1.9380e-4, 3.9614e-4),
        6: (3.3891e-8, 3.0512e-7, 8.4791e-8, 1.6714e-7, 2.9611e-7),
    },
}

# shifted_power(alpha) at N = 2: absolute error against 3 + x^(2 alpha)
TABLE2 = {
    "grid": ERROR_GRID_5,
    "rows": {
        1.0: (0.0, 0.0, 0.0, 0.0, 0.0),
        0.85: (6.7607e-2, 1.0759e-2, 8.3712e-3, 6.9827e-3, 1.1870e-3),
        0.75: (9.7032e-2, 1.0264e-2, 5.1643e-3, 4.9891e-3, 1.9924e-3),
    },
}

# mixed_power(alpha) at N = 4: solution coefficient vectors
UNKNOWNS = {
    0.7: (-2.2706, 0.57555, 1.6168, -7.5937e-2, 1.8568e-2),
    0.8: (-2.2895, 7.9481e-2, 1.6352, 0.14592, 9.5450e-3),
    1.0: (-1.0004, -0.99965, 1.0002, 0.99965, 2.2216e-5),
}

# mixed_power(alpha): absolute errors; the caption says degree 5 while the
# surrounding text says 4, so the reproduction runs both
TABLE3 = {
    "grid": ERROR_GRID_10,
    "columns": {
        0.7: (5.5839e-2, 4.9238e-2, 4.5776e-2, 4.3242e-2, 4.0654e-2,
              3.7510e-2, 3.3528e-2, 2.8539e-2, 2.2428e-2, 1.5099e-2),
        0.8: (2.8251e-2, 2.3678e-2, 2.0665e-2, 1.8550e-2, 1.7195e-2,
              1.6605e-2, 1.6810e-2, 1.7824e-2, 1.9619e-2, 2.2125e-2),
        1.0: (3.8348e-5, 3.4764e-5, 3.1270e-5, 2.9831e-5, 3.2362e-5,
              4.0721e-5, 5.6716e-5, 8.2100e-5, 1.1857e-4, 1.6778e-4),
    },
}

# printed integer-order operational matrices (all exact integers)
D_INTEGER = {
    (1.0, 2): ((0, 0, 0), (1, 0, 0), (0, 2, 0)),
    (2.0, 2): ((0, 0, 0), (0, 0, 0), (2, 0, 0)),
    (1.0, 3): ((0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (-5, 0, 3, 0)),
    (2.0, 3): ((0, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0), (0, 6, 0, 0)),
    (1.0, 4): ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 2, 0, 0, 0),
               (-5, 0, 3, 0, 0), (0, -4, 0, 4, 0)),
    (2.0, 4): ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (2, 0, 0, 0, 0),
               (0, 6, 0, 0, 0), (-24, 0, 12, 0, 0)),
}

# printed fractional operational matrices at N = 4 (5 rounded digits).
# Rows 1-2 of the 0.7 matrix are not reproducible from the definition:
# feeding ~1e-6 perturbations into the x^(i-alpha) moment integrals moves
# the solved expansion rows by O(0.1-1) through the ill-conditioned Gram
# solve, which matches the deviation actually observed.  Kept for the
# comparison report.
D_FRACTIONAL = {
    (0.7, 4): (
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (7.5067, -5.1084, -7.0969, 8.2458, -3.4888),
        (-0.75854, -2.489, -1.8287, 4.1182, -2.1815),
        (3.8518, -5.5229, -5.0826, 8.4712, -3.3057),
        (1.8646, -2.3313, -0.31872, 2.3752, 0.61468),
    ),
    (1.4, 4): (
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (4.7386, 7.3096, 0.56406, -4.3120, 2.8203),
        (-7.5859, 0.98711, 3.2963, 0.21152, -0.47593),
        (-3.8934, -10.541, -1.8169, 11.281, -3.7423),
    ),
    (0.8, 4): (
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (6.1986, -3.3934, -5.2443, 5.8093, -2.3809),
        (-2.6616, 3.8043, 2.6493, -2.9733, 1.3151),
        (1.7557, -3.6652, -2.8636, 5.9132, -2.2249),
        (2.3933, -4.6647, -1.7933, 5.0768, -0.58478),
    ),
    (1.6, 4): (
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),
        (13.216, -6.4671, -11.403, 12.352, -4.9845),
        (-8.5829, 6.6068, 6.3194, -5.0447, 2.0389),
        (-10.082, -5.9541, 3.6179, 5.9058, -1.4201),
    ),
}

# assembled-system fractions for lane_emden(1) at N = 3, collocation points
# 3/4 and 1/4: coefficients of (c0, c1, c2, c3)
LINEAR_SYSTEM_N3 = {
    0.75: (1.0, 41.0 / 12.0, 137.0 / 16.0, 2465.0 / 192.0),
    0.25: (1.0, 33.0 / 4.0, 129.0 / 16.0, 721.0 / 64.0),
}

IC_NOTE = (
    "note: the published statement of this benchmark gives u(0) = 2, but "
    "its own exact solution 1 + x^(2a) + x^(3a) and the published "
    "coefficient table both imply u(0) = 1; the reproduction uses a = 1."
)

FRACTIONAL_NOTE = (
    "note: fractional-order reference digits (alpha != 1) inherit ~1e-6 "
    "noise from the original moment integrals, amplified to O(0.1-1) by "
    "the ill-conditioned Gram solve; cells there are reported for "
    "comparison, not asserted."
)
