import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from conftest import rand_frac, random_member
from pentakin import GaussRat, synth_leg_params
from pentakin.bonds import constraints_of
from pentakin.polyalg import exactify
from pentakin.reduced import Reduction, choose_pivots


def _rows(constraints):
    return [[exactify(c) for c in hp.coeffs] for hp in constraints]


def _mp(x):
    if isinstance(x, GaussRat):
        return mpmath.mpc(_mp(x.re), _mp(x.im))
    return mpmath.mpf(x.numerator) / x.denominator


@pytest.fixture
def systems(type1_reference_design, type2_reference_design,
            type1_reference_pentapod):
    """(rows, pivots) of the reference designs, their sphere legs and
    seeded random members; pivots None means the chooser's choice."""
    t5 = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, F(1, 2)),
                          r1sq=25)
    rng = random.Random(20260810)
    return [
        (_rows(type1_reference_design.constraints()), None),
        (_rows(type2_reference_design.constraints()), None),
        (_rows(t5.constraints()), None),
        (_rows(t5.constraints()), (0, 4, 6, 7, 8)),
        (_rows(constraints_of(type1_reference_pentapod)), None),
        (_rows(constraints_of(random_member(rng))), None),
        (_rows(constraints_of(random_member(rng, planar=True))), None),
    ]


def test_rows_annihilate_T_in_both_charts(systems):
    for rows, pivots in systems:
        red = Reduction(rows, pivots or choose_pivots(rows))
        # x0 and the free coordinates pass through unchanged
        assert red.T[1] == [1, 0, 0, 0]
        for j, c in enumerate(red.free, start=1):
            assert red.T[c] == [int(k == j) for k in range(4)]
        for x0 in (0, 1):       # bonds chart and DK / trace chart
            for s in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
                v = (x0, *s)
                coords = [sum(t * e for t, e in zip(row, v)) for row in red.T]
                assert all(sum(r * c for r, c in zip(row, coords)) == 0
                           for row in rows)


def test_numeric_matches_exact(systems):
    rng = random.Random(5)
    for rows, pivots in systems:
        red = Reduction(rows, pivots or choose_pivots(rows))
        for _ in range(5):
            v = [F(1)] + [rand_frac(rng) for _ in range(3)]
            exact = [sum(t * e for t, e in zip(row, v)) for row in red.T]
            got = red.Tn @ np.array([float(e) for e in v])
            for g, e in zip(got, exact):
                assert abs(g - complex(e)) <= 1e-12 * (1 + abs(complex(e)))
            # the mpmath matrix carries the exact entries to 40 digits
            with mpmath.workdps(40):
                col = red.mp_matrix() * mpmath.matrix([_mp(e) for e in v])
                for k, e in enumerate(exact):
                    assert abs(col[k] - _mp(e)) <= 1e-35 * (1 + abs(_mp(e)))


def test_pivot_choice(type1_reference_pentapod):
    rows = _rows(constraints_of(type1_reference_pentapod))
    piv = choose_pivots(rows)
    assert piv == (0, 5, 6, 7, 8)
    alt = choose_pivots(rows, skip=piv)
    assert alt not in (None, piv)
    # the free coordinates follow x1, x2, x3, n0, y0, ...
    assert Reduction(rows, alt).free == tuple(
        c for c in (2, 3, 4, 0, 5, 6, 7, 8) if c not in alt)
    assert choose_pivots(rows[:4] + [rows[0]]) is None
