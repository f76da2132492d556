import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import sympy as sp

from conftest import rand_frac, random_member
from pentakin import GaussRat, synth_leg_params, trace
from pentakin.bonds import constraints_of
from pentakin.dirkin import solve_dk
from pentakin.kinmap import gamma_residuals, lift_study, phi_residuals
from pentakin import polyalg
from pentakin.polyalg import exactify, to_sympy
from pentakin.reduced import (_CANDIDATES, Reduction, first_reduction,
                              polarise)
from test_dirkin import forward_lengths2, random_study


def _rows(constraints):
    return [[exactify(c) for c in hp.coeffs] for hp in constraints]


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


def _reduce(rows, pivots):
    return Reduction(rows, pivots) if pivots else first_reduction(rows)


def test_rows_annihilate_T_in_both_charts(systems):
    for rows, pivots in systems:
        red = _reduce(rows, pivots)
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
        red = _reduce(rows, pivots)
        for _ in range(5):
            v = [F(1)] + [rand_frac(rng) for _ in range(3)]
            exact = [sum(t * e for t, e in zip(row, v)) for row in red.T]
            got = red.Tn @ np.array([float(e) for e in v])
            for g, e in zip(got, exact):
                assert abs(g - complex(e)) <= 1e-12 * (1 + abs(complex(e)))


def test_pivot_choice(type1_reference_pentapod):
    rows = _rows(constraints_of(type1_reference_pentapod))
    piv = first_reduction(rows).pivots
    assert piv == (0, 5, 6, 7, 8)
    alt = first_reduction(rows, skip=piv).pivots
    assert alt not in (None, piv)
    # the free coordinates follow x1, x2, x3, n0, y0, ...
    assert Reduction(rows, alt).free == tuple(
        c for c in (2, 3, 4, 0, 5, 6, 7, 8) if c not in alt)
    assert first_reduction(rows[:4] + [rows[0]]) is None


def test_chooser_takes_first_regular_minor(systems):
    """first_reduction chooses the first candidate, in order, whose 5x5
    minor has a nonzero determinant, and with `skip` the next one."""
    for rows, _ in systems:
        regular = [piv for piv in _CANDIDATES
                   if polyalg.mat_det([[r[c] for c in piv] for r in rows])]
        red = first_reduction(rows)
        assert red.pivots == regular[0]
        alt = first_reduction(rows, skip=red.pivots)
        assert (alt and alt.pivots) == (regular[1:] or [None])[0]


def test_one_elimination(monkeypatch, systems):
    """A Reduction takes T from one run of the elimination kernel, and the
    pivot chooser runs no other."""
    calls = []

    def counted(*args):
        calls.append(args)
        return eliminate(*args)
    eliminate = polyalg._eliminate
    monkeypatch.setattr(polyalg, "_eliminate", counted)
    for rows, pivots in systems:
        calls.clear()
        red = _reduce(rows, pivots)
        if pivots:
            assert len(calls) == 1
            continue
        # the chooser eliminates once per candidate up to its choice, the
        # last of these giving T, and skips those whose minor has a zero
        # column or a zero row
        tried = [piv for piv in
                 _CANDIDATES[:_CANDIDATES.index(red.pivots) + 1]
                 if all(any(r[c] for r in rows) for c in piv)
                 and all(any(r[c] for c in piv) for r in rows)]
        assert len(calls) == len(tried)


def test_singular_pivot_minor(type1_reference_pentapod):
    rows = _rows(constraints_of(type1_reference_pentapod))
    singular = [piv for piv in itertools.combinations(range(9), 5)
                if 1 not in piv
                and not polyalg.mat_det([[r[c] for c in piv] for r in rows])]
    assert singular
    for piv in singular:
        with pytest.raises(polyalg.SingularMatrixError):
            Reduction(rows, piv)
    # rank-deficient rows: every minor is singular
    with pytest.raises(polyalg.SingularMatrixError):
        Reduction(rows[:4] + [rows[0]], (0, 5, 6, 7, 8))


def test_polarised_quadrics_are_exact(systems):
    rng = random.Random(7)
    for rows, pivots in systems:
        red = _reduce(rows, pivots)
        for residuals, cols in ((phi_residuals, range(4)),
                                (gamma_residuals, (1, 2, 3))):
            quads = polarise(red.T, residuals, cols)
            for _ in range(3):
                v = [rand_frac(rng) for _ in cols]
                at = [0] * 4
                for c, x in zip(cols, v):
                    at[c] = x
                want = residuals([sum(t * e for t, e in zip(row, at))
                                  for row in red.T])
                got = [sum(c * math.prod(x ** k for x, k in zip(v, mono))
                           for mono, c in q.items()) for q in quads]
                assert got == list(want)
        # the chart x0 = 1 as integer sp.Poly, a rational multiple of each
        # polarised quadric
        gens = sp.symbols("s1 s2 s3")
        for poly, q in zip(red.quadrics(gens),
                           polarise(red.T, phi_residuals, range(4))):
            assert poly.domain in (sp.ZZ, sp.ZZ_I)
            ref = sp.Poly(sum(to_sympy(c) * sp.Mul(*(g ** k for g, k
                                                     in zip(gens, mono[1:])))
                              for mono, c in q.items()), *gens)
            assert poly.monic() == ref.monic()


def _dk_and_trace_answers(rng, designs):
    """Answers of solve_dk on a criterion-05 member and of the traces of
    `designs`, as a callable for comparison under patches."""
    p = random_member(rng)
    lengths2 = forward_lengths2(p, lift_study(random_study(rng)))

    def answers():
        dk = solve_dk(p, lengths2=lengths2)
        return ((dk.route, dk.variable, dk.pivots, dk.polynomial,
                 [s.params for s in dk.solutions]),
                [trace(d, samples=40).samples for d in designs])
    return answers


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden path taken")


def test_no_expression_path(monkeypatch, rng, type1_reference_design,
                            type2_reference_design):
    """DK and tracing eliminate on sp.Poly: they give the same answers
    with sympy's expression-tree algebra patched to raise."""
    answers = _dk_and_trace_answers(
        rng, (type1_reference_design, type2_reference_design))
    with monkeypatch.context() as mp:
        for name in ("expand", "together", "numer", "resultant", "gcd"):
            mp.setattr(sp, name, _forbidden)
        guarded = answers()
    assert guarded == answers()
    assert guarded[0][3].degree() == 8


def test_no_30_digit_refinement(monkeypatch, rng, type1_reference_design,
                                type2_reference_design):
    """DK and tracing round their real roots by exact bisection: they give
    the same answers with sympy's real_roots and CRootOf evalf patched to
    raise."""
    answers = _dk_and_trace_answers(
        rng, (type1_reference_design, type2_reference_design))
    with monkeypatch.context() as mp:
        mp.setattr(sp, "real_roots", _forbidden)
        mp.setattr(sp.polys.rootoftools.ComplexRootOf, "_eval_evalf",
                   _forbidden)
        guarded = answers()
    assert guarded == answers()
    assert guarded[0][4]


def test_no_factorisation(monkeypatch, rng, type1_reference_pentapod):
    """DK's eliminant is one exact elimination: it gives the same answers
    with Poly.factor_list patched to raise, on the criterion-01 reference
    and on a criterion-05 member."""
    member = _dk_and_trace_answers(rng, ())

    def answers():
        ref = solve_dk(type1_reference_pentapod, lengths=[2, 1, 5, 3, 4])
        return member(), (ref.route, ref.polynomial,
                          [s.params for s in ref.solutions])
    with monkeypatch.context() as mp:
        mp.setattr(sp.Poly, "factor_list", _forbidden)
        guarded = answers()
    assert guarded == answers()
    assert guarded[0][0][3].degree() == 8
    assert guarded[1][1].degree() == 4


def test_no_prs_on_equal_degrees(monkeypatch, rng):
    """On a criterion-05 member every resultant DK takes is of two
    polynomials of equal degree, so poly_resultant's closed forms take all
    of them, subresultant chains included: DK gives the same answer with
    sympy's PRS and subresultants patched to raise."""
    answers = _dk_and_trace_answers(rng, ())
    with monkeypatch.context() as mp:
        mp.setattr(sp.Poly, "resultant", _forbidden)
        mp.setattr(sp.Poly, "subresultants", _forbidden)
        guarded = answers()
    assert guarded == answers()
    assert guarded[0][3].degree() == 8
