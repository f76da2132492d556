"""Acceptance suite: one test per criterion, each at its stated tolerance.

A one-line PASS/FAIL summary per criterion is printed by the terminal hook
in conftest.py.
"""

import math
import time
from fractions import Fraction as F

from conftest import rand_frac, random_member
from helpers import (ar_planar_pentapod, congruent_projection_pentapod,
                     cylinder_only_pentapod, ideal_vertex_pentapod,
                     stretched_fiber_pentapod, type3_pentapod,
                     type4_pentapod, type5_parallel_lines_pentapod)
from pentakin.bonds import constraints_of, find_bonds, necessity_verdict, tangency_rank
from pentakin.dirkin import max_real_solutions, solve_dk
from pentakin.kinmap import (Leg, displacement, lift_study, phi_residuals,
                             sphere_condition)
from pentakin.polyalg import GaussRat, to_float
from pentakin.rearrange import classify_type
from pentakin.selfmotion import (Reality, circular_translation_check,
                                 real_legs_from_design, reality,
                                 synth_leg_params, trace)
from test_archsing import ALL_CASES
from test_dirkin import REFERENCE_QUARTIC, forward_lengths2, random_study

_I = GaussRat(0, 1)


def test_criterion_01_reference_quartic_bit_exact(type1_reference_pentapod):
    t0 = time.time()
    out = solve_dk(type1_reference_pentapod, lengths=[2, 1, 5, 3, 4])
    elapsed = time.time() - t0
    # primitive normalization makes "up to an exact rational scalar" literal
    assert out.polynomial.all_coeffs() == REFERENCE_QUARTIC
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def _closed_form_type1(t, sign):
    T = math.sqrt(max(-(75 * t * t - 30 * t - 41) * (75 * t * t - 90 * t + 31),
                      0.0))
    return (7 / 4 * t * t - 7 / 5 * t - 161 / 300 - sign * T / 300,
            1 / 4 * t * t - 1 / 5 * t - 23 / 300 + sign * 7 * T / 300,
            t,
            -1 / 4 * t * t + 1 / 5 * t + 59 / 300 - sign * 7 * T / 300,
            7 / 4 * t * t - 7 / 5 * t - 413 / 300 - sign * T / 300,
            -2 * t + 3 / 5)


def test_criterion_02_type1_trace(type1_reference_design,
                                  type1_reference_pentapod):
    t0 = time.time()
    tr = trace(type1_reference_design, samples=56)
    tm = 0.2 - 2 * math.sqrt(33) / 15
    tp = 0.2 + 2 * math.sqrt(33) / 15
    assert len(tr.intervals) == 1
    assert math.isclose(tr.intervals[0][0], tm, abs_tol=1e-10)
    assert math.isclose(tr.intervals[0][1], tp, abs_tol=1e-10)
    interior = [s for s in tr.samples if tm + 1e-5 < s.t < tp - 1e-5]
    assert len(interior) >= 100  # both branches over >= 50 parameter values
    for s in interior:
        got = (s.params.x1, s.params.x2, s.params.x3,
               s.params.y1, s.params.y2, s.params.y3)
        err = min(
            max(abs(g - e) for g, e in zip(got, _closed_form_type1(s.t, sg)))
            for sg in (1, -1))
        assert err <= 1e-10
    for leg in type1_reference_pentapod.legs:
        target = math.sqrt(to_float(leg.r2))
        for s in interior:
            P = displacement(s.params, to_float(leg.a))
            d = math.dist([float(c) for c in P],
                          [to_float(c) for c in leg.base])
            assert abs(d - target) <= 1e-8 * target
    assert time.time() - t0 < 5.0


def _closed_form_type2(t, sign):
    T = math.sqrt(max(-t ** 4 - 4 * t * t + 4, 0.0))
    return (-t * t / 2, sign * T / 2, t,
            t * t / 2 + 1 - sign * T / 2,
            -t * t / 2 - 1 - sign * T / 2,
            0.0)


def test_criterion_03_type2_trace(type2_reference_design):
    tr = trace(type2_reference_design, samples=56)
    lim = math.sqrt(2 * math.sqrt(2) - 2)
    assert len(tr.intervals) == 1
    assert math.isclose(tr.intervals[0][0], -lim, abs_tol=1e-10)
    assert math.isclose(tr.intervals[0][1], lim, abs_tol=1e-10)
    interior = [s for s in tr.samples if -lim + 1e-5 < s.t < lim - 1e-5]
    assert len(interior) >= 100
    for s in interior:
        assert s.params.y3 == 0  # exactly, not within tolerance
        got = (s.params.x1, s.params.x2, s.params.x3,
               s.params.y1, s.params.y2, s.params.y3)
        err = min(
            max(abs(g - e) for g, e in zip(got, _closed_form_type2(s.t, sg)))
            for sg in (1, -1))
        assert err <= 1e-10
    # leg lengths stay constant along the branch
    legs = real_legs_from_design(type2_reference_design, [1, -1, 2, F(1, 2), 3])
    for leg in legs:
        target = math.sqrt(to_float(leg.r2))
        for s in interior:
            P = displacement(s.params, to_float(leg.a))
            d = math.dist([float(c) for c in P],
                          [to_float(c) for c in leg.base])
            assert abs(d - target) <= 1e-8 * target


def test_criterion_04_leg_parameter_synthesis(type1_reference_design,
                                              type2_reference_design):
    d1 = type1_reference_design
    assert d1.p2 == GaussRat(F(-3, 25), F(-21, 25))
    assert d1.p3 == d1.p2.conjugate()
    assert d1.p4 == F(-3, 5)
    assert d1.p5 == F(46, 75)
    trace(d1)      # raises unless the reduced system leaves a curve
    d2 = type2_reference_design
    assert (d2.p2, d2.p3, d2.p4, d2.p5) == (GaussRat(-1, -1), GaussRat(-1, 1),
                                            F(0), F(1))
    trace(d2)


def test_criterion_05_generic_degree_eight(rng):
    trials = 100
    for k in range(trials):
        p = random_member(rng)
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree == 8, f"trial {k}: degree {out.degree}"
        # eight complex roots counted with multiplicity = degree 8 exactly
        mn = m.normalized()
        target = [to_float(c) for c in mn.coords()]
        hits = [s for s in out.solutions
                if max(abs(float(c) - t)
                       for c, t in zip(s.params.coords(), target)) < 1e-6]
        assert hits, f"trial {k}: seeded pose lost"
        assert min(h.residual for h in hits) <= 1e-9


def test_criterion_06_stratification(rng, type1_reference_pentapod):
    # self-motion designs: degree <= 4
    for p in (type1_reference_pentapod, ar_planar_pentapod(),
              congruent_projection_pentapod()):
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree <= 4
        assert max_real_solutions(p) == 4
    # first-condition-only designs: degree <= 6
    sixes = [cylinder_only_pentapod(1), cylinder_only_pentapod(2),
             cylinder_only_pentapod(5), type5_parallel_lines_pentapod(),
             ideal_vertex_pentapod()]
    for p in sixes:
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree <= 6
        assert max_real_solutions(p) == 6
    # generic: exactly 8
    p = random_member(rng)
    m = lift_study(random_study(rng))
    out = solve_dk(p, lengths2=forward_lengths2(p, m))
    assert out.degree == 8
    assert max_real_solutions(p) == 8


def test_criterion_07_bond_invariance(rng, type1_reference_pentapod):
    def keys(bonds):
        out = []
        for b in bonds:
            vals = [complex(c) for c in b.params.coords()]
            lead = next(v for v in vals if v)
            out.append(tuple(
                complex(round((v / lead).real, 8), round((v / lead).imag, 8))
                for v in vals))
        return sorted(map(str, out))

    cons0 = constraints_of(type1_reference_pentapod)
    bonds0 = find_bonds(cons0)
    ref = keys(bonds0)
    assert len(bonds0) == 2
    for _ in range(10):
        lengths2 = [F(rng.randint(1, 40), rng.randint(1, 4))
                    for _ in range(5)]
        p = type1_reference_pentapod.with_lengths2(lengths2)
        assert keys(find_bonds(constraints_of(p))) == ref
    # closed-form pattern x = (-conj(B2), 1, 0) with B2 = i, scaled
    found = False
    for b in bonds0:
        x = [complex(c) for c in (b.params.x1, b.params.x2, b.params.x3)]
        if abs(x[1]) > 1e-12:
            z = x[0] / x[1]
            if abs(z - 1j) < 1e-9 or abs(z + 1j) < 1e-9:
                found = abs(x[2]) < 1e-12
    assert found
    assert all(tangency_rank(cons0, b) == 7 for b in bonds0)


def test_criterion_08_arch_singularity_suite(rng):
    from pentakin.archsing import classify_arch
    for k, builder in enumerate(ALL_CASES, start=1):
        verdict = classify_arch(builder())
        assert verdict.singular and verdict.case == k, \
            f"case {k} detected as {verdict.case}"
    for _ in range(1000):
        assert not classify_arch(random_member(rng)).singular


def test_criterion_09_kinematic_mapping_identity(rng):
    for _ in range(1000):
        s = random_study(rng)
        m = lift_study(s)
        assert phi_residuals(m) == (0, 0, 0)
        leg = Leg(rand_frac(rng), (rand_frac(rng), rand_frac(rng),
                                   rand_frac(rng)), F(1))
        lin = sphere_condition(leg).evaluate(m)
        e0, e1, e2, e3 = s.e()
        f0, f1, f2, f3 = s.f()
        a, (A, B, C), r2 = leg.a, leg.base, leg.r2
        quad = ((a * a + A * A + B * B + C * C - r2)
                * (e0**2 + e1**2 + e2**2 + e3**2)
                - 2 * a * A * (e0**2 + e1**2 - e2**2 - e3**2)
                - 4 * a * B * (e0 * e3 + e1 * e2)
                + 4 * a * C * (e0 * e2 - e1 * e3)
                - 4 * a * (e0 * f1 - e1 * f0 - e2 * f3 + e3 * f2)
                + 4 * A * (e0 * f1 - e1 * f0 + e2 * f3 - e3 * f2)
                + 4 * B * (e0 * f2 - e1 * f3 - e2 * f0 + e3 * f1)
                + 4 * C * (e0 * f3 + e1 * f2 - e2 * f1 - e3 * f0)
                + 4 * (f0**2 + f1**2 + f2**2 + f3**2))
        assert lin == quad


def test_criterion_10_type5_reality_boundary():
    for c5 in (0, F(1, 2), F(99, 100)):
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, c5),
                             r1sq=25)
        assert reality(d).reality is Reality.REAL
        tr = trace(d, samples=15)
        assert tr.is_real and tr.samples
    for c5 in (1, F(3, 2)):
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, c5),
                             r1sq=25)
        assert reality(d).reality is Reality.COMPLEX
        tr = trace(d, samples=15)
        assert not tr.is_real and not tr.samples


def test_criterion_11_circular_translation():
    p = congruent_projection_pentapod()
    out = circular_translation_check(p)
    assert out.verdict is Reality.REAL
    pose = out.motion(p, radius=2.0)
    base = [[to_float(c) for c in leg.base] for leg in p.legs]
    ref = pose(0.0)
    lengths0 = [math.dist(ref[i], base[i]) for i in range(5)]
    for t in (0.17, 0.9, 2.3, 3.8, 5.6):
        pts = pose(t)
        for i in range(5):
            assert abs(math.dist(pts[i], base[i]) - lengths0[i]) <= 1e-12
    assert circular_translation_check(
        stretched_fiber_pentapod()).verdict is Reality.COMPLEX


def test_criterion_12_type3_type4_impossibility():
    p3 = type3_pentapod()
    assert classify_type(p3).kind == "type3"
    v3 = necessity_verdict(p3)
    assert not v3.has_bond and not v3.tangency_rank_deficient
    p4 = type4_pentapod()
    assert classify_type(p4).kind == "type4"
    v4 = necessity_verdict(p4)
    assert not v4.has_bond
    assert max_real_solutions(p3) == 8
    assert max_real_solutions(p4) == 8
