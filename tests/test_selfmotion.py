import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_frac, random_member
from helpers import (ar_planar_pentapod, congruent_projection_pentapod,
                     cylinder_only_pentapod, moved, platform_shifted,
                     relabelled, stretched_fiber_pentapod, type4_pentapod,
                     type5_parallel_lines_pentapod)
from pentakin.archsing import WrongBranchError
from pentakin.kinmap import (Leg, Pentapod, displacement, phi_residuals,
                             sphere_condition)
from pentakin.polyalg import GaussRat, exactify, mat_rank, to_float
from pentakin.reduced import Reduction
from pentakin.selfmotion import (DegenerateDesignError, Duporcq,
                                 LegGenerationError, NotASelfMotionError,
                                 Reality, RealityVerdict, SelfMotionError,
                                 circular_translation_check,
                                 duporcq_check, real_legs_from_design,
                                 reality, synth_leg_params, trace)

_I = GaussRat(0, 1)


def _draw_design(kind, rng):
    """A seeded design of Type 1, 2 or 5, or of the Type 1 special branch
    a2*a3 = a4^2 ("special"); None when the draw degenerates."""
    fr = lambda: rand_frac(rng)
    m5 = (fr(), fr(), F(0) if kind == 2 else fr())
    params = dict(a2=GaussRat(fr(), fr()), m5=m5, r1sq=fr() ** 2 or 1)
    if kind == "special":
        # a Pythagorean triple gives |a2| = a4 rational
        m, n, s = rng.randint(1, 4), rng.randint(1, 4), fr() or 1
        a4 = (m * m + n * n) * s
        params.update(a2=GaussRat((m * m - n * n) * s, 2 * m * n * s),
                      a4=a4, r1sq=a4 * a4, p5=fr())
        kind = 1
    elif kind == 1:
        params["a4"] = fr()
    elif kind == 5:
        params["a5"] = fr()
    try:
        return synth_leg_params(kind, **params)
    except DegenerateDesignError:
        return None


def _leftover_loop(d, samples):
    """The samples of a Type 5 trace, one np.roots and one residual check
    per sample and root: (t, coordinates, branch), branch suffix 0 for the
    larger root (+sqrt of the discriminant, the s3^2 coefficient being
    positive) and 1 for the smaller."""
    from pentakin.kinmap import phi_gradient
    from pentakin.tol import (DEFAULT_TOL, LEFTOVER_RESIDUAL_FLOOR,
                              LEFTOVER_RESIDUAL_SCALE)
    a = d._leftover_quadric
    assert a >= 1
    red = d.reduction
    rad2 = 1.0 - to_float(d.w) ** 2
    t = np.linspace(-math.sqrt(rad2), math.sqrt(rad2), samples)
    x2abs = np.sqrt(np.maximum(rad2 - t * t, 0.0))
    cut = max(DEFAULT_TOL * LEFTOVER_RESIDUAL_SCALE, LEFTOVER_RESIDUAL_FLOOR)
    D = red.Tn[:, 3].real
    found = {}
    for tag, x2 in (("a", x2abs), ("b", -x2abs)):
        P = (red.Tn @ np.array([np.ones_like(t), t, x2,
                                np.zeros_like(t)])).real
        b = sum((g * e for g, e in zip(phi_gradient(P)[1], D)),
                np.zeros_like(t))
        c = phi_residuals(P)[1]
        for i in range(len(t)):
            roots = np.roots([a, b[i], c[i]])
            if np.iscomplexobj(roots):      # a complex pair
                continue
            for j, r in enumerate(sorted(roots, reverse=True)):
                m = P[:, i] + r * D
                if np.abs(phi_residuals(m)).max() <= cut:
                    found[i, tag, j] = (float(t[i]), m, f"{tag}{j}")
    return [found[k] for k in sorted(found)]


def _assert_same_samples(tr, want):
    # the same (t, branch) list, coordinates within 1e-14 of their scale
    assert [(s.t, s.branch) for s in tr] == [(t, b) for t, _, b in want]
    for s, (_, m, _) in zip(tr, want):
        got = np.array(s.params.coords())
        assert np.abs(got - m).max() <= 1e-14 * (1 + np.abs(m).max())


def _assert_on_curve(d, tr):
    # the five constraints and the three quadrics hold within 1e-12 of the
    # scale 1 + max|coord| (its square for the quadrics); a (t, params)
    # pair repeats only at a cell end, where both branches meet
    rows = [[complex(to_float(c.re), to_float(c.im))
             if isinstance(c, GaussRat) else to_float(c) for c in hp.coeffs]
            for hp in d.constraints()]
    ends = {t for cell in tr.intervals for t in cell}
    seen = set()
    for s in tr.samples:
        m = np.array(s.params.coords())
        scale = 1 + np.abs(m).max()
        assert np.abs(phi_residuals(m)).max() <= 1e-12 * scale ** 2
        assert np.abs(np.array(rows) @ m).max() <= 1e-12 * scale
        key = (s.t, s.params)
        assert key not in seen or s.t in ends
        seen.add(key)


class TestSynthesis:

    def test_type1_reference_values(self, type1_reference_design):
        d = type1_reference_design
        assert d.p2 == GaussRat(F(-3, 25), F(-21, 25))
        assert d.p3 == d.p2.conjugate()
        assert d.p4 == F(-3, 5)
        assert d.p5 == F(46, 75)
        trace(d)   # raises unless the reduced system leaves a curve

    def test_type2_reference_values(self, type2_reference_design):
        d = type2_reference_design
        assert d.p2 == GaussRat(-1, -1)
        assert d.p3 == GaussRat(-1, 1)
        assert d.p4 == 0
        assert d.p5 == 1
        trace(d)   # raises unless the reduced system leaves a curve

    def test_type5_derived_values(self):
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, 0), r1sq=1)
        assert d.w == 0
        assert d.p2 == GaussRat(1, 1)
        assert d.p3 == GaussRat(1, -1)
        assert d.r5sq == 2
        trace(d)   # raises unless the reduced system leaves a curve

    @pytest.mark.parametrize("m5, r5sq", [
        ((2, 1, F(1, 2)), F(117, 4)),
        ((3, 1, 0), F(34)),
        ((F(1, 2), -2, F(1, 3)), F(1021, 36)),
    ])
    def test_type5_relation_with_A5_unlike_a5(self, m5, r5sq):
        """The Type 5 relation carries A5^2, where A5 != a5 tells it from
        a5^2.  Independently of that formula, a design has a self-motion
        iff its reduced Q3 is a multiple of Q1 or vanishes."""
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=m5, r1sq=25)
        assert d.r5sq == r5sq
        trace(d)   # raises unless the reduced system leaves a curve
        Q1, _, Q3 = d.reduction.quadrics(sp.symbols("s1 s2 s3"))
        assert Q3.is_zero or (Q3 * Q1.LC() - Q1 * Q3.LC()).is_zero
        if m5 == (2, 1, F(1, 2)):
            assert trace(d, samples=15).samples

    def test_conjugate_symmetry(self):
        for d in (synth_leg_params(1, a2=GaussRat(2, 3), a4=1,
                                   m5=(2, -1, 3), r1sq=5),
                  synth_leg_params(2, a2=GaussRat(1, -2), m5=(1, 3, 0),
                                   r1sq=7),
                  synth_leg_params(5, a2=GaussRat(-1, 2), a5=2,
                                   m5=(1, 0, 1), r1sq=9)):
            assert d.p3 == d.p2.conjugate()
            trace(d)   # raises unless the reduced system leaves a curve

    def test_real_a2_rejected(self):
        with pytest.raises(DegenerateDesignError):
            synth_leg_params(1, a2=GaussRat(2, 0), a4=1, m5=(1, 1, 1), r1sq=1)

    def test_type1_degenerate_a4(self):
        with pytest.raises(DegenerateDesignError):
            synth_leg_params(1, a2=GaussRat(2, 1), a4=GaussRat(2, 1),
                             m5=(1, 1, 1), r1sq=1)

    def test_type1_special_branch(self):
        # a2*a3 = a4^2 forces the squared first length a4^2
        a2 = GaussRat(3, 4)   # |a2|^2 = 25 -> a4 = 5
        with pytest.raises(DegenerateDesignError):
            synth_leg_params(1, a2=a2, a4=5, m5=(1, 1, 1), r1sq=7)
        d = synth_leg_params(1, a2=a2, a4=5, m5=(1, 1, 1), r1sq=25)
        assert d.special_branch
        trace(d)   # raises unless the reduced system leaves a curve

    def test_type2_requires_flat_center(self):
        with pytest.raises(DegenerateDesignError):
            synth_leg_params(2, a2=GaussRat(1, 1), m5=(1, 1, 1), r1sq=4)


class TestDuporcq:

    def test_reference_full(self, type1_reference_pentapod):
        assert duporcq_check(type1_reference_pentapod) is Duporcq.FULL

    def test_type2_reference_full(self, type2_reference_design):
        # four legs on the circle plus one on the orthogonal exceptional line
        from helpers import legs_from_constraints
        legs = legs_from_constraints(type2_reference_design.constraints(),
                                     ((0, 1), 1, -1, 2, F(1, 2)))
        p = Pentapod(tuple(legs))
        assert duporcq_check(p) is Duporcq.FULL

    def test_cylinder_only_first(self):
        for kind in (1, 2, 5):
            assert duporcq_check(cylinder_only_pentapod(kind)) \
                is Duporcq.FIRST_ONLY

    def test_scaled_axis_breaks_cylinder(self, type1_reference_pentapod):
        # stretching one projected axis leaves a cubic on a non-circular
        # cylinder: not even the first condition
        legs = [Leg(l.a, (l.base[0], 2 * l.base[1], l.base[2]), l.r2)
                for l in type1_reference_pentapod.legs]
        assert duporcq_check(Pentapod(tuple(legs))) is Duporcq.NONE

    def test_generic_member_none(self, rng):
        for _ in range(5):
            p = random_member(rng)
            assert duporcq_check(p) is Duporcq.NONE

    def test_wrong_type_rejected(self):
        with pytest.raises(Exception):
            duporcq_check(type4_pentapod())

    def test_planar_rejected(self):
        with pytest.raises(SelfMotionError, match="planar_pencil"):
            duporcq_check(ar_planar_pentapod())

    def test_reads_only_the_correspondence(self, monkeypatch,
                                           type1_reference_pentapod):
        # the level needs neither the Darboux points nor the Mannheim image
        import pentakin.rearrange as rearrange

        def forbidden(*args, **kwargs):
            raise AssertionError("full classification computed")

        for name in ("classify_type", "_darboux_points", "_mannheim_image"):
            monkeypatch.setattr(rearrange, name, forbidden)
        assert duporcq_check(type1_reference_pentapod) is Duporcq.FULL
        assert duporcq_check(cylinder_only_pentapod(2)) is Duporcq.FIRST_ONLY

    def test_irreducible_cubic_level_is_exact(self, monkeypatch, rng):
        # an irreducible d0 (the 2nd to 4th draws) is decided by normal
        # forms, with no float root finding or lambdified evaluation
        import mpmath
        import sympy as sp

        def forbidden(*args, **kwargs):
            raise AssertionError("numeric Duporcq path taken")

        monkeypatch.setattr(sp, "lambdify", forbidden)
        monkeypatch.setattr(mpmath, "polyroots", forbidden)
        for _ in range(5):
            assert duporcq_check(random_member(rng)) is Duporcq.NONE

    def test_require_member_runs_once(self, monkeypatch,
                                      type1_reference_pentapod):
        import pentakin.rearrange as rearrange
        import pentakin.selfmotion as selfmotion
        calls = []
        original = rearrange.require_member

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(rearrange, "require_member", counted)
        monkeypatch.setattr(selfmotion, "require_member", counted)
        assert duporcq_check(type1_reference_pentapod) is Duporcq.FULL
        assert len(calls) == 1
        with pytest.raises(SelfMotionError, match="planar_pencil"):
            duporcq_check(ar_planar_pentapod())
        assert len(calls) == 2


@pytest.mark.parametrize("make, level", [
    ("type1", Duporcq.FULL),
    ("type2", Duporcq.FULL),
    ("cylinder1", Duporcq.FIRST_ONLY),
    ("cylinder2", Duporcq.FIRST_ONLY),
    ("cylinder5", Duporcq.FIRST_ONLY),
    ("parallel5", Duporcq.NONE),
])
def test_duporcq_invariance(make, level, type1_reference_pentapod,
                            type2_reference_design):
    """The level is a property of the geometry: it survives leg
    relabelling, a rigid motion of the base and a platform shift."""
    from helpers import legs_from_constraints
    p = {"type1": lambda: type1_reference_pentapod,
         "type2": lambda: Pentapod(tuple(legs_from_constraints(
             type2_reference_design.constraints(),
             ((0, 1), 1, -1, 2, F(1, 2))))),
         "cylinder1": lambda: cylinder_only_pentapod(1),
         "cylinder2": lambda: cylinder_only_pentapod(2),
         "cylinder5": lambda: cylinder_only_pentapod(5),
         "parallel5": type5_parallel_lines_pentapod}[make]()
    for q in (p, relabelled(p), moved(p), platform_shifted(p)):
        assert duporcq_check(q) is level


class TestReality:

    def test_type5_boundary(self):
        for c5, expected in ((0, Reality.REAL), (F(1, 2), Reality.REAL),
                             (F(99, 100), Reality.REAL),
                             (1, Reality.COMPLEX), (F(3, 2), Reality.COMPLEX)):
            d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, c5),
                                 r1sq=25)
            v = reality(d)
            assert v.reality is expected
            assert v.method == "empirical"

    def test_type1_empirical(self, type1_reference_design):
        v = reality(type1_reference_design)
        assert v.reality is Reality.REAL and v.method == "empirical"

    def test_planar_fiber_distance(self):
        assert reality(congruent_projection_pentapod()).reality is Reality.REAL
        assert reality(stretched_fiber_pentapod()).reality is Reality.COMPLEX

    def test_verdicts_compare_by_value(self, type1_reference_design):
        assert RealityVerdict(Reality.REAL, "empirical") \
            == reality(type1_reference_design)
        assert RealityVerdict(Reality.REAL, "empirical") \
            != RealityVerdict(Reality.COMPLEX, "empirical")

    @pytest.mark.parametrize("kind", [1, 2, 5, "special"])
    def test_reality_is_a_nonempty_trace(self, kind):
        # one rule for every type: REAL iff a dense trace has samples; for
        # Type 5 that includes designs with |C5| < |a5| and no real point
        rng = random.Random(f"reality-{kind}")
        drawn = witnesses = 0
        while drawn < 20 or (kind == 5 and not witnesses):
            assert drawn < 400
            d = _draw_design(kind, rng)
            if d is None:
                continue
            drawn += 1
            real = bool(trace(d, samples=200).samples)
            assert (reality(d).reality is Reality.REAL) == real
            witnesses += (kind == 5 and not real
                          and d.m5[2] ** 2 < d.a5 ** 2)


class TestTrace:

    def test_reference_interval(self, type1_reference_design):
        tr = trace(type1_reference_design, samples=9)
        assert tr.is_real and len(tr.intervals) == 1
        lo, hi = tr.intervals[0]
        assert math.isclose(lo, 0.2 - 2 * math.sqrt(33) / 15, abs_tol=1e-11)
        assert math.isclose(hi, 0.2 + 2 * math.sqrt(33) / 15, abs_tol=1e-11)

    def test_float_parameter_design_traces(self):
        # a2 = 0.1 + i is exactly 0.1's binary fraction: the branch curve
        # then has coefficients of hundreds of bits, and its discriminant
        # twice that, beyond float64's range unless scaled
        exact, rounded = (
            synth_leg_params(1, a2=a2, a4=2, m5=(1, 1, 1), r1sq=3)
            for a2 in (GaussRat(F(1, 10), 1), complex(0.1, 1)))
        assert reality(rounded).reality is Reality.REAL
        want, got = trace(exact), trace(rounded)
        assert len(got.intervals) == len(want.intervals) == 1
        assert np.allclose(got.intervals[0], want.intervals[0], rtol=0,
                           atol=1e-6)
        assert len(got.samples) == 400

    def test_reference_leg_lengths_constant(self, type1_reference_design,
                                            type1_reference_pentapod):
        tr = trace(type1_reference_design, samples=25)
        for leg in type1_reference_pentapod.legs:
            target = math.sqrt(to_float(leg.r2))
            for s in tr.samples:
                P = displacement(s.params, to_float(leg.a))
                dist = math.dist([float(c) for c in P],
                                 [to_float(c) for c in leg.base])
                assert abs(dist - target) <= 1e-8 * target

    def test_type2_y3_identically_zero(self, type2_reference_design):
        tr = trace(type2_reference_design, samples=25)
        assert tr.is_real
        lo, hi = tr.intervals[0]
        lim = math.sqrt(2 * math.sqrt(2) - 2)
        assert math.isclose(lo, -lim, abs_tol=1e-11)
        assert math.isclose(hi, lim, abs_tol=1e-11)
        for s in tr.samples:
            assert s.params.y3 == 0

    def test_type5_schoenflies(self):
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, F(1, 2)),
                             r1sq=25)
        tr = trace(d, samples=15)
        assert tr.is_real and tr.samples
        # platform direction keeps a constant angle with the axis direction
        w = to_float(d.w)
        for s in tr.samples:
            x = [float(s.params.x1), float(s.params.x2), float(s.params.x3)]
            # axis = z in canonical frame; cos(angle) = -x3 / |x|
            assert math.isclose(-x[2], w, abs_tol=1e-9)

    def test_special_branch_traces(self):
        # a2*a3 = a4^2 sub-branch: second quadric proportional to the first,
        # curve cut by the leftover quadric alone; real for this p5
        d = synth_leg_params(1, a2=GaussRat(3, 4), a4=5, m5=(1, 1, 1),
                             r1sq=25, p5=3)
        assert d.special_branch
        tr = trace(d, samples=11)
        assert tr.is_real and tr.samples
        (leg,) = real_legs_from_design(d, [1])
        assert leg.r2 == F(1613, 80)
        target = math.sqrt(to_float(leg.r2))
        for s in tr.samples:
            P = displacement(s.params, 1.0)
            dist = math.dist([float(c) for c in P],
                             [to_float(c) for c in leg.base])
            assert abs(dist - target) <= 1e-8 * target

    def test_branch_radicand_value(self):
        # at t = 1/5 the branch radicand is 704 = (8 sqrt(11))^2
        t = F(1, 5)
        rad = -(75 * t * t - 30 * t - 41) * (75 * t * t - 90 * t + 31)
        assert rad == 704

    def test_elimination_resultants_are_quartic(self, type1_reference_design):
        # the pairwise eliminations of the reduced quadrics are quartic in
        # the remaining coordinates and only quadratic in the branch one
        import sympy as sp
        from pentakin.reduced import first_reduction
        rows = [[exactify(c) for c in hp.coeffs]
                for hp in type1_reference_design.constraints()]
        s1, s2, s3 = sp.symbols("s1 s2 s3")
        Q1, Q2, Q3 = first_reduction(rows).quadrics((s1, s2, s3))
        for A, B in ((Q1, Q3), (Q2, Q3), (Q1, Q2)):
            xi = A.resultant(B)
            assert xi.total_degree() <= 4
            assert xi.degree(s2) <= 2

    def test_endpoints_on_the_curve(self, type1_reference_design,
                                    type2_reference_design):
        # the end samples sit on isolated roots of the branch discriminant,
        # where both branches meet; they are as accurate as interior ones
        from test_acceptance import _closed_form_type1
        tr = trace(type2_reference_design, samples=56)
        ends = [s for s in tr.samples if s.t in tr.intervals[0]]
        assert len(ends) == 4
        assert all(abs(s.params.x2) <= 1e-14 for s in ends)
        tr = trace(type1_reference_design, samples=56)
        ends = [s for s in tr.samples if s.t == tr.intervals[0][1]]
        assert len(ends) == 2
        for s in ends:
            assert abs(s.params.x1 - _closed_form_type1(s.t, 1)[0]) <= 1e-12

    def test_coinciding_branches(self):
        # alpha = 0: the line on the sphere is free of x1, so both branches
        # share x2, and x1 takes both signs; the cells are exact, not the
        # whole of [-1, 1]
        d = synth_leg_params(1, a2=GaussRat(0, F(-1, 4)), a4=0,
                             m5=(F(-3, 2), 0, 0), r1sq=F(8, 3))
        tr = trace(d, samples=200)
        r = float(sp.sqrt((96 * sp.sqrt(6) - 233) / 3).evalf(30))
        assert r == 0.8467615380938323
        assert tr.is_real and tr.intervals == ((-r, r),)
        x1 = np.array([s.params.x1 for s in tr.samples])
        assert (x1 > 0.5).any() and (x1 < -0.5).any()
        _assert_on_curve(d, tr)

    @pytest.mark.parametrize("kind", [1, 2, "special"])
    def test_samples_on_the_curve_without_repeats(self, kind):
        # seeded designs: no sample comes back twice, except where both
        # branches meet at a cell end, and every sample satisfies the five
        # constraints and the three quadrics
        rng = random.Random(f"on-curve-{kind}")
        drawn = real = 0
        while drawn < 25:
            d = _draw_design(kind, rng)
            if d is None or d.m5[:2] == (0, 0):   # on the axis: not traced
                continue
            drawn += 1
            tr = trace(d, samples=60)
            real += tr.is_real
            _assert_on_curve(d, tr)
        assert real

    def test_invalid_design_rejected(self, type1_reference_design):
        d = type1_reference_design
        bad = synth_leg_params(1, a2=d.a2, a4=d.a4, m5=d.m5, r1sq=d.r1sq)
        object.__setattr__(bad, "p5", bad.p5 + 1)
        with pytest.raises(NotASelfMotionError):
            trace(bad)

    @pytest.mark.parametrize("kind", [1, 2, 5, "special"])
    def test_moved_closing_value_rejected(self, kind):
        # the reduced system alone decides whether a design closes: moving
        # its closing value by a nonzero rational leaves no curve
        rng = random.Random(f"closing-{kind}")
        closing = {1: "p5", 2: "p5", 5: "r5sq", "special": "r1sq"}[kind]
        drawn = wide = 0
        while drawn < 12:
            d = _draw_design(kind, rng)
            if d is None:
                continue
            drawn += 1
            if kind == 5:
                Q1, _, Q3 = d.reduction.quadrics(sp.symbols("s1 s2 s3"))
                assert Q3.is_zero or (Q3 * Q1.LC() - Q1 * Q3.LC()).is_zero
                wide += d.w * d.w >= 1
            shift = rand_frac(rng) or F(1, 3)
            bad = dataclasses.replace(
                d, **{closing: getattr(d, closing) + shift})
            with pytest.raises(NotASelfMotionError):
                trace(bad, samples=10)
        # Type 5 designs whose angle circle is not real are checked too
        assert kind != 5 or wide

    @pytest.mark.parametrize("a2, a5, m5, r1sq", [
        (GaussRat(F(5, 3), -1), F(1, 2), (-2, -2, 0), 36),
        (GaussRat(-2, F(-1, 4)), -2, (F(5, 4), -1, F(-2, 3)), 2),
        (GaussRat(-3, 1), F(3, 4), (0, 0, F(-1, 2)), 5),
    ])
    def test_type5_reality_matches_trace(self, a2, a5, m5, r1sq):
        # |C5| < |a5|, yet Q2 has no real root in s3 on the direction circle
        d = synth_leg_params(5, a2=a2, a5=a5, m5=m5, r1sq=r1sq)
        assert m5[2] ** 2 < a5 ** 2
        assert reality(d).reality is Reality.COMPLEX
        assert not trace(d, samples=50).samples

    @pytest.mark.xfail(strict=True, raises=NotASelfMotionError,
                       reason="with A5 = B5 = 0 the relation on the sphere "
                       "has alpha = beta = 0: its curve is circles about "
                       "the axis, which are not traced")
    @pytest.mark.parametrize("kind", [1, 2])
    def test_mannheim_point_on_axis_traces(self, kind):
        params = {1: dict(a2=GaussRat(F(3, 4), -4), a4=-1,
                          m5=(0, 0, F(-4, 3)), r1sq=F(25, 16)),
                  2: dict(a2=GaussRat(1, 2), m5=(0, 0, 0), r1sq=4)}[kind]
        trace(synth_leg_params(kind, **params), samples=10)


class TestRealLegs:

    def test_reference_values(self, type1_reference_design):
        legs = real_legs_from_design(type1_reference_design, [0, 1, 3])
        assert legs[0].base == (0, 0, 0) and legs[0].r2 == 3
        assert legs[1].base == (0, 1, -1) and legs[1].r2 == F(142, 75)
        assert legs[2].base == (F(3, 5), F(6, 5), 3)

    def test_exceptional_value_reported(self, type1_reference_design):
        out = real_legs_from_design(type1_reference_design, [2])
        assert isinstance(out[0], LegGenerationError)

    def test_generated_spheres_stay_in_span(self, type1_reference_design):
        from pentakin.kinmap import sphere_condition
        from pentakin.polyalg import exactify, mat_rank
        cons = type1_reference_design.constraints()
        rows = [[exactify(c) for c in hp.coeffs] for hp in cons]
        legs = real_legs_from_design(type1_reference_design, [0, 1, 3, -1, -2])
        for leg in legs:
            stacked = rows + [[exactify(c) for c in
                               sphere_condition(leg).coeffs]]
            assert mat_rank(stacked) == 5

    @given(st.sampled_from((1, 2, 5)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_legs_in_span_property(self, kind, data):
        # every leg returned from the reduced system is a sixth hyperplane
        # in the span of the design's five rows
        fracs = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        a2 = GaussRat(data.draw(fracs), data.draw(fracs))
        m5 = (data.draw(fracs), data.draw(fracs),
              F(0) if kind == 2 else data.draw(fracs))
        params = dict(a2=a2, m5=m5, r1sq=data.draw(fracs.filter(bool)) ** 2)
        if kind == 1:
            params["a4"] = data.draw(fracs)
        if kind == 5:
            params["a5"] = data.draw(fracs)
        try:
            d = synth_leg_params(kind, **params)
        except DegenerateDesignError:
            assume(False)
        rows = [[exactify(c) for c in hp.coeffs] for hp in d.constraints()]
        avals = data.draw(st.lists(fracs, min_size=1, max_size=4))
        for leg in real_legs_from_design(d, avals):
            if isinstance(leg, Leg):
                h = [exactify(c) for c in sphere_condition(leg).coeffs]
                assert mat_rank(rows + [h]) == 5

    def test_trajectories_on_curve(self, type1_reference_design):
        # a freshly generated leg keeps its length along the trace
        tr = trace(type1_reference_design, samples=9)
        (leg,) = real_legs_from_design(type1_reference_design, [F(1, 2)])
        target = math.sqrt(to_float(leg.r2))
        for s in tr.samples:
            P = displacement(s.params, 0.5)
            dist = math.dist([float(c) for c in P],
                             [to_float(c) for c in leg.base])
            assert abs(dist - target) <= 1e-8 * target


class TestCircularTranslation:

    def test_congruent_projection_real(self):
        out = circular_translation_check(congruent_projection_pentapod())
        assert out.verdict is Reality.REAL

    def test_explicit_motion_keeps_lengths(self):
        p = congruent_projection_pentapod()
        out = circular_translation_check(p)
        pose = out.motion(p, radius=1.5)
        ref = pose(0.0)
        base = [[to_float(c) for c in leg.base] for leg in p.legs]
        lengths0 = [math.dist(ref[i], base[i]) for i in range(5)]
        for t in (0.3, 1.1, 2.0, 4.4):
            pts = pose(t)
            for i in range(5):
                assert abs(math.dist(pts[i], base[i]) - lengths0[i]) <= 1e-12

    def test_stretched_fibers_none(self):
        out = circular_translation_check(stretched_fiber_pentapod())
        assert out.verdict is Reality.COMPLEX

    def test_half_compressed_real(self):
        out = circular_translation_check(ar_planar_pentapod(lam=F(1, 2)))
        assert out.verdict is Reality.REAL

    def test_finite_vertex_none(self):
        from helpers import finite_vertex_pentapod
        out = circular_translation_check(finite_vertex_pentapod())
        assert out.verdict is Reality.COMPLEX

    def test_nonplanar_rejected(self, type1_reference_pentapod):
        with pytest.raises(WrongBranchError):
            circular_translation_check(type1_reference_pentapod)


class TestExactStage:

    @pytest.mark.parametrize("kind", [1, 2, 5])
    def test_one_reduction_per_design(self, monkeypatch, kind):
        # reality, trace and leg generation share one exact stage per
        # design instance; an equal design is another instance
        built = []
        init = Reduction.__init__

        def counted(self, rows, pivots):
            built.append(pivots)
            init(self, rows, pivots)

        monkeypatch.setattr(Reduction, "__init__", counted)
        params = {1: dict(a2=GaussRat(0, 1), a4=2, m5=(1, 1, 1), r1sq=3),
                  2: dict(a2=GaussRat(1, 1), m5=(1, 1, 0), r1sq=4),
                  5: dict(a2=GaussRat(1, 1), a5=1, m5=(1, 1, F(1, 2)),
                          r1sq=25)}[kind]
        d = synth_leg_params(kind, **params)
        assert reality(d).reality is Reality.REAL
        assert trace(d, samples=20).samples
        assert all(isinstance(leg, Leg)
                   for leg in real_legs_from_design(d, [1, F(1, 2)]))
        assert trace(d, samples=7).samples
        assert len(built) == 1
        twin = synth_leg_params(kind, **params)
        assert twin == d
        assert trace(twin, samples=20) == trace(d, samples=20)
        assert len(built) == 2

    @pytest.mark.parametrize("c5", [0, F(1, 2), F(99, 100)])
    def test_leftover_batch_matches_loop(self, c5):
        # criterion 10's real designs: the batched closed-form leftover
        # solve returns what np.roots and a residual check, per sample,
        # return
        d = synth_leg_params(5, a2=GaussRat(1, 1), a5=1, m5=(1, 1, c5),
                             r1sq=25)
        want = _leftover_loop(d, 30)
        assert want
        _assert_same_samples(trace(d, samples=30), want)

    def test_leftover_batch_matches_loop_on_draws(self):
        # the same on seeded designs whose direction circle is real
        rng = random.Random("leftover-loop")
        drawn = real = 0
        while drawn < 40:
            d = _draw_design(5, rng)
            if d is None or d.w ** 2 >= 1:
                continue
            drawn += 1
            want = _leftover_loop(d, 50)
            real += bool(want)
            _assert_same_samples(trace(d, samples=50), want)
        assert real


_X = sp.Symbol("x")


class TestRealIntervals:
    """The cells of a branch discriminant are signed by its exact roots: it
    is negative at both infinities, and its sign flips across odd roots
    only, so the cells are consecutive pairs of odd roots."""

    @staticmethod
    def _intervals(expr):
        from pentakin.selfmotion import _real_intervals
        return _real_intervals(sp.Poly(expr, _X))

    def test_even_root_inside_an_interval(self):
        # -x^2 (x + 1)(x - 2) >= 0 on both sides of its double root 0
        cells, rts = self._intervals(-_X ** 2 * (_X + 1) * (_X - 2))
        assert cells == [(-1.0, 2.0)]
        assert rts == [-1.0, 0.0, 2.0]

    def test_even_root_between_negative_cells(self):
        # -(2x - 1)^2 (x - 2)(x - 3): negative on both sides of 1/2
        cells, rts = self._intervals(
            -(2 * _X - 1) ** 2 * (_X - 2) * (_X - 3))
        assert cells == [(2.0, 3.0)]
        assert rts == [0.5, 2.0, 3.0]

    @pytest.mark.parametrize("expr, want", [
        (1 - _X ** 2, [(-1.0, 1.0)]),
        (-(_X ** 2 - 1) * (_X - 2) * (_X - 3), [(-1.0, 1.0), (2.0, 3.0)]),
        (-(_X - 1) ** 3 * (_X + 1), [(-1.0, 1.0)]),
    ])
    def test_odd_roots_bound_intervals(self, expr, want):
        assert self._intervals(expr)[0] == want

    @pytest.mark.parametrize("expr, want", [
        (-_X ** 2 - 1, []), (-(_X ** 2 + 1) * (_X ** 2 + _X + 1), []),
        (sp.Integer(-2), []), (-(_X ** 2 + 2) ** 2, []),
        (-_X ** 4 - _X ** 2 - 1, []),
    ])
    def test_no_real_root(self, expr, want):
        assert self._intervals(expr) == (want, [])

    def test_cells_have_the_exact_sign(self):
        # on seeded integer polynomials with repeated roots, negative at
        # both infinities, each interval is a cell of the real line cut at
        # the roots where the exact polynomial is positive, and every
        # positive cell is covered
        rng = random.Random("real-intervals")
        for _ in range(40):
            factors = [(_X - rng.randint(-4, 4)) ** rng.randint(1, 3)
                       for _ in range(rng.randint(1, 3))]
            p = sp.Poly(sp.Mul(*factors, _X ** 2 + rng.randint(0, 2)), _X)
            if p.degree() % 2:
                p *= sp.Poly(_X - rng.randint(-4, 4), _X)
            if p.LC() > 0:
                p = -p
            cells, rts = self._intervals(p.as_expr())
            bounds = [rts[0] - 1] + rts + [rts[-1] + 1]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                inside = [c for c in cells if c[0] <= lo and hi <= c[1]]
                assert len(inside) == bool(p.eval(sp.Rational(lo + hi) / 2) > 0)
