from fractions import Fraction as F

import pytest
import sympy as sp

from conftest import random_member
from helpers import (ar_planar_pentapod, cylinder_only_pentapod,
                     finite_vertex_pentapod, ideal_vertex_pentapod,
                     three_real_darboux_pentapod, type3_pentapod,
                     type4_pentapod, type5_parallel_lines_pentapod)
from pentakin.archsing import WrongBranchError
from pentakin.geom import ProjPoint
from pentakin.kinmap import Leg, Pentapod, sphere_condition
from pentakin.polyalg import exactify, mat_rank
from pentakin.rearrange import (A_SYM, ArchSingularInputError,
                                ExceptionalImage, classify_type, cubic_kind,
                                planar_vertex, replacement_cubic, sigma)
from pentakin.reduced import first_reduction
from pentakin.selfmotion import _match_sphere


class TestReplacementCubic:

    def test_reference_polynomials(self, type1_reference_pentapod):
        corr = replacement_cubic(type1_reference_pentapod)
        a = A_SYM
        expected = [(a * a + 1) * (a - 2), a * (a - 1) * (a - 2),
                    a * (a + 1) * (a - 2), a * (a * a + 1)]
        lam = None
        for d, e in zip(corr.polys(), expected):
            q, r = sp.div(d.as_expr(), e, a)
            assert r == 0 and q.is_number
            lam = lam or q
            assert q == lam  # one common scalar across all four

    def test_degrees(self, type1_reference_pentapod):
        corr = replacement_cubic(type1_reference_pentapod)
        assert corr.d0.degree() == 3
        assert max(d.degree() for d in (corr.d1, corr.d2, corr.d3)) == 3
        assert not corr.affine_relation

    def test_affine_relation_shape(self):
        # AR pentapod: base x-coordinates equal the platform coordinates
        p = Pentapod(tuple(Leg(a, M) for a, M in
                           [(0, (0, 0, 0)), (1, (1, 1, 0)), (2, (2, 0, 1)),
                            (3, (3, 1, 1)), (4, (4, 3, 2))]))
        corr = replacement_cubic(p)
        assert corr.affine_relation
        assert corr.d0.degree() == 2
        assert corr.d1.degree() == 3

    def test_replaced_leg_satisfies_system(self, type1_reference_pentapod, rng):
        corr = replacement_cubic(type1_reference_pentapod)
        M0, Mlin, r1 = corr.system
        for _ in range(10):
            av = F(rng.randint(-20, 20), rng.randint(1, 7))
            pt = sigma(corr, av)
            if not isinstance(pt, ProjPoint) or pt.is_ideal:
                continue
            x = [c - s for c, s in zip(pt.affine(), corr.base_shift)]
            asys = av - corr.a_shift
            for i in range(3):
                lhs = sum((M0[i][j] + asys * Mlin[i][j]) * x[j]
                          for j in range(3))
                assert lhs == asys * r1[i]

    def test_original_legs_on_locus(self, rng):
        for _ in range(10):
            p = random_member(rng)
            corr = replacement_cubic(p)
            for leg in p.legs:
                pt = sigma(corr, leg.a)
                if isinstance(pt, ExceptionalImage):
                    continue
                if pt.is_ideal:
                    continue
                assert pt.affine() == leg.base

    def test_planar_rejected(self):
        with pytest.raises(WrongBranchError):
            replacement_cubic(finite_vertex_pentapod())


class TestSigma:

    def test_reference_values(self, type1_reference_pentapod):
        corr = replacement_cubic(type1_reference_pentapod)
        assert sigma(corr, F(1)).affine() == (0, 1, -1)
        assert sigma(corr, F(3)).affine() == (F(3, 5), F(6, 5), 3)
        ideal = sigma(corr, F(2))
        assert ideal.is_ideal
        # real ideal direction of the locus: the z-axis
        d = ideal.direction()
        assert d[0] == 0 and d[1] == 0 and d[2] != 0

    def test_exceptional_marker(self):
        # for the conic-plus-line class the splitting platform point maps to
        # a whole line
        p = cylinder_only_pentapod(2)
        corr = replacement_cubic(p)
        out = sigma(corr, F(0))
        assert isinstance(out, ExceptionalImage)
        assert out.direction is not None


class TestPlanarVertex:

    def test_finite_vertex(self):
        v = planar_vertex(finite_vertex_pentapod())
        assert not v.is_ideal

    def test_ideal_vertex(self):
        v = planar_vertex(ideal_vertex_pentapod())
        assert v.is_ideal

    def test_known_pencil_vertex(self):
        # legs placed on lines through (2, 3, 0) whose direction varies
        # linearly with the platform coordinate: the vertex must come back
        V = (F(2), F(3))
        legs = []
        for a, t in zip((0, 1, 2, 3, 4), (1, 2, -1, 3, -2)):
            d = (F(1), F(a))
            legs.append(Leg(a, (V[0] + t * d[0], V[1] + t * d[1], F(0))))
        v = planar_vertex(Pentapod(tuple(legs)))
        assert not v.is_ideal
        assert v.affine() == (2, 3, 0)

    def test_two_lines_pin_the_vertex(self):
        # construct from two known pencil members: lines x = a/2 are
        # parallel, the vertex is the vertical ideal direction
        p = ar_planar_pentapod()
        v = planar_vertex(p)
        assert v.is_ideal
        d = v.direction()
        # fibers x = a/2 are parallel to the y-axis
        assert d[0] == 0 and d[2] == 0 and d[1] != 0

    def test_member_lines_pass_through_vertex(self, rng):
        # vertex is on the replacement line of every platform coordinate:
        # verified through three sampled legs of a planar member
        for _ in range(5):
            p = random_member(rng, planar=True)
            v = planar_vertex(p)
            assert isinstance(v, ProjPoint)

    def test_assumption_violation(self):
        p = Pentapod(tuple(Leg(a, M) for a, M in
                           [(0, (0, 0, 0)), (1, (1, 0, 0)), (2, (2, 0, 0)),
                            (3, (3, 0, 0)), (4, (5, 0, 0))]))
        with pytest.raises(Exception):
            planar_vertex(p)


class TestClassifyType:

    def test_reference_is_type1(self, type1_reference_pentapod):
        cls = classify_type(type1_reference_pentapod)
        assert cls.kind == "type1"
        assert cls.mannheim_image == (1, 1, 1)
        reals = [dp for dp in cls.darboux_points if dp.is_real]
        assert len(reals) == 1 and reals[0].a == 2
        assert len(cls.darboux_points) == 3

    def test_type2(self):
        cls = classify_type(cylinder_only_pentapod(2))
        assert cls.kind == "type2"
        assert len(cls.darboux_points) == 2
        assert len(cls.exceptional_points) == 1
        # the conic and the line meet at the limit point of the parameter
        exc = cls.exceptional_points[0]
        assert exc.point is not None and exc.direction is not None

    def test_type3(self):
        cls = classify_type(type3_pentapod())
        assert cls.kind == "type3"
        assert len(cls.darboux_points) == 1
        assert len(cls.exceptional_points) == 2

    def test_type4(self):
        cls = classify_type(type4_pentapod())
        assert cls.kind == "type4"
        assert not cls.darboux_points
        assert len(cls.exceptional_points) == 3
        # all exceptional lines pass through the concurrency point (1,1,1)
        for exc in cls.exceptional_points:
            pt, d = exc.point, exc.direction
            diff = tuple(c - F(v) for c, v in zip(pt, (1, 1, 1)))
            cross = (diff[1] * d[2] - diff[2] * d[1],
                     diff[2] * d[0] - diff[0] * d[2],
                     diff[0] * d[1] - diff[1] * d[0])
            assert all(c == 0 for c in cross)

    def test_type5(self):
        cls = classify_type(type5_parallel_lines_pentapod())
        assert cls.kind == "type5"
        assert cls.ideal_element is not None
        assert cls.ideal_element.kind == "point"

    def test_planar_pencil(self):
        cls = classify_type(finite_vertex_pentapod())
        assert cls.kind == "planar_pencil"
        assert cls.vertex is not None and not cls.vertex.is_ideal

    def test_darboux_count_matches_type(self, rng):
        # type index i carries 4 - i ideal-direction points with multiplicity
        for p, idx in [(cylinder_only_pentapod(1), 1),
                       (cylinder_only_pentapod(2), 2),
                       (type3_pentapod(), 3), (type4_pentapod(), 4)]:
            cls = classify_type(p)
            assert cls.type_index == idx
            count = sum(dp.multiplicity for dp in cls.darboux_points)
            assert count == 4 - idx

    def test_arch_singular_rejected(self):
        p = Pentapod(tuple(Leg(a, (F(a), F(2 * a), F(0)))
                           for a in (0, 1, 2, 3, 4)))
        with pytest.raises(ArchSingularInputError) as exc:
            classify_type(p)
        assert exc.value.verdict.singular

    def test_require_member_runs_once(self, monkeypatch,
                                      type1_reference_pentapod):
        import pentakin.rearrange as rearrange
        calls = []
        original = rearrange.require_member

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(rearrange, "require_member", counted)
        for p in (type1_reference_pentapod, finite_vertex_pentapod()):
            calls.clear()
            classify_type(p)
            assert len(calls) == 1

    def test_relabeling_invariance(self, rng, type1_reference_pentapod):
        legs = list(type1_reference_pentapod.legs)
        rng.shuffle(legs)
        assert classify_type(Pentapod(tuple(legs))).kind == "type1"

    def test_rigid_motion_invariance(self, type1_reference_pentapod):
        # rational rotation (cos, sin) = (3/5, 4/5) about z plus a shift
        c, s = F(3, 5), F(4, 5)
        legs = []
        for leg in type1_reference_pentapod.legs:
            A, B, C = leg.base
            legs.append(Leg(leg.a, (c * A - s * B + 1, s * A + c * B - 2,
                                    C + 3)))
        assert classify_type(Pentapod(tuple(legs))).kind == "type1"

    def test_generic_members_are_type1(self, rng):
        # wide coordinate pool: the splitting coincidences have measure zero
        for _ in range(10):
            while True:
                try:
                    p = Pentapod(tuple(
                        Leg(F(rng.randint(-60, 60), rng.randint(1, 11)),
                            tuple(F(rng.randint(-60, 60), rng.randint(1, 11))
                                  for _ in range(3)))
                        for _ in range(5)))
                    break
                except Exception:
                    continue
            assert classify_type(p).kind == "type1"

    def test_small_pool_draw_can_be_type2(self):
        # the generic member of perfbench classify-survey's round 15, drawn
        # from the round alone (so on every seed), is no generic member:
        # the platform point a = -1/4 of its first leg is exceptional
        M1 = (F(-1), F(3), F(4, 3))
        legs = ((F(-1, 4), M1), (F(2, 3), (F(1), F(0), F(3, 4))),
                (F(1, 3), (F(-1), F(2), F(-1, 2))),
                (F(1), (F(-1, 2), F(-4), F(1, 2))),
                (F(-5, 4), (F(-1), F(-2), F(0))))
        cls = classify_type(Pentapod(tuple(Leg(a, M) for a, M in legs)))
        assert cls.kind == "type2"
        (exc,) = cls.exceptional_points
        assert exc.a == sp.Rational(-1, 4) and exc.point == M1

        # the oracle, without rearrange: a sphere leg (a, M) is compatible
        # iff its hyperplane minus the x0 coefficient, which carries the
        # free length, lies in the span of the five rows so reduced
        def rank(a, M):
            rows = [[F(4), b * A, b * B, b * C, b, A, B, C]
                    for b, (A, B, C) in legs]
            return mat_rank(rows + [[F(4), a * M[0], a * M[1], a * M[2], a,
                                     *M]])

        def on_line(Z):
            return (F(112, 3315) * Z - F(10393, 9945),
                    F(39203, 13260) * Z - F(9368, 9945), Z)

        a = F(-1, 4)
        assert on_line(F(4, 3)) == M1
        assert all(rank(a, on_line(Z)) == 5 for Z in (F(0), F(4, 3), F(7)))
        assert rank(a, (F(0), F(0), F(0))) == 6
        assert rank(F(1, 7), (F(-1493, 1389), F(-22, 1389),
                              F(-793, 2778))) == 5
        assert rank(F(1, 7), on_line(F(0))) == 6

        # compatible legs from the reduced system agree, with any lengths
        red = first_reduction([[exactify(c) for c in sphere_condition(
            Leg(b, M, F(1))).coeffs] for b, M in legs])
        assert _match_sphere(red, F(1, 7))[0] == (
            F(-1493, 1389), F(-22, 1389), F(-793, 2778))
        assert _match_sphere(red, a) is None
        for Z in (F(0), F(4, 3), F(7)):
            assert _match_sphere(red, a, pick=Z)[0] == on_line(Z)


class TestDarbouxPoints:

    def test_casus_irreducibilis_points_are_real(self):
        cls = classify_type(three_real_darboux_pentapod())
        assert cls.kind == "type1"
        corr = cls.correspondence
        d0red = corr.d0.exquo(corr.gcd)
        assert d0red.degree() == 3 and d0red.is_irreducible
        assert d0red.count_roots() == 3      # Sturm count over the reals
        assert len(cls.darboux_points) == 3
        assert all(dp.is_real and dp.multiplicity == 1
                   for dp in cls.darboux_points)
        vals = [complex(dp.a) for dp in cls.darboux_points]
        assert all(z.imag == 0 for z in vals)
        assert [z.real for z in vals] == sorted(z.real for z in vals)
        for z in vals:
            assert abs(complex(d0red.eval(z.real - corr.a_shift))) <= 1e-9 * \
                max(abs(int(c)) for c in d0red.all_coeffs())

    def test_reference_points_exact(self, type1_reference_pentapod):
        cls = classify_type(type1_reference_pentapod)
        real, *cplx = cls.darboux_points
        assert real.a == 2 and isinstance(real.a, sp.Rational)
        # the real ideal direction of the locus is the z-axis
        assert real.direction[:2] == (0, 0) and real.direction[2] != 0
        assert all(isinstance(c, F) for c in real.direction)
        assert [complex(dp.a) for dp in cplx] == [-1j, 1j]
        assert all(isinstance(c, complex) for dp in cplx
                   for c in dp.direction)

    def test_real_count_matches_sturm(self, rng):
        for _ in range(5):
            p = random_member(rng)
            cls = classify_type(p)
            corr = cls.correspondence
            d0red = corr.d0.exquo(corr.gcd)
            pts = cls.darboux_points
            assert sum(dp.multiplicity for dp in pts) == d0red.degree()
            assert sum(dp.multiplicity for dp in pts if dp.is_real) == \
                d0red.count_roots()

    def test_no_radicals(self, monkeypatch):
        """classify_type and necessity_verdict decide without sympy's
        simplify and roots, that is without forming radicals."""
        from pentakin.bonds import necessity_verdict

        def forbidden(*args, **kwargs):
            raise AssertionError("radical path taken")

        p = three_real_darboux_pentapod()
        with monkeypatch.context() as mp:
            mp.setattr(sp, "simplify", forbidden)
            mp.setattr(sp, "roots", forbidden)
            guarded = (classify_type(p), necessity_verdict(p))
        cls, verdict = classify_type(p), necessity_verdict(p)
        assert guarded[0].kind == cls.kind == "type1"
        assert [(complex(dp.a), dp.is_real) for dp in guarded[0].darboux_points] \
            == [(complex(dp.a), dp.is_real) for dp in cls.darboux_points]
        assert guarded[1] == verdict and not verdict.has_bond


def _lifted(p, zs=(0, 0, 1, 0, 2)):
    """A planar pentapod with its base points lifted off the plane z = 0;
    an affine relation between the platform coordinates and the in-plane
    base coordinates survives the lift."""
    return Pentapod(tuple(Leg(leg.a, (*leg.base[:2], z))
                          for leg, z in zip(p.legs, zs)))


class TestAffineRelation:

    def test_ar(self):
        p = _lifted(ar_planar_pentapod())
        corr = replacement_cubic(p)
        assert corr.affine_relation
        assert cubic_kind(corr) == classify_type(p).kind == "type5"

    def test_non_ar(self):
        p = _lifted(ideal_vertex_pentapod())
        corr = replacement_cubic(p)
        assert not corr.affine_relation
        assert cubic_kind(corr) == classify_type(p).kind == "type1"
