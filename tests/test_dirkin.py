import random
import warnings
from fractions import Fraction as F

import pytest

from conftest import rand_frac, random_member
from helpers import (ar_planar_pentapod, congruent_projection_pentapod,
                     cylinder_only_pentapod, finite_vertex_pentapod,
                     ideal_vertex_pentapod, moved, moved_point,
                     platform_shifted, relabelled,
                     type5_parallel_lines_pentapod)
from pentakin import dirkin
from pentakin.bonds import DependentConstraintsError
from pentakin.dirkin import DirkinError, max_real_solutions, solve_dk
from pentakin.kinmap import (Leg, MotionParams, Pentapod, StudyParams,
                             displacement, lift_study)
from pentakin.polyalg import to_float
from pentakin.rearrange import ArchSingularInputError

REFERENCE_QUARTIC = [76425120000, -291209472000, 241133479200,
                     69486876480, 4316636297]


def random_study(rng):
    while True:
        e = [rand_frac(rng) for _ in range(4)]
        if all(v == 0 for v in e):
            continue
        f = [rand_frac(rng) for _ in range(4)]
        k = next(i for i, v in enumerate(e) if v != 0)
        f[k] = -sum(e[i] * f[i] for i in range(4) if i != k) / e[k]
        return StudyParams(*e, *f)


def pose_params(u, c):
    """The pose (x0 = 1 chart) that carries platform point a to a*u + c,
    for a unit direction u and a point c."""
    n0 = sum(v * v for v in c) / 8
    y0 = sum(p * q for p, q in zip(u, c))
    return MotionParams(n0, 1, *(-v for v in u), y0, *(-v for v in c))


def recovers(out, pose):
    """Whether a DK solution is within 1e-9 of the pose's coordinates."""
    return any(max(abs(float(c) - float(e))
                   for c, e in zip(s.params.coords(), pose)) < 1e-9
               for s in out.solutions)


def forward_lengths2(p, m):
    out = []
    for leg in p.legs:
        P = displacement(m, leg.a)
        out.append(sum((pc - bc) ** 2 for pc, bc in zip(P, leg.base)))
    return out


class TestSolveDK:

    def test_reference_quartic_exact(self, type1_reference_pentapod):
        out = solve_dk(type1_reference_pentapod, lengths=[2, 1, 5, 3, 4])
        assert out.degree == 4
        assert out.polynomial.all_coeffs() == REFERENCE_QUARTIC
        assert out.route == "cascade"

    def test_reference_solutions_reproduce_lengths(self,
                                                   type1_reference_pentapod):
        out = solve_dk(type1_reference_pentapod, lengths=[2, 1, 5, 3, 4])
        assert out.solutions
        for s in out.solutions:
            assert s.residual <= 1e-9
            for got, want in zip(s.lengths, (2, 1, 5, 3, 4)):
                assert abs(got - want) <= 1e-9 * want

    def test_forward_consistency(self, rng):
        for _ in range(5):
            p = random_member(rng)
            m = lift_study(random_study(rng))
            out = solve_dk(p, lengths2=forward_lengths2(p, m))
            mn = m.normalized()
            target = [to_float(c) for c in mn.coords()]
            hits = [
                s for s in out.solutions
                if max(abs(float(c) - t)
                       for c, t in zip(s.params.coords(), target)) < 1e-7]
            assert hits, "seeded pose not recovered"
            assert hits[0].residual <= 1e-9

    def test_pair_root_shared_by_two_points(self):
        # at the pose's q3 = 2/7 two points of the pair (Q1, Q3) share
        # q2 = 6/7; np.roots finds that double root only to about 1e-8, and
        # the pose must still pass the completion's residual filter
        lengths2 = [F(7, 2), F(437, 252), F(193, 504), F(9661, 3150),
                    F(123695, 72828)]
        out = solve_dk(cylinder_only_pentapod(2), lengths2=lengths2)
        assert out.degree == 6
        pose = (F(7, 16), 1, F(3, 7), F(6, 7), F(2, 7), F(-23, 14), F(-3, 2),
                -1, F(-1, 2))
        assert recovers(out, pose)

    @pytest.mark.parametrize("design, lengths2, pose", [
        # Q1 and Q3 are tangent at the pose for its q3 (-4, and 8/9): the
        # pair's Jacobian is singular there and Newton on it stalls at a
        # residual of 1e-8 to 1e-7, so the pose's linear factor was
        # dropped as extraneous
        (ideal_vertex_pentapod,
         [F(101, 4), F(126103, 4032), F(110269, 2916), F(16269, 350),
          F(1326739, 30492)],
         (F(101, 32), 1, F(-2, 7), F(-6, 7), F(-3, 7), F(15, 7), -3,
          F(1, 2), -4)),
        (lambda: cylinder_only_pentapod(2),
         [F(589, 36), F(95, 6), F(487, 72), F(21781, 900), F(21295, 1734)],
         (F(589, 288), 1, F(1, 9), F(-4, 9), F(8, 9), F(37, 27), F(1, 3),
          -4, F(-1, 2))),
    ], ids=["ideal-vertex", "cylinder-type2"])
    def test_pair_tangent_at_the_pose(self, design, lengths2, pose):
        out = solve_dk(design(), lengths2=lengths2)
        assert out.degree == 6
        assert recovers(out, pose)

    def test_every_pose_of_a_root(self):
        # each double root y3 = +-3/4 of the quartic carries two poses,
        # which differ in the sign of x3; all four are returned
        lengths2 = [F(469, 144), F(15583, 1008), F(5683, 1008),
                    F(73327, 1008), F(57283, 1008)]
        out = solve_dk(ar_planar_pentapod(), lengths2=lengths2)
        assert out.degree == 4 and len(out.solutions) == 4
        got = sorted((round(s.params.x3 * 7), round(s.params.y3 * 4))
                     for s in out.solutions)
        assert got == [(-3, -3), (-3, 3), (3, -3), (3, 3)]
        pose = (F(469, 1152), 1, F(-2, 7), F(6, 7), F(3, 7), F(-5, 28),
                F(3, 2), F(2, 3), F(-3, 4))
        assert recovers(out, pose)

    def test_float_geometry(self):
        # an all-float geometry, embedded exactly: its eliminant has
        # coefficients of about 2500 bits, beyond float64's 2**1024, and DK
        # still recovers the pose with no raw NumPy warning
        platform = (1.1, 2.1, -0.15, -1.2333333333333332, 3.1)
        base = ((1.1, -1.5666666666666667, -1.9), (0.6, -4.9, 1.35),
                (-2.9, 0.6, 1.6), (0.6, 4.1, 0.35), (1.1, -5.9, 0.1))
        p = Pentapod(tuple(Leg(F(a), tuple(F(c) for c in b))
                           for a, b in zip(platform, base)))
        m = lift_study(random_study(random.Random(1)))
        lengths2 = forward_lengths2(p, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_dk(p, lengths2=lengths2)
        coeffs = out.polynomial.all_coeffs()
        assert max(abs(int(c)) for c in coeffs) > 2 ** 1100
        assert out.degree == 8 and out.solutions
        for s in out.solutions:
            assert s.residual <= 1e-9
            for got, want in zip(s.lengths, lengths2):
                assert abs(got * got - want) <= 1e-9 * (1 + want)
        assert recovers(out, [to_float(c) for c in m.normalized().coords()])

    def test_parallel_lines_pose(self):
        # degree 6 is the bound for a design with a bond
        p = type5_parallel_lines_pentapod()
        pose = pose_params((F(23, 49), F(36, 49), F(-24, 49)), (3, -1, -2))
        out = solve_dk(p, lengths2=forward_lengths2(p, pose))
        assert out.degree == 6
        assert recovers(out, pose.coords())

    def test_parallel_lines_pose_float_lengths(self):
        # the same pose with float-rounded lengths: the rounding splits the
        # double root y1 = -3 into two roots 6e-15 apart, and the first
        # pair's chain meets the quadrics at neither; the next members of
        # the chains give the pose
        p = type5_parallel_lines_pentapod()
        pose = pose_params((F(23, 49), F(36, 49), F(-24, 49)), (3, -1, -2))
        lengths2 = forward_lengths2(p, pose.scaled(1.0))
        assert all(isinstance(v, float) for v in lengths2)
        out = solve_dk(p, lengths2=lengths2)
        assert out.degree == 6
        assert recovers(out, pose.coords())

    def test_close_pair_of_roots(self):
        # the pose's x3 = -32/33 lies 1.1e-3 from the eliminant's other real
        # root; the subresultant's coefficients evaluated in floats there
        # put x2 off by 2e-2, and Newton then polished onto the other pose
        p = Pentapod(tuple(Leg(a, b) for a, b in (
            (F(3, 2), (5, -2, 2)), (2, (1, 0, 2)),
            (F(-5, 2), (-1, -2, F(-5, 4))), (F(4, 3), (-1, 1, 0)),
            (-4, (F(3, 2), 1, -6)))))
        lengths2 = [F(5677, 198), F(387, 44), F(3785, 528), F(26681, 1188),
                    F(197, 6)]
        out = solve_dk(p, lengths2=lengths2)
        assert out.degree == 8 and len(out.solutions) == 2
        assert recovers(out, (F(349, 288), 1, F(1, 33), F(-8, 33),
                              F(-32, 33), F(274, 99), F(-2, 3), F(1, 2), -3))

    @pytest.mark.parametrize("design", [
        ar_planar_pentapod, congruent_projection_pentapod,
        ideal_vertex_pentapod, finite_vertex_pentapod])
    def test_base_plane_pose(self, design):
        # c is on the base plane, so the pose and its mirror image share
        # the eliminated y3 = 0 and differ in x3.  On the two vertex designs
        # x3 is the second free coordinate, and the root takes the chain's
        # quadratic S_2 from the third pair; on the others it is the first,
        # and the quadrics' rows in it have rank one.  Exact coordinates
        # (x0 = 1 as a Fraction) give exact lengths
        p = design()
        pose = MotionParams(*(F(v) for v in pose_params(
            (F(-1, 3), F(-2, 3), F(-2, 3)), (F(-4, 3), -1, 0)).coords()))
        out = solve_dk(p, lengths2=forward_lengths2(p, pose))
        assert len(out.solutions) == 4
        assert recovers(out, pose.coords())

    @staticmethod
    def _near(a, b):
        """Whether every pose of `a` lies within 1e-6 of a pose of `b`."""
        return all(any(max(abs(x - y) for x, y in zip(s.params.coords(),
                                                      t.params.coords()))
                       <= 1e-6 for t in b.solutions) for s in a.solutions)

    @pytest.mark.parametrize("design", [
        ar_planar_pentapod, congruent_projection_pentapod,
        ideal_vertex_pentapod, finite_vertex_pentapod])
    def test_base_plane_pose_float_lengths(self, design):
        # the poses of test_base_plane_pose with float-rounded lengths
        p = design()
        pose = MotionParams(*(F(v) for v in pose_params(
            (F(-1, 3), F(-2, 3), F(-2, 3)), (F(-4, 3), -1, 0)).coords()))
        exact = solve_dk(p, lengths2=forward_lengths2(p, pose))
        rounded = solve_dk(p, lengths2=forward_lengths2(p, pose.scaled(1.0)))
        assert self._near(rounded, exact) and self._near(exact, rounded)

    @pytest.mark.parametrize("design", [
        ar_planar_pentapod, congruent_projection_pentapod,
        ideal_vertex_pentapod, finite_vertex_pentapod])
    def test_in_plane_line_float_lengths(self, design):
        # the platform line lies in the base plane, so the pose is its own
        # mirror image: a double root of the eliminant.  Float rounding
        # splits it into near-duplicate poses about sqrt(EPS) apart, or
        # moves it off the real line and leaves no pose; every pose it
        # gives is near the exact one
        p = design()
        pose = MotionParams(*(F(v) for v in pose_params(
            (0, 1, 0), (F(-4, 3), -1, 0)).coords()))
        exact = solve_dk(p, lengths2=forward_lengths2(p, pose))
        rounded = solve_dk(p, lengths2=forward_lengths2(p, pose.scaled(1.0)))
        assert len(exact.solutions) == 1
        assert self._near(rounded, exact)

    @pytest.mark.parametrize("draw", [1, 2])
    @pytest.mark.parametrize("interleaved", [True, False],
                             ids=["criterion-05", "consecutive"])
    def test_axis_aligned_pose(self, rng, draw, interleaved):
        # the platform direction is a coordinate axis; the 2nd and 3rd
        # members come from criterion 05's rng, drawn as criterion 05 draws
        # them (one pose between members) or one after another
        for _ in range(draw + 1):
            p = random_member(rng)
            if interleaved:
                random_study(rng)
        pose = pose_params((0, 1, 0), (F(1, 2), F(-2, 3), F(5, 4)))
        out = solve_dk(p, lengths2=forward_lengths2(p, pose))
        assert out.degree == 8
        assert recovers(out, pose.coords())

    @pytest.mark.parametrize("draw", [1, 2])
    @pytest.mark.parametrize("interleaved", [True, False],
                             ids=["criterion-05", "consecutive"])
    def test_axis_aligned_pose_float_lengths(self, rng, draw, interleaved):
        # the same poses with float-rounded lengths
        for _ in range(draw + 1):
            p = random_member(rng)
            if interleaved:
                random_study(rng)
        pose = pose_params((0, 1, 0), (F(1, 2), F(-2, 3), F(5, 4)))
        out = solve_dk(p, lengths2=forward_lengths2(p, pose.scaled(1.0)))
        assert out.degree == 8
        assert recovers(out, pose.coords())

    @pytest.mark.parametrize("count", [4, 6])
    @pytest.mark.parametrize("keyword", ["lengths", "lengths2"])
    def test_leg_length_count(self, type1_reference_pentapod, keyword,
                              count):
        with pytest.raises(DirkinError, match="need 5 leg lengths"):
            solve_dk(type1_reference_pentapod,
                     **{keyword: [2, 1, 5, 3, 4, 6][:count]})

    def test_generic_degree_eight(self, rng):
        for _ in range(3):
            p = random_member(rng)
            m = lift_study(random_study(rng))
            out = solve_dk(p, lengths2=forward_lengths2(p, m))
            assert out.degree == 8

    def test_dependent_hyperplanes_rejected(self):
        p = Pentapod(tuple(Leg(a, (F(a), F(2 * a), F(0)))
                           for a in (0, 1, 2, 3, 4)))
        with pytest.raises(DependentConstraintsError):
            solve_dk(p, lengths=[1, 1, 1, 1, 1])

    def test_inconsistent_lengths_empty(self, type1_reference_pentapod):
        # wildly inconsistent radii: polynomial may exist, real set is empty
        out = solve_dk(type1_reference_pentapod,
                       lengths=[100, F(1, 100), 100, F(1, 100), 100])
        assert out.solutions == ()

    def test_planar_mirror_symmetry(self, rng):
        # planar affine-relation designs have mirror-paired real solutions
        p = ar_planar_pentapod()
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert len(out.solutions) % 2 == 0


class TestDegreeStratification:

    def test_full_duporcq_degree_four(self, type1_reference_pentapod):
        out = solve_dk(type1_reference_pentapod, lengths=[2, 1, 5, 3, 4])
        assert out.degree <= 4

    def test_ar_planar_degree_four(self, rng):
        p = ar_planar_pentapod()
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree <= 4

    @pytest.mark.parametrize("kind", [1, 2, 5])
    def test_cylinder_only_degree_six(self, kind):
        p = cylinder_only_pentapod(kind)
        out = solve_dk(p, lengths2=[leg.r2 for leg in p.legs])
        assert out.degree <= 6

    def test_parallel_lines_type5_degree_six(self, rng):
        p = type5_parallel_lines_pentapod()
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree <= 6

    def test_ideal_vertex_degree_six(self, rng):
        p = ideal_vertex_pentapod()
        m = lift_study(random_study(rng))
        out = solve_dk(p, lengths2=forward_lengths2(p, m))
        assert out.degree <= 6

    def test_bond_factor_length_invariance(self, rng):
        # the elimination degree deficit caused by bonds persists for every
        # length set
        p = cylinder_only_pentapod(1)
        for _ in range(3):
            m = lift_study(random_study(rng))
            out = solve_dk(p, lengths2=forward_lengths2(p, m))
            assert out.degree <= 6


class TestMaxReal:

    def test_reference_four(self, type1_reference_pentapod):
        assert max_real_solutions(type1_reference_pentapod) == 4

    def test_ar_planar_four(self):
        assert max_real_solutions(ar_planar_pentapod()) == 4

    @pytest.mark.parametrize("kind", [1, 2, 5])
    def test_cylinder_only_six(self, kind):
        assert max_real_solutions(cylinder_only_pentapod(kind)) == 6

    def test_parallel_lines_six(self):
        assert max_real_solutions(type5_parallel_lines_pentapod()) == 6

    def test_ideal_vertex_six(self):
        assert max_real_solutions(ideal_vertex_pentapod()) == 6

    def test_finite_vertex_eight(self):
        assert max_real_solutions(finite_vertex_pentapod()) == 8

    def test_generic_eight(self, rng):
        assert max_real_solutions(random_member(rng)) == 8

    def test_arch_singular_rejected(self):
        p = Pentapod(tuple(Leg(a, (F(a), F(2 * a), F(0)))
                           for a in (0, 1, 2, 3, 4)))
        with pytest.raises(ArchSingularInputError):
            max_real_solutions(p)

    def test_degree_never_exceeds_bound(self, rng, type1_reference_pentapod):
        for p in (type1_reference_pentapod, cylinder_only_pentapod(1),
                  ar_planar_pentapod()):
            bound = max_real_solutions(p)
            m = lift_study(random_study(rng))
            out = solve_dk(p, lengths2=forward_lengths2(p, m))
            assert out.degree <= bound


def _anchor_points(out, p):
    """Per real pose of `out`, the displaced anchor points -a x - y of the
    legs of `p`, in leg order."""
    return [[tuple(-to_float(leg.a) * x - y
                   for x, y in zip(s.params.x(), s.params.y()))
             for leg in p.legs] for s in out.solutions]


class TestInvariance:
    """DK answers do not depend on the labels of the legs, on the frame of
    the base or on the origin of the platform line: the eliminant degree
    and the real count are unchanged, and each pose's displaced anchor
    points, mapped through the transform, are a pose of the transformed
    pentapod."""

    ORDER = (2, 0, 4, 1, 3)

    @pytest.mark.parametrize("design", [
        "generic-0", "generic-1", "generic-2", "generic-3", "planar-0",
        "planar-1", "type1-reference"])
    def test_poses_follow_the_transform(self, design,
                                        type1_reference_pentapod):
        rng = random.Random(f"dk-invariance-{design}")
        if design == "type1-reference":
            p = type1_reference_pentapod
        else:
            p = random_member(rng, planar=design.startswith("planar"))
        lengths2 = forward_lengths2(p, lift_study(random_study(rng)))
        out = solve_dk(p, lengths2=lengths2)
        assert out.solutions
        want = _anchor_points(out, p)
        order = self.ORDER
        for q, ls, image in (
                (relabelled(p, order), [lengths2[i] for i in order],
                 lambda pts: [pts[i] for i in order]),
                (moved(p), lengths2, lambda pts: list(map(moved_point, pts))),
                (platform_shifted(p), lengths2, lambda pts: pts)):
            got = solve_dk(q, lengths2=ls)
            assert (got.degree, len(got.solutions)) == (
                out.degree, len(out.solutions))
            poses = _anchor_points(got, q)
            for pts in map(image, want):
                scale = 1 + max(abs(c) for P in pts for c in P)
                assert any(max(abs(a - b) for P, Q in zip(pts, other)
                               for a, b in zip(P, Q)) <= 1e-9 * scale
                           for other in poses)


def test_self_motion_collapses_in_one_elimination(monkeypatch,
                                                  type1_reference_pentapod):
    # at its own leg lengths the Type 1 reference pentapod moves: every
    # pairwise resultant vanishes, and one elimination says so
    calls, first_resultants = [], dirkin.first_resultants

    def spy(quads):
        calls.append(quads)
        return first_resultants(quads)

    monkeypatch.setattr(dirkin, "first_resultants", spy)
    with pytest.raises(DirkinError, match="elimination collapsed"):
        solve_dk(type1_reference_pentapod)
    assert len(calls) == 1
