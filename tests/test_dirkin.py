import random
import warnings
from fractions import Fraction as F

import pytest

from conftest import rand_frac, random_member
from helpers import (ar_planar_pentapod, cylinder_only_pentapod,
                     finite_vertex_pentapod, ideal_vertex_pentapod,
                     type5_parallel_lines_pentapod)
from pentakin.bonds import DependentConstraintsError
from pentakin.dirkin import max_real_solutions, solve_dk
from pentakin.kinmap import (Leg, Pentapod, StudyParams, displacement,
                             lift_study)
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
        assert out.route == "linear-x1"

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
        assert any(max(abs(float(c) - float(e))
                       for c, e in zip(s.params.coords(), pose)) < 1e-9
                   for s in out.solutions)

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
        assert any(max(abs(float(c) - float(e))
                       for c, e in zip(s.params.coords(), pose)) < 1e-9
                   for s in out.solutions)

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
        assert any(max(abs(float(c) - float(e))
                       for c, e in zip(s.params.coords(), pose)) < 1e-9
                   for s in out.solutions)

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
        target = [to_float(c) for c in m.normalized().coords()]
        assert any(max(abs(float(c) - t)
                       for c, t in zip(s.params.coords(), target)) < 1e-9
                   for s in out.solutions)

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
