from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentakin.kinmap import (BoundaryPointError, ConstraintHyperplane,
                             KinmapError, Leg, MotionParams, Pentapod,
                             StudyParams, angle_condition,
                             constraint_hyperplane, darboux_condition,
                             displacement, gamma_residuals, lift_study,
                             mannheim_condition, phi_residuals,
                             rotation_matrix, sphere_condition,
                             translation_vector)
from pentakin.polyalg import GaussRat

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def study_points(draw_e, draw_f):
    """Strategy for exact rational Study-quadric points."""
    @st.composite
    def _sp(draw):
        e = [draw(draw_e) for _ in range(4)]
        if all(v == 0 for v in e):
            e[0] = F(1)
        f = [draw(draw_f) for _ in range(4)]
        k = next(i for i, v in enumerate(e) if v != 0)
        f[k] = -sum(e[i] * f[i] for i in range(4) if i != k) / e[k]
        return StudyParams(*e, *f)
    return _sp()


class TestLift:

    def test_identity(self):
        m = lift_study(StudyParams(F(1), 0, 0, 0, 0, 0, 0, 0))
        assert m.coords() == (0, 2, -2, 0, 0, 0, 0, 0, 0)

    def test_half_turn_about_z(self):
        m = lift_study(StudyParams(0, 0, 0, F(1), 0, 0, 0, 0))
        assert (m.x0, m.x1, m.x2, m.x3) == (2, 2, 0, 0)
        assert displacement(m, F(5)) == (-5, 0, 0)

    def test_pure_translation(self):
        f1, f2, f3 = F(1, 2), F(2), F(-3)
        m = lift_study(StudyParams(F(1), 0, 0, 0, 0, f1, f2, f3))
        assert (m.y1, m.y2, m.y3) == (4 * f1, 4 * f2, 4 * f3)
        assert m.n0 == f1 * f1 + f2 * f2 + f3 * f3
        assert (m.x0, m.x1, m.x2, m.x3) == (2, -2, 0, 0)
        a = F(7)
        assert displacement(m, a) == (a - 2 * f1, -2 * f2, -2 * f3)

    def test_zero_rotation_rejected(self):
        with pytest.raises(KinmapError):
            lift_study(StudyParams(0, 0, 0, 0, F(1), 0, 0, 0))

    def test_quadric_violation_rejected(self):
        with pytest.raises(KinmapError):
            lift_study(StudyParams(F(1), 0, 0, 0, F(1), 0, 0, 0))

    @given(study_points(fracs, fracs), fracs)
    @settings(max_examples=60)
    def test_displacement_matches_rotation_translation(self, s, a):
        m = lift_study(s)
        en = s.e_norm2()
        R = rotation_matrix(s)
        t = translation_vector(s)
        expected = tuple((R[i][0] * a + t[i]) / en for i in range(3))
        assert displacement(m, a) == expected

    @given(study_points(fracs, fracs))
    @settings(max_examples=60)
    def test_phi_residuals_vanish_on_lift(self, s):
        assert phi_residuals(lift_study(s)) == (0, 0, 0)

    def test_identity_on_boundary_rejected(self):
        m = MotionParams(0, 0, GaussRat(0, 1), 1, 0, 0, 0, 0, 0)
        with pytest.raises(BoundaryPointError):
            displacement(m, F(1))


class TestResiduals:

    def test_phi_examples(self):
        assert phi_residuals(MotionParams(0, 1, 1, 0, 0, 0, 0, 0, 0)) == (0, 0, 0)
        assert phi_residuals(MotionParams(0, 1, 0, 0, 0, 0, 0, 0, 0)) == (-1, 0, 0)

    def test_gamma_bond_pattern(self):
        # x = (i, 1, 0), y = (-i*conj(a2), -conj(a2), 0) solves all six:
        # the bond pattern with the conjugate ideal direction scaled by
        # conj(a2)
        i = GaussRat(0, 1)
        for a2 in (GaussRat(0, 1), GaussRat(2, -3)):
            ac = a2.conjugate()
            m = MotionParams(0, 0, i, GaussRat(1), GaussRat(0),
                             GaussRat(1), -i * ac, -ac, GaussRat(0))
            assert all(not g for g in gamma_residuals(m))

    def test_gamma_nonzero(self):
        m = MotionParams(0, 0, 1, 0, 0, 0, F(0), 0, 1)
        g = gamma_residuals(m)
        assert g[0] == 1

    def test_gamma_isotropic_direction(self):
        m = MotionParams(0, 0, GaussRat(1), GaussRat(0, 1), GaussRat(0),
                         GaussRat(1), 0, 0, 0)
        g = gamma_residuals(m)
        assert g[0] == GaussRat(0)


class TestConstraints:

    def test_sphere_origin_leg(self):
        hp = sphere_condition(Leg(0, (0, 0, 0), F(4)))
        assert hp.coeffs == (4, -2, 0, 0, 0, 0, 0, 0, 0)

    def test_sphere_derived_leg(self):
        hp = sphere_condition(Leg(1, (0, 1, -1), F(1)))
        assert hp.coeffs == (4, 1, 0, 1, -1, 1, 0, 1, -1)

    def test_sphere_linear_equals_study_quadratic(self):
        # the linear form at the lift equals the Study-parameter quadratic
        s = StudyParams(F(1), F(2), F(-1), F(1, 2), F(1), F(0), F(1), F(0))
        leg = Leg(F(3), (F(1), F(-2), F(2)), F(7))
        m = lift_study(s)
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

    def test_sphere_boundary_independent_of_length(self):
        # at x0 = 0 the sphere row does not see the leg length
        m = MotionParams(F(1), F(0), F(1), F(2), F(3), F(1), F(0), F(1), F(2))
        v1 = sphere_condition(Leg(1, (2, 3, 4), F(1))).evaluate(m)
        v2 = sphere_condition(Leg(1, (2, 3, 4), F(100))).evaluate(m)
        assert v1 == v2

    def test_darboux_canonical_display(self):
        # scaled unit direction reproduces the canonical unnormalized row
        A4, B4 = F(3), F(4)  # |(3,4,something)| handled by scaling
        u_raw = (A4, B4, F(1))
        n2 = sum(c * c for c in u_raw)
        # use the exact rational unit direction (3/13, 4/13, 12/13) instead
        u = (F(3, 13), F(4, 13), F(12, 13))
        a4, p = F(2), F(5)
        hp = darboux_condition(a4, u, p)
        assert hp.coeffs == (0, p, a4 * u[0], a4 * u[1], a4 * u[2],
                             0, u[0], u[1], u[2])
        # scaling by 13/12 gives the canonical pattern with third slot a4
        lam = F(13, 12)
        scaled = tuple(c * lam for c in hp.coeffs)
        A4c, B4c = F(3, 12), F(4, 12)
        assert scaled == (0, p * lam, a4 * A4c, a4 * B4c, a4,
                          0, A4c, B4c, 1)

    def test_darboux_non_unit_rejected(self):
        with pytest.raises(KinmapError):
            darboux_condition(F(1), (F(1), F(1), F(0)), F(0))

    def test_mannheim_row(self):
        hp = mannheim_condition((F(1), F(2), F(3)), F(5))
        assert hp.coeffs == (0, 5, 1, 2, 3, 1, 0, 0, 0)

    def test_angle_row(self):
        hp = angle_condition((F(1), F(0), F(0)), F(1, 2))
        assert hp.coeffs == (0, F(1, 2), 1, 0, 0, 0, 0, 0, 0)

    def test_constraint_hyperplane_sphere(self):
        hp = constraint_hyperplane("sphere", a=0, base=(0, 0, 0), r2=4)
        assert hp == constraint_hyperplane("sphere", a=0, base=(0, 0, 0), r=2)
        assert hp == sphere_condition(Leg(0, (0, 0, 0), F(4)))
        for r2 in (0, -1):
            with pytest.raises(KinmapError):
                constraint_hyperplane("sphere", a=0, base=(0, 0, 0), r2=r2)

    def test_hyperplane_validation(self):
        with pytest.raises(KinmapError):
            ConstraintHyperplane("sphere", (1, 0, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(KinmapError):
            ConstraintHyperplane("darboux", (1, 0, 1, 0, 0, 0, 1, 0, 0))


class TestPentapod:

    def test_coincident_legs_rejected(self):
        with pytest.raises(KinmapError):
            Pentapod(tuple(Leg(0, (0, 0, 0)) for _ in range(5)))

    def test_planarity(self):
        p = Pentapod(tuple(Leg(k, (k, k * k, 0)) for k in range(5)))
        assert p.is_base_planar()
        q = Pentapod(tuple(Leg(k, (k, k * k, k ** 3)) for k in range(5)))
        assert not q.is_base_planar()

    def test_nonpositive_length_rejected(self):
        with pytest.raises(KinmapError):
            Leg(0, (1, 1, 1), F(-1))
