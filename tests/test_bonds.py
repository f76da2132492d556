import random
from fractions import Fraction as F

import pytest

from conftest import random_member
import helpers
from helpers import (ar_planar_pentapod, cylinder_only_constraints,
                     cylinder_only_pentapod, finite_vertex_pentapod,
                     ideal_vertex_pentapod, moved, platform_shifted,
                     relabelled, type3_pentapod, type4_pentapod,
                     type5_parallel_lines_pentapod)
from pentakin.bonds import (Bond, BondError, DependentConstraintsError,
                            constraints_of, find_bonds, necessity_verdict,
                            tangency_rank)
from pentakin.dirkin import max_real_solutions, solve_dk
from pentakin.geom import mobius_equivalent
from pentakin.kinmap import (ConstraintHyperplane, Leg, MotionParams,
                             Pentapod, gamma_residuals, phi_gradient)
from pentakin.polyalg import GaussRat, numeric_rank

_I = GaussRat(0, 1)


def _proj_key(m: MotionParams):
    vals = [complex(c) for c in m.coords()]
    lead = next(v for v in vals if v)
    return tuple(complex(round((v / lead).real, 8), round((v / lead).imag, 8))
                 for v in vals)


class TestFindBonds:

    def test_reference_bond_pattern(self, type1_reference_pentapod):
        bonds = find_bonds(constraints_of(type1_reference_pentapod))
        assert len(bonds) == 2
        keys = {_proj_key(b.params) for b in bonds}
        # closed form: x = (-conj(B2), 1, A4 conj(B2) - B4) = (i, 1, 0) and
        # y = conj(a2) * (B2bar, -1, 0), y0 = conj(B2) A5 - B5, n0 = 0
        expected = MotionParams(0, 0, _I, GaussRat(1), GaussRat(0),
                                GaussRat(-1, -1), GaussRat(-1), _I,
                                GaussRat(0))
        assert _proj_key(expected) in keys
        for b in bonds:
            assert b.exact
            assert b.multiplicity >= 2

    def test_conjugate_closure(self, type1_reference_pentapod):
        bonds = find_bonds(constraints_of(type1_reference_pentapod))
        for i, b in enumerate(bonds):
            assert b.conjugate_index is not None
            other = bonds[b.conjugate_index]
            assert _proj_key(other.params) == _proj_key(b.params.conjugate())

    def test_length_invariance(self, rng, type1_reference_pentapod):
        base = find_bonds(constraints_of(type1_reference_pentapod))
        ref_keys = sorted(map(str, (_proj_key(b.params) for b in base)))
        for _ in range(10):
            lengths2 = [F(rng.randint(1, 30)) for _ in range(5)]
            p = type1_reference_pentapod.with_lengths2(lengths2)
            bonds = find_bonds([c for c in constraints_of(p)])
            keys = sorted(map(str, (_proj_key(b.params) for b in bonds)))
            assert keys == ref_keys

    def test_bond_residuals_exact_zero(self, type1_reference_pentapod):
        cons = constraints_of(type1_reference_pentapod)
        for b in find_bonds(cons):
            assert all(not g for g in gamma_residuals(b.params))
            assert all(not hp.evaluate(b.params) for hp in cons)

    def test_generic_planar_no_bond(self):
        assert find_bonds(constraints_of(finite_vertex_pentapod())) == []

    def test_planar_bond_iff_ideal_vertex(self):
        assert find_bonds(constraints_of(ideal_vertex_pentapod()))
        assert not find_bonds(constraints_of(finite_vertex_pentapod()))

    def test_type3_empty(self):
        assert find_bonds(constraints_of(type3_pentapod())) == []

    def test_type4_empty(self):
        assert find_bonds(constraints_of(type4_pentapod())) == []

    def test_dependent_constraints_rejected(self):
        hp = ConstraintHyperplane("mannheim", (0, 1, 2, 3, 4, 1, 0, 0, 0))
        with pytest.raises(DependentConstraintsError):
            find_bonds([hp] * 5)

    def test_random_members_bondless(self, rng):
        for _ in range(8):
            assert find_bonds(constraints_of(random_member(rng))) == []


class TestConicSystem:
    """The exact kernel of find_bonds: boundary conics, their exact roots in
    QQ(i), the numeric path for the other roots, and the comparison of the
    bond sets of two pivot choices."""

    def test_boundary_conics_match_expanded_quadrics(self):
        import sympy as sp
        from pentakin.bonds import _FREE_SYMS, _MONOMIALS, _boundary_conics
        from pentakin.polyalg import exactify, to_sympy
        from pentakin.reduced import first_reduction
        for cons in (constraints_of(type5_parallel_lines_pentapod()),
                     cylinder_only_constraints(1)):
            rows = [[exactify(c) for c in hp.coeffs] for hp in cons]
            red = first_reduction(rows)
            coords = [sp.Add(*(to_sympy(t) * s
                               for t, s in zip(row[1:], _FREE_SYMS)))
                      for row in red.T]
            for q, g in zip(_boundary_conics(red.T), gamma_residuals(coords)):
                poly = sp.Poly(sp.expand(g), *_FREE_SYMS)
                assert [to_sympy(c) for c in q] == [
                    poly.coeff_monomial(mono) for mono in _MONOMIALS]

    def test_small_roots_exact_in_gaussian_field(self):
        from pentakin.bonds import _small_roots
        assert _small_roots([F(1), F(0), F(4)]) == [GaussRat(0, -2),
                                                    GaussRat(0, 2)]
        # (w - 1 - 2i)(w + 3) = w^2 + (2 - 2i) w - 3 - 6i
        assert set(_small_roots([F(1), GaussRat(2, -2), GaussRat(-3, -6)])) \
            == {GaussRat(1, 2), F(-3)}
        assert _small_roots([F(2), F(-4), F(2)]) == [F(1)]   # double root
        assert _small_roots([F(3), F(-1)]) == [F(1, 3)]
        assert _small_roots([F(1), F(0), F(-2)]) is None     # sqrt 2
        assert _small_roots([F(1), F(0), _I]) is None        # sqrt i
        assert _small_roots([F(1), F(0), F(0), F(1)]) is None

    def test_irrational_bonds_numeric(self):
        # u^2 = 2 v^2, w^2 = 2 v^2, u w = 2 v^2: (+-sqrt 2 : 1 : +-sqrt 2)
        from pentakin.bonds import _solve_conic_system
        conics = [(F(1), 0, F(-2), 0, 0, 0), (0, 0, F(-2), 0, 0, F(1)),
                  (0, 0, F(-2), F(1), 0, 0)]
        sols = _solve_conic_system(conics, 1e-9)
        assert len(sols) == 2
        r = 2 ** 0.5
        for (u, v, w), mult in sols:
            assert mult == 1 and v == 1
            assert abs(abs(u) - r) < 1e-14 and abs(u - w) < 1e-14

    def test_degenerate_systems_rejected(self):
        from pentakin.bonds import (DegenerateBondSystemError,
                                    _solve_conic_system)
        one = F(1)
        for conics, reason in (
                ([(one, 0, one, 0, 0, one), (2, 0, 2, 0, 0, 2)], "a conic"),
                ([(0, one, 0, 0, 0, 0), (0, 0, 0, one, 0, 0)], "a whole line"),
                ([(0, 0, 0, one, 0, 0), (0, 0, 0, 0, one, 0)],
                 "common component")):
            with pytest.raises(DegenerateBondSystemError, match=reason):
                _solve_conic_system(conics, 1e-9)

    def test_same_bonds(self):
        from pentakin.bonds import _same_bonds
        one = MotionParams(0, 0, F(1), _I, 0, GaussRat(-1, -1), F(-1), _I, 0)
        two = MotionParams(0, 0, F(1), -_I, 0, GaussRat(-1, 1), F(-1), -_I, 0)
        exact = [(one, 1, True), (two, 1, True)]
        assert _same_bonds(exact, exact[::-1])
        assert not _same_bonds(exact, exact[:1])
        assert not _same_bonds(exact, [(one, 1, True), (one, 1, True)])

        def numeric(scale, shift):
            return [(MotionParams(*[scale * complex(c) + shift
                                    for c in m.coords()]), 1, False)
                    for m, _, _ in exact]

        # a numeric list matches up to rounding at any scale, not beyond
        assert _same_bonds(exact, numeric(1e6 * (1 + 1e-13), 0)[::-1])
        assert not _same_bonds(exact, numeric(1, 1e-3))


class TestTangencyRank:

    def test_reference_rank_seven(self, type1_reference_pentapod):
        cons = constraints_of(type1_reference_pentapod)
        for b in find_bonds(cons):
            assert tangency_rank(cons, b) == 7

    def test_cylinder_only_rank_eight(self):
        for kind in (1, 2, 5):
            cons = cylinder_only_constraints(kind)
            bonds = find_bonds(cons)
            assert bonds
            assert all(tangency_rank(cons, b) == 8 for b in bonds)

    def test_ar_bond_is_singular_variety_point(self):
        p = ar_planar_pentapod()
        cons = constraints_of(p)
        bonds = find_bonds(cons)
        assert bonds
        for b in bonds:
            assert numeric_rank(phi_gradient(b.params)) < 3
            assert tangency_rank(cons, b) < 8

    def test_non_bond_rejected(self, type1_reference_pentapod):
        cons = constraints_of(type1_reference_pentapod)
        fake = Bond(MotionParams(0, 0, 1, 0, 0, 0, 0, 0, 0))
        with pytest.raises(BondError):
            tangency_rank(cons, fake)


class TestNecessityVerdict:

    def test_reference(self, type1_reference_pentapod):
        v = necessity_verdict(type1_reference_pentapod)
        assert v.has_bond and v.tangency_rank_deficient
        assert v.jacobian_rank == 7
        assert all(b.multiplicity >= 2 for b in v.bonds)

    def test_simple_bonds(self):
        # full tangency rank: every bond is simple, also where a boundary
        # conic does not involve the coordinate that the resultant removes
        for p in (cylinder_only_pentapod(5), type5_parallel_lines_pentapod(),
                  ideal_vertex_pentapod()):
            v = necessity_verdict(p)
            assert v.has_bond and v.jacobian_rank == 8
            assert all(b.multiplicity == 1 for b in v.bonds)

    def test_perturbed_reference_loses_bond(self, type1_reference_pentapod):
        # breaking the concyclicity of the projections kills the bond
        legs = list(type1_reference_pentapod.legs)
        a, (A, B, C) = legs[2].a, legs[2].base
        legs[2] = Leg(a, (A + F(1, 10), B, C), legs[2].r2)
        v = necessity_verdict(Pentapod(tuple(legs)))
        assert not v.has_bond

    def test_type4_no_self_motion(self):
        v = necessity_verdict(type4_pentapod())
        assert not v.has_bond

    def test_first_condition_matches_mobius_equivalence(self):
        # canonical first-condition system: platform points and projected
        # ideal/base data are Moebius equivalent exactly when a bond exists
        cons = cylinder_only_constraints(1)
        assert find_bonds(cons)
        # perturb the conjugate Darboux pair direction: B2 off the closed form
        bad = GaussRat(F(4, 5), F(2, 5))
        a2 = GaussRat(1, 2)
        p2 = GaussRat(F(1, 3), F(1, 5))
        om2 = ConstraintHyperplane(
            "darboux", (0, p2, a2, a2 * bad.conjugate(), 0, 0,
                        GaussRat(1), bad.conjugate(), 0))
        cons_bad = [cons[0], om2, om2.conjugate(), cons[3], cons[4]]
        assert not find_bonds(cons_bad)


class TestMobiusCrossCheck:

    def test_reference_projections_mobius_equivalent(
            self, type1_reference_pentapod):
        # project the base points along the real ideal direction (z-axis in
        # the reference frame); the result must correspond to the platform
        # points under a Moebius map, matching the bond existence
        p = type1_reference_pentapod
        plat = [GaussRat(leg.a) for leg in p.legs[:4]]
        proj = [GaussRat(leg.base[0], leg.base[1]) for leg in p.legs[:4]]
        assert mobius_equivalent(plat, proj)

    def test_perturbed_projections_not_equivalent(
            self, type1_reference_pentapod):
        p = type1_reference_pentapod
        plat = [GaussRat(leg.a) for leg in p.legs[:4]]
        proj = [GaussRat(leg.base[0], leg.base[1]) for leg in p.legs[:4]]
        proj[3] = proj[3] + GaussRat(F(1, 7))
        assert not mobius_equivalent(plat, proj)

    def test_reference_projections_concyclic(self, type1_reference_pentapod):
        # base points projected along the real ideal direction of the locus
        # (the z-axis in this frame) land on one circle
        from pentakin.geom import concyclic
        pts = [(leg.base[0], leg.base[1])
               for leg in type1_reference_pentapod.legs]
        assert concyclic(pts).concyclic
        # and breaking one projection breaks the circle
        pts[4] = (pts[4][0] + F(1, 9), pts[4][1])
        assert not concyclic(pts).concyclic


_DESIGNS = ("ar_planar_pentapod", "congruent_projection_pentapod",
            "stretched_fiber_pentapod", "ideal_vertex_pentapod",
            "finite_vertex_pentapod", "type3_pentapod", "type4_pentapod",
            "type5_parallel_lines_pentapod", "three_real_darboux_pentapod",
            "cylinder1", "cylinder2", "cylinder5", "type1-reference")
# seeded random members of the working class, generic and planar
_MEMBERS = ("generic-0", "generic-1", "generic-2", "planar-0", "planar-1",
            "planar-2")


class TestInvariance:
    """Bonds do not depend on the labels of the legs, on the frame of the
    base or on the origin of the platform line."""

    @staticmethod
    def _answer(p):
        v = necessity_verdict(p)
        return (sorted((b.multiplicity, b.exact) for b in v.bonds),
                v.jacobian_rank, max_real_solutions(p))

    @pytest.mark.parametrize("name", _DESIGNS + _MEMBERS)
    def test_bond_answers(self, name, type1_reference_pentapod):
        if name == "type1-reference":
            p = type1_reference_pentapod
        elif name.startswith("cylinder"):
            p = cylinder_only_pentapod(int(name[-1]))
        elif name in _MEMBERS:
            p = random_member(random.Random(f"bond-invariance-{name}"),
                              planar=name.startswith("planar"))
        else:
            p = getattr(helpers, name)()
        want = self._answer(p)
        for q in (relabelled(p), moved(p), platform_shifted(p)):
            assert self._answer(q) == want

    def test_dk_degree_and_real_count(self, type1_reference_pentapod):
        p, lengths = type1_reference_pentapod, [2, 1, 5, 3, 4]
        order = (2, 0, 4, 1, 3)
        for q, ls in ((p, lengths),
                      (relabelled(p, order), [lengths[i] for i in order]),
                      (moved(p), lengths), (platform_shifted(p), lengths)):
            out = solve_dk(q, lengths=ls)
            assert (out.degree, len(out.solutions)) == (4, 2)
