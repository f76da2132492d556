import math
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pentakin.polyalg import (GaussRat, PolyalgError, _rounded_root, exactify,
                              mat_det, mat_rank, mat_solve, numeric_rank,
                              real_roots, resultant)

x, b, c = sp.symbols("x b c")

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=16)


class TestGaussRat:

    def test_field_ops(self):
        z = GaussRat(1, 2)
        w = GaussRat(3, -1)
        assert z * w == GaussRat(5, 5)
        assert (z * w) / w == z
        assert z - z == GaussRat(0)
        assert z.conjugate() == GaussRat(1, -2)
        assert z.abs2() == F(5)

    @given(st.tuples(fracs, fracs), st.tuples(fracs, fracs))
    @settings(max_examples=50)
    def test_division_inverts_multiplication(self, zw, vw):
        z = GaussRat(*zw)
        v = GaussRat(*vw)
        if v:
            assert (z * v) / v == z

    def test_exactify(self):
        assert exactify(0.5) == F(1, 2)
        assert exactify("3/7") == F(3, 7)
        assert exactify(complex(0, 1)) == GaussRat(0, 1)
        assert exactify(sp.Rational(2, 3) + sp.I) == GaussRat(F(2, 3), F(1))
        with pytest.raises(PolyalgError):
            exactify(float("nan"))


class TestResultant:

    def test_linear_pair(self):
        assert sp.expand(resultant(x - b, x - c, x) - (c - b)) == 0 or \
            sp.expand(resultant(x - b, x - c, x) - (b - c)) == 0

    def test_evaluation_at_root(self):
        # res_x(x^2 - 1, x - 2) = value of x^2 - 1 at 2
        assert resultant(x ** 2 - 1, x - 2, x) == 3

    def test_zero_input_rejected(self):
        with pytest.raises(PolyalgError):
            resultant(sp.Integer(0), x - 1, x)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=3),
           st.lists(st.integers(-4, 4), min_size=2, max_size=3))
    @settings(max_examples=40)
    def test_product_of_root_differences(self, rs, ss):
        # res(p, q) = lc(p)^deg q * lc(q)^deg p * prod (r_i - s_j) for monic
        # factored inputs built from the given roots
        p = sp.prod([x - r for r in rs])
        q = sp.prod([x - s for s in ss])
        expected = sp.prod([sp.Integer(r - s) for r in rs for s in ss])
        assert resultant(p, q, x) == expected


class TestRealRoots:

    def test_simple_pair(self):
        assert real_roots(sp.Poly(x ** 2 - 1, x)) == [(-1.0, 1), (1.0, 1)]

    def test_double_root(self):
        assert real_roots(sp.Poly((x - 2) ** 2, x)) == [(2.0, 2)]

    def test_no_real_roots(self):
        assert real_roots(sp.Poly(x ** 2 + 1, x)) == []

    def test_float_coefficients(self):
        roots = real_roots(sp.Poly([1.0, 0.0, -2.0], x))
        assert len(roots) == 2
        assert math.isclose(roots[1][0], math.sqrt(2), rel_tol=1e-9)

    def test_residual_bound(self):
        p = sp.Poly([3, -2, -7, 1, 5], x)
        coeffs = [float(cf) for cf in p.all_coeffs()]
        scale = 1 + max(abs(cf) for cf in coeffs)
        for r, _ in real_roots(p):
            val = sum(cf * r ** k for k, cf in enumerate(reversed(coeffs)))
            assert abs(val) < 1e-10 * scale

    def test_isolation_gap(self):
        p = sp.Poly((x - 1) * (x - F(10001, 10000)) * (x + 3), x)
        roots = real_roots(p)
        assert len(roots) == 3
        vals = [r for r, _ in roots]
        assert all(vals[i] < vals[i + 1] for i in range(2))

    def test_zero_poly_rejected(self):
        with pytest.raises(PolyalgError):
            real_roots(sp.Poly(0, x))

    def test_reference_quartic_root_count(self):
        # exact isolation count, cross-checked against the companion matrix:
        # two real roots (the other pair is complex near 2.023 +- 0.047i)
        q = sp.Poly([76425120000, -291209472000, 241133479200,
                     69486876480, 4316636297], x)
        roots = real_roots(q)
        assert len(roots) == 2
        assert all(m == 1 for _, m in roots)
        import numpy as np
        npr = np.roots([float(c) for c in q.all_coeffs()])
        assert sum(1 for r in npr if abs(r.imag) < 1e-12) == 2

    def test_matches_crootof_refinement(self):
        # the correctly rounded float of each real root, with the
        # multiplicities of sympy's CRootOf isolation and its 30-digit
        # evalf; roots that round to one float are merged
        for poly in _root_corpus():
            assert real_roots(poly) == _crootof_roots(poly), poly

    def test_interval_end_is_a_root(self):
        # Poly.intervals gives (-1, -1/2) next to the exact root -1
        p = sp.Poly(x * (x + 1) * (5 * x ** 2 + 5 * x + 1), x)
        assert ((-1, -1), 1) in p.intervals()
        assert real_roots(p) == [(-1.0, 1), ((-5 - math.sqrt(5)) / 10, 1),
                                 ((-5 + math.sqrt(5)) / 10, 1), (0.0, 1)]

    def test_halfway_root_rounds_to_even(self):
        # 1 + 2**-53 lies halfway between 1 and the next float; bisection
        # from a wide interval must find it exactly, not stop on a side
        q = [2 ** 53, -(2 ** 53 + 1)]
        assert _rounded_root(q, [2 ** 53], F(0), F(2)) == 1.0
        q = [2 ** 53, -(2 ** 53 + 3)]         # 1 + 3 * 2**-53 rounds up
        assert _rounded_root(q, [2 ** 53], F(0), F(2)) == 1 + 2 * 2 ** -52


def _root_corpus():
    """Exact polynomials for the root-isolation tests: seeded products of
    small factors with repeated factors and rational roots, plus fixed
    cases for interval ends that are roots, clustered roots and
    coefficients above 2**1100."""
    fixed = [
        x * (x + 1) * (5 * x ** 2 + 5 * x + 1),
        (x - 2) ** 2 * (x ** 2 - 2),
        (2 * x - 1) ** 3 * (x ** 2 - 3) * (3 * x + 7),
        (x ** 2 - 2) * (x ** 2 - 2 - F(1, 2 ** 60)),
        (x - F(1, 3)) * (x - F(1, 3) - F(1, 10 ** 12)) * (x - F(1, 3) +
                                                          F(1, 10 ** 12)),
        (10 ** 6 * x ** 2 - 1) * (x ** 3 - 2),
        (2 ** 1200 * x - 3) * (x ** 2 - 5) * (x + 2 ** 40),
        2 ** 1150 * (x ** 3 - 3 * x + 1) * (7 * x - 9) ** 2,
        x ** 2 - F(1, 2 ** 1100),
    ]
    rng = random.Random(7)
    out = [sp.Poly(e, x) for e in fixed]
    while len(out) < 60:
        e = rng.choice([1, 2 ** 1150, F(1, 7)])
        for _ in range(rng.randint(1, 4)):
            f = sum(rng.randint(-9, 9) * x ** k
                    for k in range(rng.randint(2, 4)))
            e *= f ** rng.randint(1, 3)
        poly = sp.Poly(e, x)
        if poly.degree() > 0:
            out.append(poly)
    return out


def _crootof_roots(poly):
    out = []
    for fct, mult in poly.factor_list()[1]:
        for k in range(sp.Poly(fct).count_roots()):
            out.append((float(sp.CRootOf(fct, k).evalf(30)), mult))
    merged = []
    for r, mult in sorted(out):
        if merged and r == merged[-1][0]:
            merged[-1] = (r, merged[-1][1] + mult)
        else:
            merged.append((r, mult))
    return merged


class TestNumericRank:

    def test_identity(self):
        eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        assert numeric_rank(eye) == 3

    def test_repeated_rows(self):
        m = [[F(1), F(2), F(3)] for _ in range(4)]
        assert numeric_rank(m) == 1

    def test_float_svd_path(self):
        m = [[1.0, 2.0], [2.0, 4.0 + 1e-13]]
        assert numeric_rank(m, tol=1e-9) == 1

    def test_empty_rejected(self):
        with pytest.raises(PolyalgError):
            numeric_rank([])

    @given(st.lists(st.lists(fracs, min_size=3, max_size=3),
                    min_size=3, max_size=5))
    @settings(max_examples=30)
    def test_agrees_with_exact_rank(self, rows):
        m = [[F(v) for v in row] for row in rows]
        mf = [[float(v) for v in row] for row in rows]
        assert numeric_rank(m) == numeric_rank(mf, tol=1e-9)


class TestExactLinalg:

    def test_det_3x3(self):
        m = [[F(2), F(0), F(1)], [F(1), F(3), F(0)], [F(0), F(1), F(1)]]
        assert mat_det(m) == F(7)

    def test_det_gaussian_entries(self):
        i = GaussRat(0, 1)
        m = [[i, GaussRat(1)], [GaussRat(1), i]]
        assert mat_det(m) == GaussRat(-2)

    def test_solve_roundtrip(self):
        A = [[F(2), F(1)], [F(1), F(3)]]
        sol = mat_solve(A, [F(5), F(10)])
        assert [sum(A[i][j] * sol[j] for j in range(2)) for i in range(2)] \
            == [F(5), F(10)]

    def test_rank(self):
        m = [[F(1), F(2)], [F(2), F(4)], [F(1), F(1)]]
        assert mat_rank(m) == 2
