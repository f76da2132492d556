import math
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pentakin.polyalg import (GaussRat, PolyalgError, _rounded_root,
                              echelon_solve, exactify, float_image, mat_det,
                              mat_nullspace,
                              mat_rank, mat_solve_general, numeric_rank,
                              poly_resultant, real_roots, resultant, to_sympy)

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

    def test_exactify_sympy_float_is_binary(self):
        # a sympy Float embeds at its exact binary value, as a float does
        assert exactify(sp.Float(0.1)) == exactify(0.1) == F(0.1)
        assert exactify(sp.Float(0.1)) != F(1, 10)
        root2 = 1.4142135623730951
        assert exactify(sp.Float(root2)) == F(root2)
        assert exactify(sp.Float(0.5) + sp.Float(0.1) * sp.I) \
            == GaussRat(F(1, 2), F(0.1))
        with pytest.raises(PolyalgError):
            exactify(sp.sqrt(2))


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


_GENS = sp.symbols("x y z")
_DOMAINS = {"ZZ": sp.ZZ, "QQ": sp.QQ, "ZZ_I": sp.ZZ_I}


@st.composite
def _poly_pairs(draw):
    """Two sp.Poly on one to three generators over ZZ, QQ or ZZ_I, of degree
    0-5 in the first, of equal degree half of the time.  Small coefficients,
    many of them zero, make zero Bareiss pivots common; the leading term
    may involve the other generators, and a drawn common factor makes the
    resultant vanish."""
    dom = draw(st.sampled_from(sorted(_DOMAINS)))
    gens = _GENS[:draw(st.integers(1, 3))]
    rest = st.tuples(*[st.integers(0, 1)] * (len(gens) - 1))

    def coeff():
        c = sp.Integer(draw(st.integers(-2, 2)))
        if dom == "QQ":
            return c / draw(st.integers(1, 3))
        if dom == "ZZ_I":
            return c + sp.I * draw(st.integers(-1, 1))
        return c

    def poly(deg):
        terms = {(draw(st.integers(0, deg)), *draw(rest)): coeff()
                 for _ in range(draw(st.integers(0, 5)))}
        terms[(deg, *draw(rest))] = sp.Integer(draw(st.integers(1, 2)))
        return sp.Poly.from_dict(terms, *gens, domain=_DOMAINS[dom])

    n = draw(st.integers(0, 5))
    m = n if draw(st.booleans()) else draw(st.integers(0, 5))
    P, Q = poly(n), poly(m)
    if len(gens) > 1 and max(n, m) < 5 and draw(st.booleans()):
        h = poly(1)
        P, Q = P * h, Q * h
    return P, Q


def _same_resultant(got, want):
    """Equal value, sign, generators and domain."""
    if not isinstance(want, sp.Poly):
        return type(got) is type(want) and got == want
    return (isinstance(got, sp.Poly) and got.gens == want.gens
            and got.domain == want.domain
            and got.rep.to_list() == want.rep.to_list())


class TestPolyResultant:

    @given(_poly_pairs())
    @settings(max_examples=80, deadline=None)
    def test_equals_subresultant_prs(self, pair):
        P, Q = pair
        assert _same_resultant(poly_resultant(P, Q)[0], P.resultant(Q))

    @given(_poly_pairs())
    @settings(max_examples=80, deadline=None)
    def test_chain_members_are_subresultants(self, pair):
        # S_j is +-sympy's subresultant PRS member of degree j wherever it
        # lists one; for equal degrees the member of top degree is Q
        P, Q = pair
        chain = poly_resultant(P, Q)
        m = min(P.degree(), Q.degree())
        assert len(chain) == max(m, 0) + 1
        if m < 1:
            return
        listed = {S.degree(): S for S in P.subresultants(Q)}
        assert chain[-1] == (P if P.degree() < Q.degree() else Q)
        for j, S in enumerate(chain[1:], 1):
            assert S.gens == P.gens
            if j in listed:
                assert S in (listed[j], -listed[j])

    @pytest.mark.parametrize("P, Q", [
        # non-constant leading coefficients
        (x ** 2 * b + c * x - 1, (b + c) * x ** 2 + 3 * x + c),
        (x ** 5 * b - x ** 2 + 2, 3 * x ** 5 + c * x - 2 * x ** 2 + 4),
        # f1 g0 = f0 g1: a zero Bareiss pivot by increasing powers, none by
        # the decreasing powers in use
        (x ** 3 + c * x ** 2 + x + 1, b * x ** 3 + 2 * x + 2),
        # a common factor: the resultant vanishes; (x - b) zeroes the first
        # pivot too, and with the factor x the last column of the Bezout
        # matrix is zero
        ((x - b) * (x ** 3 + c), (x - b) * (x ** 3 - x * c + 1)),
        (x ** 3 * b + x ** 2 + c * x, x ** 3 + b * x ** 2 + x),
        # unequal degrees and constants go to the PRS
        (x ** 4 + b, x ** 3 * c - 1),
        (b * c + 1 + 0 * x, x ** 2 + b),
    ])
    def test_fixed_cases(self, P, Q):
        P, Q = sp.Poly(P, x, b, c), sp.Poly(Q, x, b, c)
        assert _same_resultant(poly_resultant(P, Q)[0], P.resultant(Q))

    def test_zero_pivot_takes_the_prs(self, monkeypatch):
        # f3 g2 = f2 g3 zeroes the first Bareiss pivot: the PRS answers
        P = sp.Poly(x ** 3 + x ** 2 + c * x + 1, x, b, c)
        Q = sp.Poly(x ** 3 + x ** 2 + b, x, b, c)
        want = P.resultant(Q)
        calls = []
        prs = sp.Poly.resultant
        monkeypatch.setattr(sp.Poly, "resultant",
                            lambda *a, **k: calls.append(1) or prs(*a, **k))
        chain = poly_resultant(P, Q)
        assert calls and _same_resultant(chain[0], want)
        # the PRS lists P, Q, -c x + b - 1 and the resultant: S_2 is
        # defective, so no member stands for it
        S1 = P.subresultants(Q)[2]
        assert S1.degree() == 1
        assert chain[1] == S1 and chain[2].is_zero and chain[3] == Q

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bezout_sign(self, n):
        # Res(x^n - 1, x^n - 2) = (-1)^n; det(Bezout) = (-1)^(n(n-1)/2) Res
        P, Q = sp.Poly(x ** n - 1, x, b), sp.Poly(x ** n - 2, x, b)
        assert poly_resultant(P, Q)[0].as_expr() == (-1) ** n


class TestFloatImage:

    def test_correctly_rounded(self):
        # a 78-bit integer whose float through sympy's evalf is one ulp
        # off; int / int rounds once
        big = -161327161581678777028608
        assert abs(big).bit_length() == 78
        assert float_image([big])[0].hex() == "-0x1.114c80edb4d0dp-1"
        assert float_image([big, 1]).tolist() == [big / 2 ** 78, 2.0 ** -78]

    def test_default_scale_is_the_largest_bit_length(self):
        assert float_image([6, -3, 0]).tolist() == [0.75, -0.375, 0.0]
        assert float_image([sp.Integer(1)]).tolist() == [0.5]
        assert float_image([0, 0]).tolist() == [0.0, 0.0]

    def test_finite_beyond_float_range(self):
        # 2000-bit integers overflow float(c); scaled, each is below 1
        bits = (3 ** 1300).bit_length()
        out = float_image([3 ** 1300, -(3 ** 1299), 1])
        assert out.tolist() == [3 ** 1300 / 2 ** bits,
                                -(3 ** 1299) / 2 ** bits, 0.0]
        assert abs(out).max() < 1


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
        sol, basis = mat_solve_general(A, [F(5), F(10)])
        assert basis == []
        assert [sum(A[i][j] * sol[j] for j in range(2)) for i in range(2)] \
            == [F(5), F(10)]

    def test_rank(self):
        m = [[F(1), F(2)], [F(2), F(4)], [F(1), F(1)]]
        assert mat_rank(m) == 2


def _system(rng, gauss):
    """(A, b): A up to 6x9 with entries in QQ or QQ(i), one in four zero so
    that pivots are often found below the diagonal and rows swap, and some
    rows replaced by combinations of earlier ones (rank deficiency); b
    either A x for a drawn x (consistent) or drawn freely (often
    inconsistent).  The entries come from a seeded Random, so that they
    spread over their range rather than shrink towards one value."""
    def entry():
        if rng.random() < 0.25:
            return GaussRat(0) if gauss else F(0)
        v = F(rng.randint(-3, 3), rng.randint(1, 3))
        return GaussRat(v, F(rng.randint(-3, 3), rng.randint(1, 3))) \
            if gauss else v

    rows = rng.randint(1, 6)
    cols = rng.choice((rows, rng.randint(1, 9)))
    A = [[entry() for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows):
        if rng.random() < 0.15:
            f, g, i, j = entry(), entry(), rng.randrange(r), rng.randrange(r)
            A[r] = [f * u + g * v for u, v in zip(A[i], A[j])]
    if rng.random() < 0.5:
        x = [entry() for _ in range(cols)]
        b = [sum((a * v for a, v in zip(row, x)), F(0)) for row in A]
    else:
        b = [entry() for _ in range(rows)]
    return A, b


def _sympy(m):
    return sp.Matrix([[to_sympy(v) for v in row] for row in m])


class TestEliminationAgainstSympy:
    """One forward elimination and one back-substitution against
    sympy.Matrix's det, rank and rref."""

    @pytest.mark.parametrize("gauss", [False, True], ids=["QQ", "QQ(i)"])
    @given(rng=st.randoms(use_true_random=True))
    @settings(max_examples=30, deadline=None)
    def test_kernel(self, gauss, rng):
        A, b = _system(rng, gauss)
        rows, cols = len(A), len(A[0])
        M = _sympy(A)
        rank = M.rank()
        assert mat_rank(A) == rank
        if rows == cols:
            assert mat_det(A) == exactify(M.det())
            if rank < rows:
                # singular: fewer pivots than rows, or inconsistent
                out = echelon_solve(A, b)
                assert out is None or len(out[0]) < rows
        R, piv = _sympy([row + [v] for row, v in zip(A, b)]).rref()
        out = mat_solve_general(A, b)
        if cols in piv:
            assert out is None
            return
        sol, basis = out
        want = [F(0)] * cols
        for i, c in enumerate(piv):
            want[c] = exactify(R[i, cols])
        assert sol == want
        free = [c for c in range(cols) if c not in piv]
        want_basis = []
        for fc in free:
            vec = [F(int(c == fc)) for c in range(cols)]
            for i, c in enumerate(piv):
                vec[c] = -exactify(R[i, fc])
            want_basis.append(vec)
        assert basis == want_basis
        assert mat_nullspace(A) == want_basis
        if rows == cols == rank:
            assert echelon_solve(A, b) == (list(range(cols)), want, [])
