"""Exact and floating scalar/polynomial/linear algebra kernel.

Exact scalars are ``fractions.Fraction`` (rationals) and :class:`GaussRat`
(Gaussian rationals p + q*i).  All geometric decisions elsewhere in the
package run on exact scalars; floats enter only through root finding and
trajectory sampling.  Resultants of two polynomials of one degree, with
their subresultant chains, are closed forms on sympy's dense polynomial
arithmetic; the other resultants, factorization and real root isolation
are delegated to sympy, numeric rank to numpy's SVD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

import numpy as np
import sympy as sp
from sympy.polys.densearith import (dmp_add, dmp_exquo, dmp_mul, dmp_neg,
                                    dmp_sub)
from sympy.polys.densebasic import dmp_strip, dmp_zero, dmp_zero_p

from .tol import DEFAULT_TOL, FLOAT_ROOT


class PolyalgError(ValueError):
    pass


class SingularMatrixError(PolyalgError):
    pass


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussRat:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- ring/field ops -----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- views ----------------------------------------------------------------
    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussRat({self.re})"
        return f"GaussRat({self.re}, {self.im})"


def _coerce(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, _RationalABC):        # int, Fraction
        return GaussRat(Fraction(x))
    return NotImplemented


def exactify(x) -> Fraction | GaussRat:
    """Embed x exactly (floats, sympy Floats among them, embed at their
    exact binary value).

    Accepts int, Fraction, float, complex, GaussRat, "p/q" strings and
    sympy numbers.  Raises PolyalgError for NaN/inf or input that is not a
    Gaussian rational.
    """
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, _RationalABC):
        return Fraction(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            raise PolyalgError(f"cannot exactify non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, complex):
        if not (np.isfinite(x.real) and np.isfinite(x.imag)):
            raise PolyalgError(f"cannot exactify non-finite value {x!r}")
        if x.imag == 0:
            return Fraction(x.real)
        return GaussRat(Fraction(x.real), Fraction(x.imag))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, sp.Expr):
        re, im = (sp.Rational(v) if v.is_Float else v
                  for v in x.as_real_imag())
        if not (re.is_Rational and im.is_Rational):
            raise PolyalgError(f"not a Gaussian rational: {x}")
        if im == 0:
            return Fraction(int(re.p), int(re.q))
        return GaussRat(Fraction(int(re.p), int(re.q)),
                        Fraction(int(im.p), int(im.q)))
    raise PolyalgError(f"cannot exactify {type(x).__name__}: {x!r}")


def is_exact(x) -> bool:
    return isinstance(x, (GaussRat, _RationalABC))


def is_real_scalar(x) -> bool:
    if isinstance(x, GaussRat):
        return x.im == 0
    if isinstance(x, complex):
        return x.imag == 0
    return True


def conj(x):
    if isinstance(x, GaussRat):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def to_float(x) -> float:
    if isinstance(x, GaussRat):
        if x.im != 0:
            raise PolyalgError(f"{x} is not real")
        return float(x.re)
    return float(x)


def float_image(ints) -> np.ndarray:
    """The exact integers `ints` divided by 2**bits, bits the largest bit
    length among them, as floats: each is int(c) / 2**bits, correctly
    rounded and finite for any size of c.  A list of coefficients so
    scaled has the roots it had."""
    ints = [int(c) for c in ints]
    bits = max(abs(c).bit_length() for c in ints)
    return np.array([c / 2 ** bits for c in ints])


def to_sympy(x):
    """Exact scalar -> sympy number (floats embed exactly)."""
    if isinstance(x, GaussRat):
        return sp.Rational(x.re) + sp.I * sp.Rational(x.im)
    if isinstance(x, _RationalABC):
        return sp.Rational(x)
    if isinstance(x, float):
        return sp.Rational(Fraction(x))
    if isinstance(x, complex):
        return sp.Rational(Fraction(x.real)) + sp.I * sp.Rational(Fraction(x.imag))
    if isinstance(x, sp.Expr):
        return x
    raise PolyalgError(f"cannot convert {x!r} to sympy")


# ---------------------------------------------------------------------------
# exact dense linear algebra over Fraction / GaussRat
# ---------------------------------------------------------------------------

def _zero_like(entries):
    for e in entries:
        if isinstance(e, GaussRat):
            return GaussRat(0)
    return Fraction(0)


def _eliminate(m, cols):
    """Forward Gaussian elimination of a copy of m, pivoting on the first
    nonzero entry in row order within the first `cols` columns; the
    elimination runs over whole rows, so further columns (right-hand
    sides) are carried along.  Returns (a, pivot columns, sign of the row
    permutation); pivot k sits in row k of the echelon form a."""
    a = [list(row) for row in m]
    pivots, sign = [], 1
    for c in range(cols):
        rank = len(pivots)
        if rank == len(a):
            break
        p = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        piv = a[rank][c]
        for r in range(rank + 1, len(a)):
            if a[r][c]:
                f = a[r][c] / piv
                for k in range(c, len(a[r])):
                    a[r][k] = a[r][k] - f * a[rank][k]
        pivots.append(c)
    return a, pivots, sign


def mat_det(m):
    """Exact determinant: the signed product of the echelon pivots."""
    n = len(m)
    if n == 0 or any(len(r) != n for r in m):
        raise PolyalgError("determinant needs a nonempty square matrix")
    a, pivots, sign = _eliminate(m, n)
    if len(pivots) < n:
        return _zero_like(itertools.chain.from_iterable(m))
    det = Fraction(1)
    for c in range(n):
        det = det * a[c][c]
    return det if sign == 1 else -det


def mat_rank(m) -> int:
    """Exact rank: the number of echelon pivots."""
    if not m or not m[0]:
        raise PolyalgError("rank of an empty matrix")
    return len(_eliminate(m, len(m[0]))[1])


def echelon_solve(A, b):
    """Exact solution of a possibly rectangular/rank-deficient A x = b by
    one forward elimination and one back-substitution to reduced echelon
    form.  Returns (pivot columns, particular solution with the free
    variables at zero, null-space basis with one free variable at one),
    or None when inconsistent."""
    cols = len(A[0]) if A else 0
    a, pivots, _ = _eliminate(
        [list(row) + [v] for row, v in zip(A, b, strict=True)], cols)
    if any(row[cols] for row in a[len(pivots):]):
        return None
    free = [c for c in range(cols) if c not in pivots]
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        # later steps read only the free columns and the right-hand side
        rest = [k for k in free if k > c] + [cols]
        for r in range(i):
            if a[r][c]:
                f = a[r][c] / a[i][c]
                for k in rest:
                    a[r][k] = a[r][k] - f * a[i][k]
    zero = _zero_like(itertools.chain.from_iterable(A))
    one = zero + 1
    sol = [zero] * cols
    for r, c in enumerate(pivots):
        sol[c] = a[r][cols] / a[r][c]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, c in enumerate(pivots):
            vec[c] = -a[r][fc] / a[r][c]
        basis.append(vec)
    return pivots, sol, basis


def mat_solve_general(A, b):
    """Exact solve of a possibly rectangular/rank-deficient A x = b.

    Returns (particular_solution, nullspace_basis) or None when inconsistent.
    """
    out = echelon_solve(A, b)
    return None if out is None else out[1:]


def mat_nullspace(m):
    return echelon_solve(m, [0] * len(m))[2]


# ---------------------------------------------------------------------------
# numeric rank
# ---------------------------------------------------------------------------

def numeric_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Rank of a matrix: exact elimination for exact entries (tol ignored),
    SVD thresholding otherwise."""
    if not m or not m[0]:
        raise PolyalgError("rank of an empty matrix")
    flat = list(itertools.chain.from_iterable(m))
    if all(is_exact(e) for e in flat):
        return mat_rank([[exactify(e) for e in row] for row in m])
    arr = np.array([[complex(e) for e in row] for row in m], dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise PolyalgError("non-finite matrix entry")
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0] * max(arr.shape)))


# ---------------------------------------------------------------------------
# polynomials (sympy-backed)
# ---------------------------------------------------------------------------

def resultant(p, q, var) -> sp.Expr:
    """Sylvester resultant of p and q with respect to var, as an expanded
    expression: `poly_resultant` of the two as sp.Poly in var, then the
    other free symbols in name order.

    Exact when the inputs are exact.  Zero polynomial input is rejected.
    """
    pe, qe = (x.as_expr() if isinstance(x, sp.Poly) else sp.sympify(x)
              for x in (p, q))
    rest = (pe.free_symbols | qe.free_symbols) - {var}
    gens = (var, *sorted(rest, key=lambda s: s.name))
    P, Q = sp.Poly(pe, *gens), sp.Poly(qe, *gens)
    if P.is_zero or Q.is_zero:
        raise PolyalgError("resultant of the zero polynomial is undefined")
    return poly_resultant(P, Q)[0].as_expr()


def poly_resultant(P: sp.Poly, Q: sp.Poly):
    """The subresultant chain (S_0, S_1, ..., S_m) of two sp.Poly in their
    first generator, m the lower of their degrees.  S_0 is the resultant,
    equal to ``P.resultant(Q)`` in coefficients, sign, generators and
    domain; S_j for 0 < j < m is the j-th subresultant up to sign, on the
    generators of P; S_m is the input of lower degree (Q when the degrees
    are equal).  The chain is (S_0,) when m < 1.

    Two polynomials of one degree n in the first generator, on the same
    generators (at least two) and domain, take a closed form on sympy's
    dense coefficient lists: for n = 2 the Sylvester formula
    (a0 c1 - a1 c0)^2 - (a0 b1 - a1 b0)(b0 c1 - b1 c0) with
    S_1 = (a0 b1 - a1 b0) x + a0 c1 - a1 c0; for n >= 3 fraction-free
    (Bareiss) elimination of the n x n Bezout matrix ordered by decreasing
    powers, whose row n-1-j then holds S_j and whose last pivot is
    (-1)^(n(n-1)/2) times the resultant.  A zero pivot and everything else
    go to sympy's subresultant PRS: its member of degree j, S_j or a
    defective subresultant similar to it, stands as S_j, and a zero
    polynomial where it lists none.
    """
    n, u, K = P.degree(), len(P.gens) - 2, P.domain
    if u >= 0 and n >= 2 and Q.degree() == n and Q.gens == P.gens \
            and Q.domain == K:
        rows = _bezout_rows(P.rep.to_list(), Q.rep.to_list(), n, u, K)
        if rows is not None:
            res, *subs = rows
            return (P.per(P.rep.new(res, K, u), remove=0),
                    *(P.per(P.rep.new(s, K, u + 1)) for s in subs), Q)
    res, prs = P.resultant(Q, includePRS=True)
    if min(P.degree(), Q.degree()) < 1:
        return (res,)
    by_degree, zero = {S.degree(): S for S in prs}, prs[1] * 0
    return (res, *(by_degree.get(j, zero)
                   for j in range(1, prs[1].degree() + 1)))


def _bezout_rows(f, g, n, u, K):
    """The resultant and S_1 .. S_{n-1} of the dense polynomials f and g of
    degree n at level u + 1 over K (coefficient lists, highest degree
    first), as dense lists; None on a zero Bareiss pivot."""

    def cross(i, j):
        """f_i g_j - f_j g_i, indices into the lists, highest degree first."""
        return dmp_sub(dmp_mul(f[i], g[j], u, K), dmp_mul(f[j], g[i], u, K),
                       u, K)

    if n == 2:
        ac = cross(0, 2)
        return (dmp_sub(dmp_mul(ac, ac, u, K),
                        dmp_mul(cross(0, 1), cross(1, 2), u, K), u, K),
                dmp_strip([cross(0, 1), ac], u + 1))
    # (f(x) g(y) - f(y) g(x)) / (x - y): each pair of degrees i < j adds
    # f_j g_i - f_i g_j to the coefficient of x^a y^(i+j-1-a), i <= a < j,
    # at entry (n-1-a, a+n-i-j) of the matrix by decreasing powers
    B = [[dmp_zero(u)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n + 1), 2):
        c = cross(n - j, n - i)
        for a in range(i, j):
            B[n - 1 - a][a + n - i - j] = dmp_add(B[n - 1 - a][a + n - i - j],
                                                  c, u, K)
    # Bareiss: each step divides exactly by the previous pivot, and row k
    # ends as the determinants of rows 0..k on columns 0..k-1 and one more
    prev = None
    for k in range(n - 1):
        p = B[k][k]
        if dmp_zero_p(p, u):
            return None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                e = dmp_sub(dmp_mul(p, B[i][j], u, K),
                            dmp_mul(B[i][k], B[k][j], u, K), u, K)
                B[i][j] = e if prev is None else dmp_exquo(e, prev, u, K)
        prev = p
    det = B[-1][-1]
    return (dmp_neg(det, u, K) if n * (n - 1) // 2 % 2 else det,
            *(B[k][k:] for k in reversed(range(n - 1))))


def real_roots(p, tol: float = FLOAT_ROOT):
    """All real roots of a univariate polynomial, with multiplicities.

    Returns a list of (root, multiplicity) sorted ascending; roots are floats.
    Exact rational/integer coefficients go through continued-fraction
    isolation (``Poly.intervals``, no factorisation) and then exact
    bisection to the correctly rounded float of each root; roots that
    round to one float are merged.  Floating coefficients go through the
    companion matrix with a residual filter |p(r)| <= tol * (1 + max|coeff|).
    """
    x = sp.Symbol("_x")
    if isinstance(p, sp.Poly):
        if len(p.gens) != 1:
            raise PolyalgError("real_roots needs a univariate polynomial")
        poly = p
        x = p.gens[0]
    else:
        expr = sp.sympify(p)
        syms = sorted(expr.free_symbols, key=str)
        if len(syms) > 1:
            raise PolyalgError("real_roots needs a univariate polynomial")
        x = syms[0] if syms else x
        poly = sp.Poly(expr, x)
    if poly.is_zero:
        raise PolyalgError("real_roots of the zero polynomial is undefined")
    if poly.degree() == 0:
        return []
    if all(c.is_rational for c in poly.all_coeffs()):
        if poly.domain not in (sp.ZZ, sp.QQ):
            poly = poly.set_domain(sp.QQ)
        sqf = poly.sqf_part().clear_denoms(convert=True)[1]
        q = [int(c) for c in sqf.all_coeffs()]
        dq = [c * k for c, k in zip(q, range(len(q) - 1, 0, -1))]
        out = []
        for (a, b), mult in sorted(poly.intervals()):
            rv = _rounded_root(q, dq, Fraction(int(a.p), int(a.q)),
                               Fraction(int(b.p), int(b.q)))
            if out and rv == out[-1][0]:
                out[-1] = (rv, out[-1][1] + mult)
            else:
                out.append((rv, mult))
        return out
    coeffs = [complex(c) for c in poly.all_coeffs()]
    roots = np.roots(coeffs)
    scale = 1.0 + max(abs(c) for c in coeffs)
    pv = np.polyval(coeffs, roots)
    good = sorted(float(r.real) for r, v in zip(roots, pv)
                  if abs(r.imag) <= tol * (1 + abs(r)) and abs(v) <= tol * scale)
    out = []
    for r in good:
        if out and abs(r - out[-1][0]) <= tol * (1 + abs(r)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return out


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the integer polynomial `coeffs` (highest degree first) at x,
    by Horner's rule on d**deg * p(n/d) in integers."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in coeffs:
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _as_float(x: Fraction) -> float:
    """x correctly rounded to a float; beyond the float range, +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _rounded_root(q, dq, a: Fraction, b: Fraction) -> float:
    """The correctly rounded float of the one root in the isolating
    interval [a, b] of the squarefree integer polynomial q (derivative dq).

    Bisects exactly until both ends round to one float.  An end may be a
    neighbouring root, where q = 0; the sign of q just inside the interval
    then comes from q' (q is squarefree, so q' does not vanish there).
    """
    if a == b:
        return _as_float(a)
    sa = _sign_at(q, a) or _sign_at(dq, a)              # q right of a
    if (_sign_at(q, b) or -_sign_at(dq, b)) != -sa:     # q left of b
        raise PolyalgError("real root isolation gave no sign change")
    fa, fb = _as_float(a), _as_float(b)
    while fa != fb:
        if math.isfinite(fa) and math.isfinite(fb) and \
                math.nextafter(fa, math.inf) == fb:
            # adjacent floats: the root rounds by its side of the halfway h
            h = (Fraction(fa) + Fraction(fb)) / 2
            if h <= a:
                return fb
            if h >= b:
                return fa
            s = _sign_at(q, h)
            return float(h) if s == 0 else (fb if s == sa else fa)
        m = (a + b) / 2
        s = _sign_at(q, m)
        if s == 0:
            return _as_float(m)
        if s == sa:
            a, fa = m, _as_float(m)
        else:
            b, fb = m, _as_float(m)
    return fa
