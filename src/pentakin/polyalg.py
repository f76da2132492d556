"""Exact and floating scalar/polynomial/linear algebra kernel.

Exact scalars are ``fractions.Fraction`` (rationals) and :class:`GaussRat`
(Gaussian rationals p + q*i).  All geometric decisions elsewhere in the
package run on exact scalars; floats enter only through root finding and
trajectory sampling.  Polynomial heavy lifting (resultants, factorization,
real root isolation) is delegated to sympy, numeric rank to numpy's SVD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

import numpy as np
import sympy as sp


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


I_ = GaussRat(0, 1)

#: exact or floating scalar; see module docstring
Scalar = Fraction | GaussRat | int | float | complex


def exactify(x) -> Fraction | GaussRat:
    """Embed x exactly (floats embed at their exact binary value).

    Accepts int, Fraction, float, complex, GaussRat, "p/q" strings and
    exact sympy numbers.  Raises PolyalgError for NaN/inf or inexact input.
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
        re, im = x.as_real_imag()
        if not (re.is_Rational and im.is_Rational):
            re, im = sp.nsimplify(x, rational=False).as_real_imag()
        if not (re.is_rational and im.is_rational):
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


def to_complex(x) -> complex:
    return complex(x)


def to_float(x) -> float:
    if isinstance(x, GaussRat):
        if x.im != 0:
            raise PolyalgError(f"{x} is not real")
        return float(x.re)
    return float(x)


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


def mat_copy(m):
    return [list(row) for row in m]


def mat_det(m):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    if n == 0 or any(len(r) != n for r in m):
        raise PolyalgError("determinant needs a nonempty square matrix")
    a = mat_copy(m)
    det = Fraction(1)
    sign = 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return _zero_like(itertools.chain.from_iterable(m))
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        det = det * piv
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / piv
                for k in range(c, n):
                    a[r][k] = a[r][k] - f * a[c][k]
    return det if sign == 1 else -det


def mat_rank(m) -> int:
    """Exact rank via Gaussian elimination."""
    if not m or not m[0]:
        raise PolyalgError("rank of an empty matrix")
    a = mat_copy(m)
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        p = next((r for r in range(rank, rows) if a[r][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        piv = a[rank][c]
        for r in range(rank + 1, rows):
            if a[r][c]:
                f = a[r][c] / piv
                for k in range(c, cols):
                    a[r][k] = a[r][k] - f * a[rank][k]
        rank += 1
        if rank == rows:
            break
    return rank


def mat_solve(A, b):
    """Exact solve of square A x = b; raises SingularMatrixError."""
    n = len(A)
    a = [list(A[r]) + [b[r]] for r in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            raise SingularMatrixError("singular system")
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / piv
                for k in range(c, n + 1):
                    a[r][k] = a[r][k] - f * a[c][k]
    return [a[r][n] / a[r][r] for r in range(n)]


def mat_solve_general(A, b):
    """Exact solve of a possibly rectangular/rank-deficient A x = b.

    Returns (particular_solution, nullspace_basis) or None when inconsistent.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    a = [list(A[r]) + [b[r]] for r in range(rows)]
    pivots = []
    rank = 0
    for c in range(cols):
        p = next((r for r in range(rank, rows) if a[r][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        piv = a[rank][c]
        for r in range(rows):
            if r != rank and a[r][c]:
                f = a[r][c] / piv
                for k in range(c, cols + 1):
                    a[r][k] = a[r][k] - f * a[rank][k]
        pivots.append(c)
        rank += 1
    for r in range(rank, rows):
        if a[r][cols]:
            return None
    zero = _zero_like(itertools.chain.from_iterable(A))
    one = zero + 1
    sol = [zero] * cols
    for r, c in enumerate(pivots):
        sol[c] = a[r][cols] / a[r][c]
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, c in enumerate(pivots):
            vec[c] = -a[r][fc] / a[r][c]
        basis.append(vec)
    return sol, basis


def mat_nullspace(m):
    rows = len(m)
    zero = _zero_like(itertools.chain.from_iterable(m)) if rows else Fraction(0)
    b = [zero] * rows
    out = mat_solve_general(m, b)
    assert out is not None
    return out[1]


# ---------------------------------------------------------------------------
# numeric rank
# ---------------------------------------------------------------------------

def numeric_rank(m, tol: float = 1e-9) -> int:
    """Rank of a matrix: exact elimination for exact entries (tol ignored),
    SVD thresholding otherwise."""
    if not m or not m[0]:
        raise PolyalgError("rank of an empty matrix")
    flat = list(itertools.chain.from_iterable(m))
    if all(is_exact(e) for e in flat):
        return mat_rank([[exactify(e) for e in row] for row in m])
    arr = np.array([[to_complex(e) for e in row] for row in m], dtype=complex)
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
    """Sylvester resultant of p and q with respect to var.

    Exact when the inputs are exact.  Zero polynomial input is rejected.
    """
    pe = sp.expand(p.as_expr() if isinstance(p, sp.Poly) else sp.sympify(p))
    qe = sp.expand(q.as_expr() if isinstance(q, sp.Poly) else sp.sympify(q))
    if pe == 0 or qe == 0:
        raise PolyalgError("resultant of the zero polynomial is undefined")
    return sp.expand(sp.resultant(pe, qe, var))


def real_roots(p, tol: float = 1e-10):
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
    coeffs = [to_complex(c) for c in poly.all_coeffs()]
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
    if not out and good:
        raise PolyalgError("real root isolation failed to converge")
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
