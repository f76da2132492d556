"""Bond computation: boundary points (x0 = 0) of the configuration curve.

Bonds are the common zeros of the five constraint hyperplanes and the
boundary quadrics, independent of the leg lengths.  Their existence is the
first necessary condition for a self-motion; a rank drop of the 8x9
tangency Jacobian at a bond is the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .kinmap import (Leg, MotionParams, Pentapod, gamma_residuals,
                     phi_gradient, sphere_condition)
from .polyalg import (GaussRat, exactify, is_exact, numeric_rank,
                      poly_resultant, to_sympy)
from .reduced import first_reduction, polarise
from .tol import BOND_SAME, DEFAULT_TOL, W_CONSTANT_ZERO

_FREE_SYMS = sp.symbols("u v w")


class BondError(ValueError):
    pass


class DependentConstraintsError(BondError):
    """The five hyperplanes are linearly dependent (architectural
    degeneracy)."""


class DegenerateBondSystemError(BondError):
    """The bond equations cut out a positive-dimensional set."""


@dataclass(frozen=True)
class Bond:
    params: MotionParams
    multiplicity: int = 1     # estimate from resultant root order / rank drop
    conjugate_index: int | None = None
    exact: bool = True

    def coords(self):
        return self.params.coords()


@dataclass(frozen=True)
class NecessityVerdict:
    has_bond: bool
    tangency_rank_deficient: bool
    bonds: tuple
    jacobian_rank: int | None   # minimum over bonds; None without bonds


# ---------------------------------------------------------------------------
# find_bonds
# ---------------------------------------------------------------------------

def find_bonds(constraints, tol: float = DEFAULT_TOL) -> list[Bond]:
    """All bonds of a 5-hyperplane constraint system, up to scalar multiples.

    The five linear conditions are solved exactly for five coordinates; the
    boundary quadrics then form a system of conics on the remaining
    projective plane whose common zeros are extracted by resultants.  The
    result is recomputed with a second pivot set when one exists and
    asserted pivot-independent.
    """
    if len(constraints) != 5:
        raise BondError("exactly five constraint hyperplanes required")
    rows = [[exactify(c) for c in hp.coeffs] for hp in constraints]
    red = first_reduction(rows)
    if red is None:
        raise DependentConstraintsError(
            "constraint hyperplanes are linearly dependent")
    bonds = _find_bonds_of(red, tol)
    alt = first_reduction(rows, skip=red.pivots)
    if alt is not None and not _same_bonds(bonds, _find_bonds_of(alt, tol)):
        raise BondError("bond set depends on the pivot choice; the system is "
                        "numerically degenerate")
    return _pair_conjugates(bonds)


def _find_bonds_of(red, tol):
    conics = [q for q in _boundary_conics(red.T) if any(q)]
    bonds = []
    for point, mult in _solve_conic_system(conics, tol):
        if all(map(is_exact, point)):
            vals = [sum(t * c for t, c in zip(row[1:], point))
                    for row in red.T]
        else:
            vals = (red.Tn[:, 1:] @ np.array([complex(c) for c in point])
                    ).tolist()
        if any(vals):
            bonds.append((vals, mult))
    return _normalize_and_dedupe(bonds)


def _same_bonds(one, other) -> bool:
    """Pivot-independence test of two bond lists: equal exact coordinates
    when both lists are exact, otherwise a one-to-one projective match
    within the scale-aware tolerance of `_proj_same`."""
    if len(one) != len(other):
        return False
    if all(e for _, _, e in one + other):
        return ({m.coords() for m, _, _ in one}
                == {m.coords() for m, _, _ in other})
    rest = [m for m, _, _ in other]
    for m, _, _ in one:
        j = next((j for j, m2 in enumerate(rest) if _proj_same(m, m2)), None)
        if j is None:
            return False
        del rest[j]
    return True


# A boundary conic is the tuple of its exact coefficients on these
# monomials, given as exponents of the free coordinates (u, v, w).
_MONOMIALS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))


def _boundary_conics(T):
    """The boundary quadrics on the plane x0 = 0, gamma_k(T . (0, u, v, w)),
    as exact coefficient tuples over _MONOMIALS."""
    return [tuple(q[mono] for mono in _MONOMIALS)
            for q in polarise(T, gamma_residuals, (1, 2, 3))]


def _conic_poly(q, gens):
    """The conic as an sp.Poly in `gens`: (u, v, w) in any order, or (u, v)
    for a conic free of w."""
    order = [_FREE_SYMS.index(g) for g in gens]
    return sp.Poly.from_dict(
        {tuple(mono[i] for i in order): to_sympy(c)
         for mono, c in zip(_MONOMIALS, q) if c}, *gens)


def _solve_conic_system(conics, tol):
    """Common projective zeros (u : v : w) of the nonzero boundary conics.

    Returns [(point, multiplicity estimate)]; a point's coordinates are
    Fractions/GaussRats when exact, complex otherwise.  Raises
    DegenerateBondSystemError when the common zero set has positive
    dimension.
    """
    u, v, w = _FREE_SYMS
    if not conics:
        raise DegenerateBondSystemError(
            "all boundary quadrics vanish identically on the solution plane")
    base = conics[0]
    lead = next(i for i, c in enumerate(base) if c)
    # exact cross-multiplication: q is a multiple of base iff
    # base * q[lead] - q * base[lead] vanishes coefficientwise
    partner = next((q for q in conics[1:]
                    if any(b * q[lead] - c * base[lead]
                           for b, c in zip(base, q))), None)
    if partner is None:
        raise DegenerateBondSystemError(
            "boundary quadrics cut out a conic of bonds")
    # a conic free of w is itself the binary form of the candidates; the
    # resultant would raise the order of its roots to the other's w-degree
    free = next((q for q in (base, partner) if not any(q[3:])), None)
    if free is not None:
        res = _conic_poly(free, (u, v))
    else:
        res = poly_resultant(_conic_poly(base, (w, u, v)),
                             _conic_poly(partner, (w, u, v)))[0]
    if res.is_zero:
        raise DegenerateBondSystemError(
            "two boundary quadrics share a common component")
    sols = []
    for (u0, v0), mult in _binary_roots(res):
        wvals = _solve_for_w(conics, u0, v0)
        if wvals is None:
            raise DegenerateBondSystemError(
                "a whole line of bonds exists in the boundary")
        for w0 in wvals:
            if _check_all(conics, (u0, v0, w0), tol):
                sols.append(((u0, v0, w0), mult))
    # the point (0 : 0 : 1) escapes the (u, v) resultant
    point = (Fraction(0), Fraction(0), Fraction(1))
    if _check_all(conics, point, tol):
        sols.append((point, 1))
    return sols


def _binary_roots(form: sp.Poly):
    """Projective roots (u0 : v0) of a binary form in (u, v), with
    multiplicities: exact for the roots in QQ(i), complex otherwise."""
    total = form.total_degree()
    coeffs = form.as_dict()
    dehom = sp.Poly([coeffs.get((i, total - i), 0)
                     for i in range(total, -1, -1)], _FREE_SYMS[0])
    out = []
    if dehom.degree() < total:
        # root at (1 : 0): the form is divisible by v
        out.append(((Fraction(1), Fraction(0)), total - dehom.degree()))
    return out + [((r, Fraction(1)), m) for r, m in _roots(dehom)]


def _roots(poly: sp.Poly):
    """Roots of a univariate polynomial over QQ or QQ(i) with their
    multiplicities, from its factorisation: exact Fractions / GaussRats for
    the roots in QQ(i), then complex floats from the companion matrix for
    the other factors."""
    if not (poly.domain.is_ZZ or poly.domain.is_QQ):
        poly = poly.set_domain(sp.QQ_I)
    exact, numeric = [], []
    for fct, mult in poly.factor_list()[1]:
        coeffs = [exactify(c) for c in fct.all_coeffs()]
        rts = _small_roots(coeffs)
        if rts is None:
            numeric += [(r, mult) for r in np.roots(
                [complex(c) for c in coeffs]).tolist()]
        else:
            exact += [(r, mult) for r in rts]
    # sympy's order of the linear factors u - r over QQ(i), which fixes the
    # order of the bonds: by multiplicity, then by the imaginary and the
    # real part of -r
    def sympy_order(root_mult):
        z = GaussRat(0) + root_mult[0]
        return root_mult[1], -z.im, -z.re

    return sorted(exact, key=sympy_order) + numeric


def _small_roots(coeffs):
    """The distinct roots of a linear or quadratic polynomial with exact
    coefficients (highest degree first) when they lie in QQ(i); None when
    they do not, or when the degree is higher."""
    if len(coeffs) == 2:
        return [_demote(-coeffs[1] / coeffs[0])]
    if len(coeffs) != 3:
        return None
    a, b, c = coeffs
    s = _gauss_sqrt(b * b - 4 * a * c)
    if s is None:
        return None
    # sympy's order: (-b - s) / 2a first, unless a is a negative rational
    a = _demote(a)
    signs = (1, -1) if not isinstance(a, GaussRat) and a < 0 else (-1, 1)
    return list(dict.fromkeys(_demote((-b + e * s) / (2 * a)) for e in signs))


def _gauss_sqrt(z):
    """An exact square root of a Gaussian rational, or None outside QQ(i).

    With z = p + qi and |z| = r, a root x + yi has x^2 = (p + r) / 2 and
    2xy = q, or y^2 = -p when x = 0."""
    p, q = (z.re, z.im) if isinstance(z, GaussRat) else (Fraction(z), 0)
    r = _rat_sqrt(p * p + q * q)
    x = None if r is None else _rat_sqrt((p + r) / 2)
    if x is None:
        return None
    if x:
        return GaussRat(x, q / (2 * x))
    y = _rat_sqrt(-p)
    return None if y is None else GaussRat(0, y)


def _rat_sqrt(f: Fraction):
    n, d = f.numerator, f.denominator
    if n < 0:
        return None
    rn, rd = math.isqrt(n), math.isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


def _demote(z):
    return z.re if isinstance(z, GaussRat) and z.im == 0 else z


def _solve_for_w(conics, u0, v0):
    """Candidate w for the point (u0 : v0 : w): the roots of the first conic
    that involves w there, exact when they lie in QQ(i).  None when every
    conic vanishes on the line through (u0 : v0 : 0) and (0 : 0 : 1)."""
    exact = is_exact(u0)
    if not exact:
        conics, u0, v0 = _numeric(conics), complex(u0), complex(v0)
    polys = []
    for A, B, C in (_in_w(q, u0, v0) for q in conics):
        if not exact and not (A or B) and abs(C) < W_CONSTANT_ZERO:
            C = 0
        polys.append((A, B, C))
    if not any(any(p) for p in polys):
        return None  # whole line solves the system
    first = next((p for p in polys if p[0] or p[1]), None)
    if first is None:
        return []   # contradiction: constant nonzero
    coeffs = list(first[1:] if not first[0] else first)
    rts = _small_roots(coeffs) if exact else None
    if rts is None:
        rts = np.roots([complex(c) for c in coeffs]).tolist()
    return rts


def _in_w(q, u, v):
    """The conic on the line through (u : v : 0) and (0 : 0 : 1): the
    coefficients (A, B, C) of A w^2 + B w + C."""
    uu, uv, vv, uw, vw, ww = q
    return ww, uw * u + vw * v, uu * u * u + uv * u * v + vv * v * v


def _check_all(conics, point, tol):
    """Whether every conic vanishes at the point: exactly for an exact
    point, else within tol relative to the point's squared size."""
    exact = all(map(is_exact, point))
    if not exact:
        conics, point = _numeric(conics), [complex(c) for c in point]
    u, v, w = point
    vals = [(A * w + B) * w + C for A, B, C in (_in_w(q, u, v) for q in conics)]
    if exact:
        return not any(vals)
    scale = 1 + max(abs(c) for c in point) ** 2
    return all(abs(val) <= tol * scale for val in vals)


def _numeric(conics):
    return [tuple(map(complex, q)) for q in conics]


def _normalize_and_dedupe(bonds):
    """Scale each bond so that its first nonzero coordinate is 1 and merge
    projective duplicates, keeping the higher multiplicity."""
    out = []
    for vals, mult in bonds:
        lead = next(v for v in vals if v)
        exact = all(map(is_exact, vals))
        coords = [_demote(v / lead) if exact else complex(v / lead)
                  for v in vals]
        key = [complex(c) for c in coords]
        dup = next((i for i, (k, _, _) in enumerate(out) if _close(k, key)),
                   None)
        if dup is None:
            out.append((key, MotionParams(*coords), (mult, exact)))
        else:
            k, mp_, (m0, e0) = out[dup]
            out[dup] = (k, mp_, (max(m0, mult), e0))
    return [(mp_, m, e) for (_, mp_, (m, e)) in out]


def _close(k1, k2, tol=BOND_SAME):
    return all(abs(a - b) <= tol * (1 + abs(a)) for a, b in zip(k1, k2))


def _pair_conjugates(entries):
    bonds = []
    for i, (mp_, mult, exact) in enumerate(entries):
        conj_idx = None
        ci = mp_.conjugate()
        for j, (mp2, _, _) in enumerate(entries):
            if j == i:
                continue
            if _proj_same(ci, mp2):
                conj_idx = j
                break
        bonds.append(Bond(params=mp_, multiplicity=mult,
                          conjugate_index=conj_idx, exact=exact))
    return bonds


def _proj_same(m1: MotionParams, m2: MotionParams, tol=BOND_SAME) -> bool:
    a = [complex(c) for c in m1.coords()]
    b = [complex(c) for c in m2.coords()]
    cross = [a[i] * b[j] - a[j] * b[i]
             for i in range(9) for j in range(i + 1, 9)]
    scale = max(abs(c) for c in a) * max(abs(c) for c in b)
    return all(abs(c) <= tol * (1 + scale) for c in cross)


# ---------------------------------------------------------------------------
# tangency rank and the composite verdict
# ---------------------------------------------------------------------------

def is_bond(constraints, m: MotionParams, tol: float = DEFAULT_TOL) -> bool:
    if m.x0:
        return False
    vals = list(gamma_residuals(m)) + [hp.evaluate(m) for hp in constraints]
    if all(is_exact(v) for v in vals):
        return all(v == 0 for v in vals)
    scale = 1 + sum(abs(complex(c)) ** 2 for c in m.coords())
    return all(abs(complex(v)) <= tol * scale for v in vals)


def tangency_rank(constraints, b: Bond, tol: float = DEFAULT_TOL) -> int:
    """Rank of the 8x9 matrix of gradients of the three boundary quadrics
    and the five hyperplanes at the bond; rank < 8 is the second necessary
    condition for a self-motion."""
    if not is_bond(constraints, b.params, tol):
        raise BondError("the given point is not a bond of this system")
    rows = list(phi_gradient(b.params)) + [hp.coeffs for hp in constraints]
    return numeric_rank(rows, tol)


def constraints_of(p: Pentapod):
    """Sphere hyperplanes of a pentapod; unit lengths are substituted when
    absent since bonds do not depend on them."""
    out = []
    for leg in p.legs:
        if leg.r2 is None:
            leg = Leg(leg.a, leg.base, Fraction(1))
        out.append(sphere_condition(leg))
    return out


def necessity_verdict(p, tol: float = DEFAULT_TOL) -> NecessityVerdict:
    """Both bond-based necessary conditions for a self-motion.

    Accepts a Pentapod (sphere constraints are built from its legs) or an
    explicit 5-element constraint list.
    """
    constraints = constraints_of(p) if isinstance(p, Pentapod) else list(p)
    bonds = find_bonds(constraints, tol)
    if not bonds:
        return NecessityVerdict(False, False, (), None)
    ranks = [tangency_rank(constraints, b, tol) for b in bonds]
    bonds = tuple(
        Bond(b.params, max(b.multiplicity, 2 if r < 8 else 1),
             b.conjugate_index, b.exact)
        for b, r in zip(bonds, ranks))
    return NecessityVerdict(True, any(r < 8 for r in ranks), bonds, min(ranks))
