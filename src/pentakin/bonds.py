"""Bond computation: boundary points (x0 = 0) of the configuration curve.

Bonds are the common zeros of the five constraint hyperplanes and the
boundary quadrics, independent of the leg lengths.  Their existence is the
first necessary condition for a self-motion; a rank drop of the 8x9
tangency Jacobian at a bond is the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .kinmap import (Leg, MotionParams, Pentapod, gamma_residuals,
                     phi_gradient, sphere_condition)
from .polyalg import GaussRat, exactify, is_exact, numeric_rank, to_complex
from .reduced import Reduction, choose_pivots

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

def find_bonds(constraints, tol: float = 1e-9,
               cross_check: bool = True) -> list[Bond]:
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
    pivots = choose_pivots(rows)
    if pivots is None:
        raise DependentConstraintsError(
            "constraint hyperplanes are linearly dependent")
    bonds = _find_bonds_with_pivots(rows, pivots)
    if cross_check:
        alt = choose_pivots(rows, skip=pivots)
        if alt is not None:
            other = _find_bonds_with_pivots(rows, alt)
            if _bond_keys(other) != _bond_keys(bonds):
                raise BondError(
                    "bond set depends on the pivot choice; the system is "
                    "numerically degenerate")
    return _pair_conjugates(bonds)


def _find_bonds_with_pivots(rows, pivots):
    coords = Reduction(rows, pivots).coords(_FREE_SYMS, x0=0)
    quads = [sp.expand(g) for g in gamma_residuals(coords)]
    solutions = _solve_conic_system([q for q in quads if q != 0])
    bonds = []
    for sol, mult in solutions:
        full = _reconstruct(coords, sol)
        if full is None:
            continue
        bonds.append((full, mult))
    return _normalize_and_dedupe(bonds)


def _bond_keys(entries):
    keys = []
    for mp_, _, _ in entries:
        vals = [to_complex(c) for c in mp_.coords()]
        lead = next(v for v in vals if abs(v) > 1e-12)
        keys.append(tuple(
            complex(round((v / lead).real, 7), round((v / lead).imag, 7))
            for v in vals))
    return sorted(map(str, keys))


def _solve_conic_system(quads):
    """Common projective zeros of homogeneous quadrics in (u, v, w).

    Returns [(solution dict, multiplicity estimate)].  Raises
    DegenerateBondSystemError when the common zero set has positive
    dimension.
    """
    u, v, w = _FREE_SYMS
    if not quads:
        raise DegenerateBondSystemError(
            "all boundary quadrics vanish identically on the solution plane")
    base = quads[0]
    partner = next((q for q in quads[1:] if sp.simplify(
        base * sp.Poly(q, u, v, w).LC() - q * sp.Poly(base, u, v, w).LC()) != 0), None)
    if partner is None:
        raise DegenerateBondSystemError(
            "boundary quadrics cut out a conic of bonds")
    # a conic free of w is itself the binary form of the candidates; the
    # resultant would raise the order of its roots to the other's w-degree
    res = next((q for q in (base, partner) if not q.has(w)), None)
    if res is None:
        res = sp.expand(sp.resultant(base, partner, w))
    if res == 0:
        raise DegenerateBondSystemError(
            "two boundary quadrics share a common component")
    candidates = _binary_roots(res, u, v)
    sols = []
    for (u0, v0), mult in candidates:
        wvals = _solve_for_w(quads, u0, v0)
        if wvals is None:
            raise DegenerateBondSystemError(
                "a whole line of bonds exists in the boundary")
        for w0 in wvals:
            if _check_all(quads, u0, v0, w0):
                sols.append(({u: u0, v: v0, w: w0}, mult))
    # the point (0 : 0 : 1) escapes the (u, v) resultant
    if _check_all(quads, sp.Integer(0), sp.Integer(0), sp.Integer(1)):
        sols.append(({u: sp.Integer(0), v: sp.Integer(0), w: sp.Integer(1)}, 1))
    return sols


def _binary_roots(form, u, v):
    """Projective roots (u0 : v0) of a binary form, with multiplicities.

    Factors of degree <= 2 over the Gaussian rationals give exact roots;
    higher-degree irreducible factors fall back to numeric roots.
    """
    out = []
    total = sp.Poly(form, u, v).total_degree()
    dehom = sp.Poly(form.subs(v, 1), u)
    if dehom.degree() < total:
        # root at (1 : 0): the form is divisible by v
        out.append(((sp.Integer(1), sp.Integer(0)), total - dehom.degree()))
    try:
        factors = sp.factor_list(dehom.as_expr(), gaussian=True)[1]
    except sp.PolynomialError:
        factors = [(dehom.as_expr(), 1)]
    for fct, mult in factors:
        fp = sp.Poly(fct, u)
        if fp.degree() == 0:
            continue
        if fp.degree() <= 2:
            for r, m in sp.roots(fp, u).items():
                out.append(((r, sp.Integer(1)), m * mult))
        else:
            for r in np.roots([complex(c) for c in fp.all_coeffs()]):
                out.append(((sp.Float(r.real, 17) + sp.I * sp.Float(r.imag, 17),
                             sp.Integer(1)), mult))
    return out


def _solve_for_w(quads, u0, v0):
    u, v, w = _FREE_SYMS
    exact_pt = _is_gauss_rational(u0) and _is_gauss_rational(v0)
    polys = []
    for q in quads:
        e = sp.expand(q.subs({u: u0, v: v0}))
        if not exact_pt and e != 0 and not e.has(w):
            e = sp.Integer(0) if abs(to_complex(sp.N(e, 25))) < 1e-10 else e
        polys.append(e)
    nonzero = [e for e in polys if e != 0]
    if not nonzero:
        return None  # whole line solves the system
    first = next((e for e in nonzero if e.has(w)), None)
    if first is None:
        return []   # contradiction: constant nonzero
    fp = sp.Poly(first, w)
    if exact_pt and fp.degree() <= 2:
        return list(sp.roots(fp, w))
    return [sp.Float(r.real, 17) + sp.I * sp.Float(r.imag, 17)
            for r in np.roots([complex(sp.N(c, 25)) for c in fp.all_coeffs()])]


def _check_all(quads, u0, v0, w0, tol: float = 1e-9):
    u, v, w = _FREE_SYMS
    subs = {u: u0, v: v0, w: w0}
    scale = 1 + max(abs(to_complex(sp.N(s))) for s in (u0, v0, w0)) ** 2
    for q in quads:
        val = sp.expand(q.subs(subs))
        if val == 0:
            continue
        if abs(to_complex(sp.N(val, 30))) > tol * scale:
            return False
    return True


def _reconstruct(coords, sol):
    vals = [sp.expand(c.subs(sol)) for c in coords]
    if all(v == 0 for v in vals):
        return None
    return vals


def _normalize_and_dedupe(bonds):
    out = []
    for vals, mult in bonds:
        lead = next((v for v in vals if v != 0), None)
        scaled = [sp.expand(sp.cancel(v / lead)) for v in vals]
        exact = all(_is_gauss_rational(v) for v in scaled)
        if exact:
            coords = [_to_scalar(v) for v in scaled]
        else:
            coords = [to_complex(sp.N(v, 20)) for v in scaled]
        key = tuple(complex(round(z.real, 9), round(z.imag, 9))
                    for z in (to_complex(sp.N(v, 20)) for v in scaled))
        dup = next((i for i, (k, _, _) in enumerate(out) if _close(k, key)), None)
        if dup is None:
            out.append((key, MotionParams(*coords), (mult, exact)))
        else:
            k, mp_, (m0, e0) = out[dup]
            out[dup] = (k, mp_, (max(m0, mult), e0))
    return [(mp_, m, e) for (_, mp_, (m, e)) in out]


def _close(k1, k2, tol=1e-8):
    return all(abs(a - b) <= tol * (1 + abs(a)) for a, b in zip(k1, k2))


def _is_gauss_rational(v) -> bool:
    if not v.is_number:
        return False
    re, im = v.as_real_imag()
    return bool(re.is_rational and im.is_rational)


def _to_scalar(v):
    re, im = v.as_real_imag()
    if im == 0:
        return Fraction(int(re.p), int(re.q))
    return GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


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


def _proj_same(m1: MotionParams, m2: MotionParams, tol=1e-8) -> bool:
    a = [to_complex(c) for c in m1.coords()]
    b = [to_complex(c) for c in m2.coords()]
    cross = [a[i] * b[j] - a[j] * b[i]
             for i in range(9) for j in range(i + 1, 9)]
    scale = max(abs(c) for c in a) * max(abs(c) for c in b)
    return all(abs(c) <= tol * (1 + scale) for c in cross)


# ---------------------------------------------------------------------------
# tangency rank and the composite verdict
# ---------------------------------------------------------------------------

def is_bond(constraints, m: MotionParams, tol: float = 1e-9) -> bool:
    if m.x0:
        return False
    vals = list(gamma_residuals(m)) + [hp.evaluate(m) for hp in constraints]
    if all(is_exact(v) or isinstance(v, int) for v in vals):
        return all(v == 0 for v in vals)
    scale = 1 + sum(abs(to_complex(c)) ** 2 for c in m.coords())
    return all(abs(to_complex(v)) <= tol * scale for v in vals)


def tangency_rank(constraints, b: Bond, tol: float = 1e-9) -> int:
    """Rank of the 8x9 matrix of gradients of the three boundary quadrics
    and the five hyperplanes at the bond; rank < 8 is the second necessary
    condition for a self-motion."""
    if not is_bond(constraints, b.params, tol):
        raise BondError("the given point is not a bond of this system")
    rows = list(phi_gradient(b.params)) + [hp.coeffs for hp in constraints]
    return numeric_rank(rows, tol)


def phi_gradient_rank(b: Bond, tol: float = 1e-9) -> int:
    """Rank of the three boundary-quadric gradients alone; < 3 marks a
    singular point of the image variety."""
    return numeric_rank(phi_gradient(b.params), tol)


def constraints_of(p: Pentapod):
    """Sphere hyperplanes of a pentapod; unit lengths are substituted when
    absent since bonds do not depend on them."""
    out = []
    for leg in p.legs:
        if leg.r2 is None:
            leg = Leg(leg.a, leg.base, Fraction(1))
        out.append(sphere_condition(leg))
    return out


def necessity_verdict(p, tol: float = 1e-9) -> NecessityVerdict:
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
