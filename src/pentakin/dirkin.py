"""Direct kinematics: intersect the image variety with the five sphere
hyperplanes, eliminate down to one univariate polynomial, and recover all
real configurations.

The class-based bound on real solutions (4 / 6 / 8) follows from the bond
structure: each bond hides two complex solutions on the boundary, four when
it is a tangent or singular contact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .bonds import DependentConstraintsError, necessity_verdict
from .kinmap import (COORD_NAMES, Leg, MotionParams, Pentapod, displacement,
                     phi_gradient, phi_residuals, sphere_condition)
from .polyalg import exactify, poly_resultant, real_roots, to_float
from .rearrange import require_member
from .reduced import first_reduction, first_resultants
from .tol import (COMPLETION_RESIDUAL, DEFAULT_TOL, DISPLACEMENT_CHECK,
                  IMAG_CUT, NEWTON_STOP, POSE_MERGE, START_CUT)

_XS = sp.symbols("q1 q2 q3")
_FLOAT_BITS = 1000          # see _to_complex


class DirkinError(ValueError):
    pass


@dataclass(frozen=True)
class DKSolution:
    params: MotionParams          # x0 = 1 chart, float coordinates
    residual: float               # max defining-equation residual
    lengths: tuple                # recomputed leg lengths


@dataclass(frozen=True)
class DKResult:
    polynomial: sp.Poly           # univariate elimination polynomial (exact)
    variable: str                 # which motion coordinate it eliminates to
    solutions: tuple              # real configurations
    route: str                    # always "cascade"
    pivots: tuple                 # coordinate names solved linearly

    @property
    def degree(self) -> int:
        return self.polynomial.degree()


def solve_dk(p: Pentapod, lengths=None, lengths2=None,
             tol: float = DEFAULT_TOL) -> DKResult:
    """Solve the direct kinematics for the given leg lengths.

    The five sphere conditions are solved exactly for five coordinates in
    the x0 = 1 chart; one exact elimination, the gcd of the pairwise
    resultants of the quadrics' first resultants, gives a univariate
    polynomial of degree <= 8 with no factorisation.  At each real root,
    the first subresultant of those pairs whose principal coefficient does
    not vanish there (an exact test) gives the second coordinate, or a
    later one where its start misses the quadrics; the null vector of the
    quadrics' coefficients in the first coordinate gives that one, and one
    Newton polish and the residual filter give the solutions.

    The elimination runs once, in the order (q1, q2, q3).  A finite
    solution's q3 is a root of every pairwise resultant, hence of their
    gcd, so the eliminant is constant only where no finite solution
    exists, or where the first resultants share a factor, as a curve of
    solutions (a self-motion) makes them do in every order; both raise
    DirkinError.

    With float (not exact) squared lengths, a pose that coincides with its
    mirror image can come back as several poses about sqrt(EPS) apart, or
    as none where the rounding moves its double root off the real line.
    """
    legs = _legs_with_lengths(p, lengths, lengths2)
    rows = [[exactify(c) for c in sphere_condition(leg).coeffs] for leg in legs]
    red = first_reduction(rows)
    if red is None:
        raise DependentConstraintsError(
            "sphere hyperplanes are linearly dependent: architecturally "
            "singular geometry")
    quads = red.quadrics(_XS)
    elim, chains = _eliminate_cascade(first_resultants(quads))
    if elim is None or elim.degree() <= 0:
        raise DirkinError("elimination collapsed; degenerate geometry")
    elim = _primitive(elim)
    sols = _real_solutions(red, _starts(elim, chains, quads, red), legs, tol)
    pivot_names = tuple(COORD_NAMES[c] for c in red.pivots)
    return DKResult(elim, str(_XS[2]), tuple(sols), "cascade", pivot_names)


def _legs_with_lengths(p, lengths, lengths2):
    if lengths is None and lengths2 is None:
        if all(l.r2 is not None for l in p.legs):
            return list(p.legs)
        raise DirkinError("leg lengths are required")
    given = list(lengths if lengths2 is None else lengths2)
    if len(given) != 5:
        raise DirkinError(f"need 5 leg lengths, got {len(given)}")
    make_leg = Leg.from_length if lengths2 is None else Leg
    return [make_leg(l.a, l.base, v) for l, v in zip(p.legs, given)]


def _eliminate_cascade(xis):
    """The gcd of the nonzero pairwise resultants of `xis` (None when there
    is none) and the subresultant chains of the pairs, in pair order.  A
    pair of equal degree in the first generator, as the quartics of a
    generic member are, takes the Bezout closed form of `poly_resultant`."""
    chains = [poly_resultant(a, b) for a, b in itertools.combinations(xis, 2)
              if not (a.is_zero or b.is_zero)]
    ups = [c[0] for c in chains if not c[0].is_zero]
    return (functools.reduce(sp.Poly.gcd, ups) if ups else None), chains


def _primitive(poly: sp.Poly) -> sp.Poly:
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of `poly`."""
    prim = poly.clear_denoms(convert=True)[1].primitive()[1]
    return -prim if prim.LC() < 0 else prim


def _to_complex(coeffs):
    """Exact integer coefficients of one polynomial as complex floats.
    Beyond 2**_FLOAT_BITS, near float64's limit of 2**1024, the list is
    first divided by one exact power of two: that scales the polynomial and
    leaves its roots unchanged, where complex(c) would give inf."""
    bits = max(abs(int(c)).bit_length() for c in coeffs)
    if bits <= _FLOAT_BITS:
        return [complex(int(c)) for c in coeffs]
    return [complex(int(c) / 2 ** bits) for c in coeffs]


def _dense(q: sp.Poly):
    """The coefficients of a quadric as a complex 3x3x3 array indexed by
    exponents."""
    out = np.zeros((3, 3, 3), dtype=complex)
    monos, coeffs = zip(*q.terms())
    for mono, c in zip(monos, _to_complex(coeffs)):
        out[mono] = c
    return out


def _member_at(S: sp.Poly, r: float):
    """The coefficients, highest degree first, of S in its first generator
    with the second at r, as complex floats.  They are evaluated exactly, as
    the integers d**D S(., n/d) for r = n/d: near a close pair of roots a
    subresultant's coefficients cancel heavily, and float evaluation loses
    the root."""
    n, d = r.as_integer_ratio()
    rows = S.rep.to_list()
    D = max(len(row) for row in rows)
    pw = [n ** k * d ** (D - 1 - k) for k in range(D)]
    return _to_complex([sum(c * p for c, p in zip(reversed(row), pw))
                        for row in rows])


def _in_first(coeffs, *values):
    """The coefficients, highest degree first, of the polynomial in the
    first variable left when the others take `values`."""
    for v in reversed(values):
        coeffs = coeffs @ v ** np.arange(coeffs.shape[-1])
    return coeffs[::-1]


def _first_candidates(rows, f2, f3):
    """The first coordinate at (f2, f3): the null vector (f1^2, f1, 1) of
    the quadrics' coefficient rows in f1; where those have rank one, both
    roots of the row with the largest f1^2 coefficient."""
    M = np.array([_in_first(q, f2, f3) for q in rows])
    _, s, vh = np.linalg.svd(M)
    if s[1] <= START_CUT * s[0]:
        return np.roots(M[np.argmax(np.abs(M[:, 0]))])
    v = vh[2].conj()
    return [v[1] / v[2]]


def _starts(elim, chains, quads, red):
    """Start points (s1, s2, s3) of the polish, root by root.  f3 is a real
    root r of elim, f2 a root of the first chain member S_j, pairs in order
    and j ascending, whose principal coefficient psc_j does not vanish at
    r, and f1 comes from the quadrics at (f2, r).  The psc test is exact: r
    is a root of gcd(elim, psc_j) exactly when its correctly rounded float
    is among that gcd's real roots.  S_j gives the exact f2 at the exact
    root; at its float, f2 can move far where another root of elim lies a
    few ulps away (float lengths split a double root).  Where no start
    meets the quadrics, the next members are tried in turn until one
    gives a start that does."""
    members = [S for c in chains for S in c[1:] if S.degree() > 0]
    # each quadric scaled by its largest coefficient
    rows = [d / np.abs(d).max() for d in map(_dense, quads)]

    @functools.cache
    def vanishing(k):
        psc = sp.Poly(members[k].rep.to_list()[0], *elim.gens)
        return {x for x, _ in real_roots(elim.gcd(psc))}

    def meeting(S, r):
        for f2 in np.roots(_member_at(S, r)):
            for f1 in _first_candidates(rows, f2, r):
                point = [f1, f2, r]
                vals = (red.Tn @ np.r_[1, point]).tolist()
                if _scaled_residual(vals) <= START_CUT:
                    yield point

    for r, _ in real_roots(elim):
        yield from next((starts for k, S in enumerate(members)
                         if r not in vanishing(k)
                         and (starts := list(meeting(S, r)))), [])


def _scaled_residual(vals):
    """The largest quadric residual of nine coordinates over 1 + |x|^2."""
    return (max(abs(complex(v)) for v in phi_residuals(vals))
            / (1 + sum(abs(v) ** 2 for v in vals)))


def _polish(red, point, steps: int = 30):
    """Damped least-squares Newton on the three reduced quadrics from a
    point (s1, s2, s3), in float64: the last iterate, which has the least
    residual."""
    T = red.Tn

    def F_(v):
        return np.array(phi_residuals(T @ np.r_[1, v]), dtype=complex)

    x = np.array(point, dtype=complex)
    fx = F_(x)
    r = np.abs(fx).max()
    for _ in range(steps):
        if r < NEWTON_STOP * (1 + np.abs(x).max() ** 2):
            break
        J = np.array(phi_gradient(T @ np.r_[1, x]), dtype=complex) @ T[:, 1:]
        try:
            dx = np.linalg.lstsq(J, fx, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        # damped steps guard against overshooting near root collisions
        for lam in (1.0, 0.5, 0.25):
            cand = x - lam * dx
            fc = F_(cand)
            if np.abs(fc).max() < r:
                x, fx, r = cand, fc, np.abs(fc).max()
                break
        else:
            break
    return x


def _real_solutions(red, starts, legs, tol):
    sols = []
    # a root may carry several poses, e.g. a pose and its mirror image in
    # a planar base; two candidates of one pose polish to the same point
    for point in starts:
        vals = (red.Tn @ np.r_[1, _polish(red, point)]).tolist()
        err = _scaled_residual(vals)
        if err > max(tol, COMPLETION_RESIDUAL) or any(
                abs(complex(c).imag) > IMAG_CUT * (1 + abs(complex(c)))
                for c in vals):
            continue
        scale = 1 + sum(abs(v) ** 2 for v in vals)
        mr = MotionParams(*[complex(c).real for c in vals])
        if any(max(abs(a - b) for a, b in zip(mr.coords(),
                                              s.params.coords()))
               <= POSE_MERGE * scale for s in sols):
            continue
        lens = _leg_lengths(mr, legs)
        resid = max(abs(l * l - to_float(leg.r2))
                    for l, leg in zip(lens, legs))
        sols.append(DKSolution(
            mr, max(err, resid / (1 + max(to_float(l.r2) for l in legs))),
            tuple(lens)))
    return sols


def _leg_lengths(m: MotionParams, legs):
    out = []
    for leg in legs:
        P = displacement(m, to_float(leg.a), tol=DISPLACEMENT_CHECK)
        out.append(float(np.sqrt(sum((float(pc) - to_float(bc)) ** 2
                                     for pc, bc in zip(P, leg.base)))))
    return out


# ---------------------------------------------------------------------------
# class-based maximum count of real configurations
# ---------------------------------------------------------------------------

def max_real_solutions(p: Pentapod) -> int:
    """4 for designs with a self-motion over the complex numbers (both bond
    conditions hold), 6 when only a bond exists, 8 otherwise."""
    require_member(p)
    verdict = necessity_verdict(p)
    if not verdict.has_bond:
        return 8
    if verdict.tangency_rank_deficient:
        return 4
    return 6
