"""Direct kinematics: intersect the image variety with the five sphere
hyperplanes, eliminate down to one univariate polynomial, and recover all
real configurations.

The class-based bound on real solutions (4 / 6 / 8) follows from the bond
structure: each bond hides two complex solutions on the boundary, four when
it is a tangent or singular contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .bonds import DependentConstraintsError, necessity_verdict
from .kinmap import (Leg, MotionParams, Pentapod, phi_gradient, phi_residuals,
                     sphere_condition)
from .polyalg import exactify, to_float
from .rearrange import require_member
from .reduced import Reduction, choose_pivots

_XS = sp.symbols("q1 q2 q3")


class DirkinError(ValueError):
    pass


class InconsistentLengthsError(DirkinError):
    """All elimination roots failed back-substitution."""


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
    route: str                    # "linear-x1" | "cascade"
    pivots: tuple                 # coordinate names solved linearly

    @property
    def degree(self) -> int:
        return self.polynomial.degree()


_COORD_NAMES = ("n0", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")


def solve_dk(p: Pentapod, lengths=None, lengths2=None,
             tol: float = 1e-9) -> DKResult:
    """Solve the direct kinematics for the given leg lengths.

    The five sphere conditions are solved exactly for five coordinates in
    the x0 = 1 chart; the three image-variety quadrics are then eliminated
    by resultants to one exact univariate polynomial (degree <= 8 after
    extraneous factors are removed by back-substitution filtering).
    """
    legs = _legs_with_lengths(p, lengths, lengths2)
    rows = [[exactify(c) for c in sphere_condition(leg).coeffs] for leg in legs]
    pivots = choose_pivots(rows)
    if pivots is None:
        raise DependentConstraintsError(
            "sphere hyperplanes are linearly dependent: architecturally "
            "singular geometry")
    red = Reduction(rows, pivots)
    Q1, Q2, Q3 = red.quadrics(_XS)
    elim = None
    route = ""
    # rotate the elimination roles when the last variable degenerates
    for rot, (f1, f2, f3) in enumerate(
            (_XS, _XS[1:] + _XS[:1], _XS[2:] + _XS[:2])):
        if sp.Poly(Q3, f1).degree() == 1:
            route = "linear-x1"
            elim = _eliminate_linear(Q1, Q2, Q3, f1, f2, f3)
        else:
            route = "cascade"
            elim = _eliminate_cascade(Q1, Q2, Q3, f1, f2, f3)
        if elim is not None and elim.degree() > 0:
            if rot:
                route += f"-rot{rot}"
            break
    if elim is None or elim.degree() <= 0:
        raise DirkinError("elimination collapsed; degenerate geometry")
    elim = _primitive(elim, f3)
    quads = (Q1, Q2, Q3)
    order = [f1, f2, f3]
    elim = _drop_extraneous(elim, quads, red, order, tol)
    sols = _real_solutions(elim, quads, red, order, legs, tol)
    pivot_names = tuple(_COORD_NAMES[c] for c in pivots)
    return DKResult(elim, str(f3), tuple(sols), route, pivot_names)


def _legs_with_lengths(p, lengths, lengths2):
    if lengths2 is not None:
        return [Leg(l.a, l.base, r2) for l, r2 in zip(p.legs, lengths2)]
    if lengths is not None:
        return [Leg.from_length(l.a, l.base, r) for l, r in zip(p.legs, lengths)]
    if all(l.r2 is not None for l in p.legs):
        return list(p.legs)
    raise DirkinError("leg lengths are required")


def _eliminate_linear(Q1, Q2, Q3, f1, f2, f3):
    p3 = sp.Poly(Q3, f1)
    c1, c0 = p3.all_coeffs()
    sub = {f1: -c0 / c1}
    R1 = sp.expand(sp.numer(sp.together(Q1.subs(sub))))
    R2 = sp.expand(sp.numer(sp.together(Q2.subs(sub))))
    res = sp.expand(sp.resultant(R1, R2, f2))
    return sp.Poly(res, f3)


def _eliminate_cascade(Q1, Q2, Q3, f1, f2, f3):
    xi1 = sp.expand(sp.resultant(Q2, Q3, f1))
    xi2 = sp.expand(sp.resultant(Q1, Q3, f1))
    xi3 = sp.expand(sp.resultant(Q1, Q2, f1))
    ups = []
    for a, b in ((xi1, xi2), (xi1, xi3), (xi2, xi3)):
        if a == 0 or b == 0:
            continue
        ups.append(sp.expand(sp.resultant(a, b, f2)))
    ups = [u for u in ups if u != 0]
    if not ups:
        return None
    g = ups[0]
    for u in ups[1:]:
        g = sp.gcd(g, u)
    return sp.Poly(g, f3)


def _primitive(poly: sp.Poly, var) -> sp.Poly:
    if poly.is_zero:
        return poly
    c, prim = sp.Poly(poly.as_expr(), var).primitive()
    if prim.LC() < 0:
        prim = -prim
    return prim


def _drop_extraneous(elim, quads, red, fsyms, tol):
    """Keep only irreducible factors whose roots back-substitute to genuine
    configurations."""
    if elim.degree() <= 0:
        return elim
    var = elim.gens[0]
    kept = sp.Integer(1)
    for fct, mult in sp.factor_list(elim.as_expr())[1]:
        fp = sp.Poly(fct, var)
        if fp.degree() == 0:
            continue
        roots = np.roots([complex(c) for c in fp.all_coeffs()])
        good = any(_complete(r, quads, red, fsyms, tol) is not None
                   for r in roots)
        if good:
            kept = kept * fct ** mult
    out = sp.Poly(kept, var)
    return _primitive(out, var) if out.degree() > 0 else out


def _complete(root, quads, red, fsyms, tol):
    """Back-substitute an elimination root to a full configuration; None
    when no completion passes the residual filter."""
    f1, f2, f3 = fsyms
    Q1, Q2, Q3 = quads
    t = complex(root)
    # solve the pair (Q1, Q3) in (f1, f2) at f3 = t, filter with Q2
    r12 = sp.expand(sp.resultant(Q1, Q3, f1))
    pol = sp.Poly(sp.expand(r12.subs(f3, sp.Float(t.real, 20)
                                     + sp.I * sp.Float(t.imag, 20))), f2)
    if pol.degree() < 1:
        return None
    best = None
    for r2 in np.roots([complex(c) for c in pol.all_coeffs()]):
        sub2 = {f2: complex(r2), f3: t}
        p1 = sp.Poly(sp.expand(Q1.subs(sub2)), f1)
        if p1.degree() < 1:
            continue
        for r1 in np.roots([complex(c) for c in p1.all_coeffs()]):
            point = {f1: r1, f2: r2, f3: t}
            vals = (red.Tn @ np.array([1, *(point[q] for q in _XS)])).tolist()
            m = MotionParams(*vals)
            res = [abs(complex(v)) for v in phi_residuals(m)]
            scale = 1 + sum(abs(v) ** 2 for v in vals)
            err = max(res) / scale
            if err <= max(tol, 1e-8) and (best is None or err < best[0]):
                best = (err, m)
    return best


def _polish(red, point, steps: int = 30):
    """Newton refinement of a candidate root (s1, s2, s3) of the three
    reduced quadrics; returns the best iterate by residual."""
    T = red.Tn

    def F_(v):
        return np.array(phi_residuals(T @ np.r_[1, v]), dtype=complex)

    def J_(v):
        return np.array(phi_gradient(T @ np.r_[1, v]), dtype=complex) @ T[:, 1:]

    x = np.array(point, dtype=complex)

    def res(v):
        return float(np.abs(F_(v)).max())

    best = (res(x), tuple(x))
    for _ in range(steps):
        f = F_(x)
        try:
            dx = np.linalg.lstsq(J_(x), f, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        # damped steps guard against overshooting near root collisions
        for lam in (1.0, 0.5, 0.25):
            cand = x - lam * dx
            r = res(cand)
            if r < best[0]:
                best = (r, tuple(cand))
                x = cand
                break
        else:
            break
        if best[0] < 1e-16 * (1 + float(np.abs(x).max()) ** 2):
            break
    scale = 1 + max(abs(v) for v in best[1]) ** 2
    if best[0] > 1e-12 * scale:
        refined = _polish_mp(red, best[1])
        if refined is not None:
            return refined
    return best[1]


def _polish_mp(red, point, steps: int = 40):
    """High-precision Newton for fibers too ill-conditioned for float64."""
    import mpmath
    with mpmath.workdps(40):
        T = red.mp_matrix()
        x = [mpmath.mpc(v) for v in point]
        best = None
        for _ in range(steps):
            c = list(T * mpmath.matrix([1, *x]))
            f = mpmath.matrix(phi_residuals(c))
            r = max(abs(v) for v in f)
            if best is None or r < best[0]:
                best = (r, list(x))
            if r < mpmath.mpf("1e-30"):
                break
            try:
                J = mpmath.matrix(phi_gradient(c)) * T[:, 1:4]
                dx = mpmath.lu_solve(J, f)
            except Exception:
                break
            x = [xv - dv for xv, dv in zip(x, dx)]
        if best is None:
            return None
        return tuple(complex(v) for v in best[1])


def _real_solutions(elim, quads, red, fsyms, legs, tol):
    from .polyalg import real_roots
    sols = []
    if elim.degree() <= 0:
        return sols
    for root, _ in real_roots(elim):
        out = _complete(root, quads, red, fsyms, tol)
        if out is None:
            continue
        err, m = out
        start = [m.coords()[i] for i in red.free]
        vals = (red.Tn @ np.r_[1, _polish(red, start)]).tolist()
        m = MotionParams(*vals)
        scale = 1 + sum(abs(v) ** 2 for v in vals)
        err = max(abs(complex(v)) for v in phi_residuals(m)) / scale
        if any(abs(complex(c).imag) > 1e-7 * (1 + abs(complex(c)))
               for c in m.coords()):
            continue
        mr = MotionParams(*[complex(c).real for c in m.coords()])
        lens = _leg_lengths(mr, legs)
        resid = max(abs(l * l - to_float(leg.r2))
                    for l, leg in zip(lens, legs))
        sols.append(DKSolution(mr, max(err, resid /
                                       (1 + max(to_float(l.r2) for l in legs))),
                               tuple(lens)))
    return sols


def _leg_lengths(m: MotionParams, legs):
    from .kinmap import displacement
    out = []
    for leg in legs:
        P = displacement(m, to_float(leg.a), tol=1e-6)
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
