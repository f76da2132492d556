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
from .polyalg import exactify, real_roots, to_float
from .rearrange import require_member
from .reduced import Reduction, choose_pivots, first_resultants
from .tol import (COMPLETION_RESIDUAL, IMAG_CUT, MP_POLISH_SWITCH,
                  NEWTON_STOP, POSE_MERGE, PRE_NEWTON_GATE)

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
    route: str                    # "linear-x1" | "cascade"
    pivots: tuple                 # coordinate names solved linearly

    @property
    def degree(self) -> int:
        return self.polynomial.degree()


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
    quadrics = red.quadrics(_XS)
    # rotate the elimination roles when the last variable degenerates
    for rot in range(3):
        order = _XS[rot:] + _XS[:rot]
        quads = tuple(q.reorder(*order) for q in quadrics)
        xis = first_resultants(quads)
        if quads[2].degree() == 1:
            # Q3 = c1 f1 + c0: Res(Qk, Q3) is +-c1^d Qk(-c0 / c1) for Qk of
            # degree d in f1, so one more resultant in f2 eliminates
            route, elim = "linear-x1", xis[0].resultant(xis[1])
        else:
            route, elim = "cascade", _eliminate_cascade(xis)
        if elim is not None and elim.degree() > 0:
            if rot:
                route += f"-rot{rot}"
            break
    else:
        raise DirkinError("elimination collapsed; degenerate geometry")
    # back-substitution data: Res(Q1, Q3) in (f2, f3) and Q1 in (f1, f2, f3)
    back = (_dense(xis[1]), _dense(quads[0]), order)
    elim = _drop_extraneous(_primitive(elim), red, back, tol)
    sols = _real_solutions(elim, red, back, legs, tol)
    pivot_names = tuple(COORD_NAMES[c] for c in pivots)
    return DKResult(elim, str(order[2]), tuple(sols), route, pivot_names)


def _legs_with_lengths(p, lengths, lengths2):
    if lengths2 is not None:
        return [Leg(l.a, l.base, r2) for l, r2 in zip(p.legs, lengths2)]
    if lengths is not None:
        return [Leg.from_length(l.a, l.base, r) for l, r in zip(p.legs, lengths)]
    if all(l.r2 is not None for l in p.legs):
        return list(p.legs)
    raise DirkinError("leg lengths are required")


def _eliminate_cascade(xis):
    ups = [u for a, b in itertools.combinations(xis, 2)
           if not (a.is_zero or b.is_zero or (u := a.resultant(b)).is_zero)]
    return functools.reduce(sp.Poly.gcd, ups) if ups else None


def _primitive(poly: sp.Poly) -> sp.Poly:
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of `poly`."""
    prim = poly.clear_denoms(convert=True)[1].primitive()[1]
    return -prim if prim.LC() < 0 else prim


def _drop_extraneous(elim, red, back, tol):
    """Keep only irreducible factors whose roots back-substitute to genuine
    configurations."""
    kept = sp.Poly(1, *elim.gens)
    for fct, mult in elim.factor_list()[1]:
        roots = np.roots(_to_complex(fct.all_coeffs()))
        if any(_complete(r, red, back, tol) for r in roots):
            kept *= fct ** mult
    return _primitive(kept)


def _to_complex(coeffs):
    """Exact coefficients of one polynomial as complex floats.  Beyond
    2**_FLOAT_BITS, near float64's limit of 2**1024, the list is first
    divided by one exact power of two: that scales the polynomial and
    leaves its roots unchanged, where complex(c) would give inf."""
    bits = max(int(abs(c)).bit_length() for c in coeffs)
    if bits <= _FLOAT_BITS:
        return [complex(c) for c in coeffs]
    return [complex(sp.Rational(c, 2 ** bits)) for c in coeffs]


def _dense(p: sp.Poly):
    """The coefficients of p as a complex array indexed by exponents."""
    out = np.zeros([max(d, 0) + 1 for d in p.degree_list()], dtype=complex)
    monos, coeffs = zip(*p.terms())
    for mono, c in zip(monos, _to_complex(coeffs)):
        out[mono] = c
    return out


def _in_first(coeffs, *values):
    """The coefficients, highest degree first, of the polynomial in the
    first variable left when the others take `values`."""
    for v in reversed(values):
        coeffs = coeffs @ v ** np.arange(coeffs.shape[-1])
    return coeffs[::-1]


def _complete(root, red, back, tol):
    """Back-substitute an elimination root: every completion that passes
    the residual filter, as (error, configuration), best first."""
    r13, q1, order = back
    t = complex(root)
    T = red.Tn
    cols = [1 + _XS.index(f) for f in order]    # columns of f1, f2, f3 in T

    def coords(v):
        x = np.empty(4, dtype=complex)
        x[[0, *cols]] = (1, *v, t)
        return T @ x

    def newton(rows, v):
        """Newton at f3 = t in (f1, f2) on the quadrics `rows`."""
        def F_(v):
            return np.array(phi_residuals(coords(v)))[rows]

        def J_(v):
            return (np.array(phi_gradient(coords(v)), dtype=complex)[rows]
                    @ T[:, cols[:2]])
        return np.array(_newton(F_, J_, v, 4)[1])

    out = []
    # solve the pair (Q1, Q3) in (f1, f2) at f3 = t, filter with Q2; np.roots
    # drops leading zeros and finds no root of a constant
    for r2 in np.roots(_in_first(r13, t)):
        for r1 in np.roots(_in_first(q1, r2, t)):
            f12 = np.array([r1, r2])
            if _scaled_residual(coords(f12).tolist()) > PRE_NEWTON_GATE:
                continue
            # np.roots finds an f2 shared by two points of the pair only to
            # sqrt(eps); Newton on the pair at fixed t restores the rest.
            # Where the pair is tangent at t its Jacobian is singular and
            # Newton stalls near 1e-7; least squares on all three quadrics
            # then finishes, as Q2's gradient restores the full rank
            for rows in ([0, 2], [0, 1, 2]):
                f12 = newton(rows, f12)
                vals = coords(f12).tolist()
                err = _scaled_residual(vals)
                if err <= max(tol, COMPLETION_RESIDUAL):
                    out.append((err, MotionParams(*vals)))
                    break
    return sorted(out, key=lambda e: e[0])


def _scaled_residual(vals):
    """The largest quadric residual of nine coordinates over 1 + |x|^2."""
    return (max(abs(complex(v)) for v in phi_residuals(vals))
            / (1 + sum(abs(v) ** 2 for v in vals)))


def _newton(F_, J_, x, steps):
    """Damped least-squares Newton on F_ from x; the best iterate by
    residual, as (residual, point)."""
    best = (float(np.abs(F_(x)).max()), tuple(x))
    for _ in range(steps):
        try:
            dx = np.linalg.lstsq(J_(x), F_(x), rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        # damped steps guard against overshooting near root collisions
        for lam in (1.0, 0.5, 0.25):
            cand = x - lam * dx
            r = float(np.abs(F_(cand)).max())
            if r < best[0]:
                best = (r, tuple(cand))
                x = cand
                break
        else:
            break
        if best[0] < NEWTON_STOP * (1 + float(np.abs(x).max()) ** 2):
            break
    return best


def _polish(red, point, steps: int = 30):
    """Newton refinement of a candidate root (s1, s2, s3) of the three
    reduced quadrics; returns the best iterate by residual."""
    T = red.Tn

    def F_(v):
        return np.array(phi_residuals(T @ np.r_[1, v]), dtype=complex)

    def J_(v):
        return np.array(phi_gradient(T @ np.r_[1, v]), dtype=complex) @ T[:, 1:]

    best = _newton(F_, J_, np.array(point, dtype=complex), steps)
    scale = 1 + max(abs(v) for v in best[1]) ** 2
    if best[0] > MP_POLISH_SWITCH * scale:
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


def _real_solutions(elim, red, back, legs, tol):
    sols = []
    # a root may carry several poses, e.g. a pose and its mirror image in
    # a planar base; two completions of one pose polish to the same point
    for root, _ in real_roots(elim):
        for _, m in _complete(root, red, back, tol):
            start = [m.coords()[i] for i in red.free]
            vals = (red.Tn @ np.r_[1, _polish(red, start)]).tolist()
            scale = 1 + sum(abs(v) ** 2 for v in vals)
            err = _scaled_residual(vals)
            if any(abs(complex(c).imag) > IMAG_CUT * (1 + abs(complex(c)))
                   for c in vals):
                continue
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
