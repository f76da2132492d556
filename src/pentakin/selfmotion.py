"""Self-motion synthesis and analysis: the Duporcq-condition levels, leg
parameter formulas for the three mobile types, reality classification,
configuration-curve tracing, compatible-leg generation, and the planar
circular-translation criterion.

Canonical frames for the mobile types place the first finite base point at
the origin, the real ideal direction of the base locus along the z-axis,
and the conjugate complex ideal directions at (1, +-i, 0).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import sympy as sp

from .archsing import WrongBranchError, _cross, _dot, _plane_frame, _sub
from .kinmap import (ConstraintHyperplane, Leg, MotionParams, Pentapod,
                     phi_gradient, phi_residuals)
from .polyalg import GaussRat, exactify, mat_solve_general, to_float
from .rearrange import (CubicCorrespondence, cubic_kind, replacement_cubic,
                        require_member, _exceptional_points)
from .reduced import Reduction, first_reduction, first_resultants, polarise
from .tol import (CELL_MERGE, DEFAULT_TOL, LEFTOVER_IMAG_CUT,
                  LEFTOVER_RESIDUAL_FLOOR, LEFTOVER_RESIDUAL_SCALE,
                  LEG_VECTOR_ZERO, SAMPLE_RESIDUAL_SCALE)

_I = GaussRat(0, 1)


class SelfMotionError(ValueError):
    pass


class DegenerateDesignError(SelfMotionError):
    pass


class NotASelfMotionError(SelfMotionError):
    pass


class Duporcq(enum.Enum):
    NONE = "none"
    FIRST_ONLY = "first_only"
    FULL = "full"


class Reality(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfMotionDesign:
    """Canonical-frame self-motion design for Types 1, 2 and 5.

    Types 1/2 carry constraints (sphere, two conjugate Darboux, one real
    Darboux, Mannheim); Type 5 carries (sphere, two conjugate Darboux,
    angle, sphere).  p3 is always the conjugate of p2.
    """

    type: int
    a2: GaussRat
    a4: Fraction | None         # types 1, 2 (a4 = 0 for type 2)
    a5: Fraction | None         # type 5
    m5: tuple                   # (A5, B5, C5): Mannheim point or second center
    r1sq: Fraction
    p2: GaussRat
    p4: Fraction | None         # types 1, 2
    w: Fraction | None          # type 5 angle constant
    p5: Fraction | None         # types 1, 2
    r5sq: Fraction | None       # type 5
    special_branch: bool = False

    @property
    def a3(self):
        return self.a2.conjugate()

    @property
    def p3(self):
        return self.p2.conjugate()

    def constraints(self):
        """The five canonical constraint hyperplanes of the design."""
        lam1 = ConstraintHyperplane(
            "sphere", (Fraction(4), -self.r1sq / 2, Fraction(0), Fraction(0),
                       Fraction(0), Fraction(0), Fraction(0), Fraction(0),
                       Fraction(0)))
        om2 = ConstraintHyperplane(
            "darboux", (0, self.p2, self.a2, self.a2 * (-_I), 0, 0,
                        GaussRat(1), -_I, 0))
        om3 = om2.conjugate()
        A5, B5, C5 = self.m5
        if self.type in (1, 2):
            om4 = ConstraintHyperplane(
                "darboux", (0, self.p4, 0, 0, self.a4, 0, 0, 0, Fraction(1)))
            pi5 = ConstraintHyperplane(
                "mannheim", (0, self.p5, A5, B5, C5, Fraction(1), 0, 0, 0))
            return [lam1, om2, om3, om4, pi5]
        ang4 = ConstraintHyperplane(
            "angle", (0, self.w, 0, 0, Fraction(1), 0, 0, 0, 0))
        lam5 = ConstraintHyperplane(
            "sphere", (Fraction(4),
                       (self.a5 ** 2 + A5 * A5 + B5 * B5 + C5 * C5
                        - self.r5sq) / 2,
                       self.a5 * A5, self.a5 * B5, self.a5 * C5,
                       self.a5, A5, B5, C5))
        return [lam1, om2, om3, ang4, lam5]

    # The exact stage of tracing and leg generation, computed once per
    # design instance; `reality`, `trace` and `real_legs_from_design` share
    # it.  A stage that raises stores nothing.

    @cached_property
    def reduction(self) -> Reduction:
        """The reduced system of the design, on the pivots of
        `first_reduction`: Types 1/2 leave the platform direction x1, x2,
        x3 free; Type 5 solves for x3, which its angle condition pins, and
        keeps x1, x2 and y3 free.  The conjugate Darboux pair enters as its
        real and imaginary parts, which span the same rows: T, the unique
        echelon basis of their null space, is then computed over the
        rationals."""
        rows = [[exactify(c) for c in hp.coeffs] for hp in self.constraints()]
        rows[1:3] = [[c.re if isinstance(c, GaussRat) else c for c in rows[1]],
                     [c.im if isinstance(c, GaussRat) else Fraction(0)
                      for c in rows[1]]]
        return first_reduction(rows)

    @cached_property
    def _branch_curve(self):
        """Types 1/2: the two-branch curve g(x2, x3) = c2 x2^2 + c1 x2 + c0,
        the gcd of the first resultants of the reduced quadrics.  Returns
        the float coefficient arrays in x3 of (c2, c1, c0, disc), disc the
        branch discriminant, with the intervals where disc >= 0 and its
        isolated real roots."""
        xi1, xi2, xi3 = first_resultants(self.reduction.quadrics(_S))
        g = xi1.gcd(xi2).gcd(xi3)
        if g.degree() != 2:
            raise NotASelfMotionError(
                "the reduced system does not contain the two-branch curve")
        c2, c1, c0 = _coeffs_in_first(g)
        disc = c1 * c1 - 4 * c2 * c0
        coeffs = tuple(_float_coeffs(p) for p in (c2, c1, c0, disc))
        for c in coeffs:
            c.flags.writeable = False   # shared by every later trace
        intervals, rts = _real_intervals(disc, coeffs[3])
        return coeffs, tuple(intervals), tuple(rts)

    @cached_property
    def _leftover_quadric(self):
        """Type 5: the s3^2 coefficient of Q2, the one reduced quadric that
        involves the leftover coordinate s3 = y3.  Raises
        NotASelfMotionError unless Q3 is a multiple of Q1 or zero, the
        condition for the five constraints to leave a curve.

        The angle row pins x3 = -w x0, so Q1 = x1^2 + x2^2 + (w^2 - 1) x0^2
        is free of s3, and so is Q3, a multiple of Q1.  In Q2 = y1^2 + y2^2
        + y3^2 - 8 x0 n0 the s3^2 coefficient is 1 + T[y1][3]^2 +
        T[y2][3]^2 >= 1, T being rational."""
        q1, q2, q3 = polarise(self.reduction.T, phi_residuals, range(4))
        # Q1 holds x1^2 (x1 is free), so `lead` exists, and Q3 = c Q1 iff
        # each q3[m] q1[lead] equals q1[m] q3[lead]
        lead = next(m for m, c in q1.items() if c)
        if any(q3[m] * q1[lead] != q1[m] * q3[lead] for m in q1):
            raise NotASelfMotionError(
                "the reduced system has no curve: Q3 is not a multiple of Q1")
        return to_float(q2[(0, 0, 0, 2)])


def synth_leg_params(design_type: int, *, a2, a4=None, a5=None, m5,
                     r1sq, p5=None) -> SelfMotionDesign:
    """Leg parameters of a self-motion design in the canonical frame.

    Type 1 needs (a2, a4, m5, r1sq); type 2 needs (a2, m5 with C5 = 0,
    r1sq); type 5 needs (a2, a5, m5, r1sq).  The remaining scalar relation
    is solved for p5 (types 1, 2) or the second squared leg length (type 5).
    """
    a2 = _as_gauss(a2)
    if a2.im == 0:
        raise DegenerateDesignError("a2 must have nonzero imaginary part")
    a3 = a2.conjugate()
    A5, B5, C5 = (exactify(c) for c in m5)
    r1sq = exactify(r1sq)
    two_re = a2.re * 2  # a2 + a3
    norm = a2.abs2()    # a2 * a3

    if design_type == 1:
        a4 = exactify(a4)
        if (a2 - a4).abs2() == 0 or (a3 - a4).abs2() == 0:
            raise DegenerateDesignError("a4 coincides with a2 or a3")
        k = norm - a4 * a4          # a2*a3 - a4^2, real
        p2 = -(GaussRat(A5) * k - _I * GaussRat(B5) * k) / ((a3 - a4) ** 2)
        p4 = k * C5 / ((a2 - a4) * (a3 - a4))
        assert p4.im == 0
        p4 = p4.re
        if k != 0:
            # remaining relation, solved for p5
            s = two_re - 2 * a4
            bracket_known = (-(s) * r1sq
                             - (2 * norm - two_re * a4) * a4)
            lead = ((a2 - a4) ** 2 * (a3 - a4) ** 2).re
            rest = k * k * s * (A5 * A5 + B5 * B5 + C5 * C5)
            # lead * (2 k p5 + bracket_known) + rest = 0
            p5v = (-(rest / lead) - bracket_known) / (2 * k)
            return SelfMotionDesign(1, a2, a4, None, (A5, B5, C5), r1sq,
                                    p2, p4, None, p5v, None)
        # special branch a2*a3 = a4^2: the relation forces r1sq = a4^2
        if r1sq != a4 * a4:
            raise DegenerateDesignError(
                "a2*a3 = a4^2 requires the squared first leg length a4^2")
        p5v = exactify(p5) if p5 is not None else Fraction(0)
        return SelfMotionDesign(1, a2, a4, None, (A5, B5, C5), r1sq,
                                p2, p4, None, p5v, None, special_branch=True)

    if design_type == 2:
        if C5 != 0:
            raise DegenerateDesignError("type 2 requires C5 = 0")
        if norm == 0:
            raise DegenerateDesignError("a2 must be nonzero for type 2")
        p2 = -a2 * (GaussRat(A5) - _I * GaussRat(B5)) / a3
        if two_re == 0:
            raise DegenerateDesignError("a2 + a3 = 0 degenerates type 2")
        p5v = (r1sq * two_re - (A5 * A5 + B5 * B5) * two_re) / (2 * norm)
        return SelfMotionDesign(2, a2, Fraction(0), None, (A5, B5, C5), r1sq,
                                p2, Fraction(0), None, p5v, None)

    if design_type == 5:
        a5 = exactify(a5)
        if a5 == 0:
            raise DegenerateDesignError("a5 must be nonzero for type 5")
        w = C5 / a5
        p2 = -(a3 - a5) * (GaussRat(A5) - _I * GaussRat(B5)) / a5
        r5sq = (r1sq - (two_re) * a5 + a5 * a5
                + (A5 * A5 + B5 * B5 + C5 * C5) * (two_re - a5) / a5)
        if to_float(r5sq) <= 0:
            raise DegenerateDesignError(
                f"the remaining relation gives a nonpositive squared length {r5sq}")
        return SelfMotionDesign(5, a2, None, a5, (A5, B5, C5), r1sq,
                                p2, None, w, None, r5sq)

    raise SelfMotionError(f"unknown design type {design_type}")


def _as_gauss(x) -> GaussRat:
    e = exactify(x)
    return e if isinstance(e, GaussRat) else GaussRat(e)


# ---------------------------------------------------------------------------
# Duporcq condition on user pentapods
# ---------------------------------------------------------------------------

def duporcq_check(p: Pentapod) -> Duporcq:
    """Geometric levels of the replacement-locus condition for Types 1/2/5:
    FIRST_ONLY when the locus lies on a cylinder of revolution, FULL when
    it is a straight cubic circle (circle + orthogonal line for Type 2).
    The decision is exact and takes no tolerance."""
    if p.is_base_planar():
        require_member(p)
        kind = "planar_pencil"
    else:
        corr = replacement_cubic(p)
        kind = cubic_kind(corr)
        if kind in ("type1", "type2", "type5"):
            return _duporcq_level(corr, kind)
    raise SelfMotionError(
        f"Duporcq levels are defined for types 1, 2, 5; got {kind}")


_Z, _R = sp.symbols("z r")


def _duporcq_level(corr: CubicCorrespondence, kind: str) -> Duporcq:
    """Exact level from the conjugate complex ideal directions D of the
    locus and its real axis direction W: FULL iff D.D = 0 and D.W = 0,
    FIRST_ONLY iff (D.D)(W.W) = (D.W)^2.

    D = (d1, d2, d3)(z) at a root z of q.  Per branch:
      affine relation: W = the a^3 coefficients of d1..d3, q = d0;
      Type 2: W = the direction G of the exceptional line, q = d0/gcd,
        and d1..d3 divided by gcd;
      Type 1: W = (d1, d2, d3)(r) at the real root r of f_r, the odd-degree
        factor of d0, and q = (d0(z) - d0(r)) / (z - r).
    Each test is the normal form of an sp.Poly in (z, r) modulo {q, f_r},
    a Groebner basis since the leading terms z^2 and r^k are coprime.  It
    is zero iff the polynomial vanishes at the (real, complex) pair of
    roots: the conjugate of a complex root is the other root of q, and for
    an irreducible cubic of negative discriminant the Galois group S3
    permutes the ordered pairs of distinct roots transitively.  For Type 2
    the conic's plane has the ideal line spanned by D and conj(D), so
    D.G = 0 makes the line orthogonal to that plane and D.D = 0 makes the
    conic a circle.
    """
    ds = (corr.d1, corr.d2, corr.d3)
    f_r = None
    if kind == "type1":
        d0 = corr.d0
        if d0.degree() != 3 or d0.discriminant() >= 0:
            return Duporcq.NONE  # three real or repeated ideal points
        f_r = _lift(next(f for f, _ in d0.factor_list()[1] if f.degree() % 2),
                    _R).reorder(_R, _Z)
        W = [_lift(d, _R) for d in ds]
        q = sp.Poly.from_dict(
            {(i, k - 1 - i): c for (k,), c in d0.terms() for i in range(k)},
            _Z, _R, domain=sp.QQ)
    else:
        if kind == "type5":
            W = [_lift(d.nth(3)) for d in ds]
            q = corr.d0
        else:
            G = _exceptional_points(corr)[0].direction
            if G is None:
                return Duporcq.NONE
            W = [_lift(c) for c in G]
            q = corr.d0.exquo(corr.gcd)
            ds = tuple(d.exquo(corr.gcd) for d in ds)
        if q.degree() != 2 or q.discriminant() >= 0:
            return Duporcq.NONE  # no conjugate complex ideal points
        q = _lift(q)

    def vanishes(P):
        P = P.rem(q)   # the z^2 coefficient of q is a nonzero rational
        if f_r is not None:
            P = P.reorder(_R, _Z).rem(f_r)
        return P.is_zero

    if all(vanishes(c) for c in W):
        return Duporcq.NONE
    D = [_lift(d) for d in ds]
    DD = sum(d * d for d in D)
    DW = sum(d * w for d, w in zip(D, W))
    if vanishes(DD) and vanishes(DW):
        return Duporcq.FULL
    if vanishes(DD * sum(w * w for w in W) - DW * DW):
        return Duporcq.FIRST_ONLY
    return Duporcq.NONE


def _lift(x, gen=_Z):
    """A univariate sp.Poly (in `gen`) or a rational number as an sp.Poly in
    (z, r) over QQ."""
    if not isinstance(x, sp.Poly):
        return sp.Poly.from_dict({(0, 0): sp.QQ.convert(x)}, _Z, _R,
                                 domain=sp.QQ)
    pos = (_Z, _R).index(gen)
    return sp.Poly.from_dict(
        {tuple(k if j == pos else 0 for j in range(2)): c
         for (k,), c in x.terms()}, _Z, _R, domain=sp.QQ)


# ---------------------------------------------------------------------------
# reality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealityVerdict:
    reality: Reality
    method: str  # "empirical" | "fiber-distance"


def reality(design) -> RealityVerdict:
    """Real-vs-complex verdict for a self-motion.

    Planar affine-relation pentapods use the fiber-distance criterion.  A
    design of any type is real iff its configuration curve has real
    points, read off a 16-sample trace; an arc narrower than the sample
    spacing can be missed.
    """
    if isinstance(design, Pentapod):
        out = circular_translation_check(design)
        return RealityVerdict(
            Reality.REAL if out.verdict is Reality.REAL else Reality.COMPLEX,
            "fiber-distance")
    tr = trace(design, samples=16)
    return RealityVerdict(Reality.REAL if tr.samples else Reality.COMPLEX,
                          "empirical")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotionCurveSample:
    t: float
    params: MotionParams
    branch: str


@dataclass(frozen=True)
class TraceResult:
    samples: tuple
    is_real: bool
    intervals: tuple      # real intervals of the curve parameter
    parameter: str        # which motion coordinate parametrizes the curve

    def __iter__(self):
        return iter(self.samples)

    def branches(self):
        out = {}
        for s in self.samples:
            out.setdefault(s.branch, []).append(s)
        return out


def trace(design: SelfMotionDesign, samples: int = 200,
          tol: float = DEFAULT_TOL) -> TraceResult:
    """Sample the configuration curve of a valid design.

    The design's exact stage (its `reduction` of the five linear
    constraints, and the branch curve or the leftover quadric read off the
    reduced quadrics) runs once per design instance; every call then
    evaluates both branches over the real parameter interval(s) in NumPy.
    Returns an empty sample list flagged complex when no real branch
    exists; raises NotASelfMotionError when the reduced system leaves no
    curve.
    """
    if design.type in (1, 2):
        return _trace_type12(design, samples, tol)
    return _trace_type5(design, samples, tol)


_S = sp.symbols("s1 s2 s3")


def _float_coeffs(p: sp.Poly):
    return np.array([complex(c).real for c in p.all_coeffs()])


def _trace_type12(design, samples, tol):
    # s1, s2, s3 = x1, x2, x3; parameter t = x3, branches in x2
    coeffs, intervals, rts = design._branch_curve
    if not intervals:
        return TraceResult((), False, (), "x3")
    t = np.concatenate([np.linspace(lo, hi, max(2, samples))
                        for lo, hi in intervals])
    c2v, c1v, c0v, dv = (np.polyval(c, t) for c in coeffs)
    # at an isolated root the discriminant is zero, not its rounding residue
    dv[np.isin(t, rts)] = 0.0
    keep = (dv >= 0) & (c2v != 0)
    root = np.sqrt(np.maximum(dv, 0.0))
    den = np.where(keep, 2 * c2v, 1.0)
    branches = []
    for sign, branch in ((1.0, "upper"), (-1.0, "lower")):
        m, ok = _complete_samples(design.reduction,
                                  (-c1v + sign * root) / den, t, tol)
        branches.append((branch, m.T.tolist(), ok))
    out = [MotionCurveSample(float(t[i]), MotionParams(*m[i]), branch)
           for i in np.flatnonzero(keep)
           for branch, m, ok in branches if ok[i]]
    return TraceResult(tuple(out), bool(out), intervals, "x3")


def _coeffs_in_first(p: sp.Poly):
    """The coefficients of p in its first generator, highest degree first,
    as sp.Poly in the other generators."""
    n = max(p.degree(), 0)
    parts = [{} for _ in range(n + 1)]
    for mono, c in p.terms():
        parts[n - mono[0]][mono[1:]] = c
    return [sp.Poly.from_dict(d, *p.gens[1:], domain=p.domain)
            for d in parts]


def _complete_samples(red, x2, x3, tol):
    """Solve x1^2 + x2^2 + x3^2 = 1 for x1 at every sample and build the
    motion parameters (9 x N).  Of the two signs of x1 the one with the
    smaller quadric residual is kept; the mask marks samples where one
    passes."""
    rad = 1.0 - x2 * x2 - x3 * x3
    x1 = np.sqrt(np.maximum(rad, 0.0))
    cands = [(red.Tn @ np.array([np.ones_like(x3), sign * x1, x2, x3])).real
             for sign in (1.0, -1.0)]
    errs = [np.abs(phi_residuals(m)).max(axis=0) for m in cands]
    ok = [(err <= tol * SAMPLE_RESIDUAL_SCALE) & (rad >= -tol)
          for err in errs]
    minus = ok[1] & (~ok[0] | (errs[1] < errs[0]))
    return np.where(minus, cands[1], cands[0]), ok[0] | ok[1]


def _real_intervals(disc: sp.Poly, coeffs):
    """Intervals where the branch discriminant is nonnegative, and its
    isolated real roots; `coeffs` are its float coefficients.  A constant
    discriminant gives [-1, 1] when nonnegative; it is identically zero
    when the two branches coincide."""
    from .polyalg import real_roots
    if disc.degree() <= 0:
        return ([(-1.0, 1.0)] if disc.LC() >= 0 else []), []
    rts = sorted(r for r, _ in real_roots(disc))
    bounds = [rts[0] - 1.0] + rts + [rts[-1] + 1.0] if rts else [-1.0, 1.0]
    return _merge_cells([(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
                         if np.polyval(coeffs, 0.5 * (lo + hi)) >= 0]), rts


def _merge_cells(cells):
    if not cells:
        return []
    cells.sort()
    merged = [list(cells[0])]
    for lo, hi in cells[1:]:
        if lo <= merged[-1][1] + CELL_MERGE:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(c) for c in merged]


def _trace_type5(design, samples, tol):
    # free coordinates: x1, x2 and the leftover y3; the platform direction
    # circle is x1^2 + x2^2 = 1 - w^2
    a = design._leftover_quadric     # raises for a bad design
    w = to_float(design.w)
    rad2 = 1.0 - w * w
    if rad2 <= tol:
        return TraceResult((), False, (), "x1")
    lim = math.sqrt(rad2)
    t = np.linspace(-lim, lim, max(2, samples))
    x2abs = np.sqrt(np.maximum(rad2 - t * t, 0.0))
    n = len(t)
    # both signs of x2 in one batch: the "a" samples, then the "b" ones
    sols = _solve_leftover(design.reduction, a, np.concatenate([t, t]),
                           np.concatenate([x2abs, -x2abs]), tol)
    out = [MotionCurveSample(float(t[i]), m, f"{tagx}{k}")
           for i in range(n) for tagx, j in (("a", i), ("b", n + i))
           for k, m in enumerate(sols[j])]
    return TraceResult(tuple(out), bool(out), ((-lim, lim),), "x1")


def _solve_leftover(red, a, x1, x2, tol):
    """Per sample (x1, x2), the configurations over the leftover free
    coordinate s3.  On the line P + s3 D of coordinates, Q2 is the
    quadratic Q2(P) + s3 grad Q2(P).D + s3^2 a, a = Q2(D); its real roots
    are filtered on all three quadrics, all samples at once."""
    P = (red.Tn @ np.array([np.ones_like(x1), x1, x2, np.zeros_like(x1)])).real
    D = red.Tn[:, 3].real
    b = sum((g * d for g, d in zip(phi_gradient(P)[1], D)), np.zeros_like(x1))
    c = phi_residuals(P)[1]
    roots, found = _quadratic_roots(a, b, c)
    found &= ~(np.abs(roots.imag) > LEFTOVER_IMAG_CUT * (1 + np.abs(roots)))
    m = P[:, :, None] + roots.real * D[:, None, None]
    err = np.abs(np.array(phi_residuals(m))).max(axis=0)
    found &= err <= max(tol * LEFTOVER_RESIDUAL_SCALE, LEFTOVER_RESIDUAL_FLOOR)
    return [[MotionParams(*v) for v, ok in zip(vs, oks) if ok]
            for vs, oks in zip(m.transpose(1, 2, 0).tolist(), found.tolist())]


def _quadratic_roots(a, b, c):
    """The roots of a s^2 + b s + c per sample, exactly as `np.roots` gives
    them: an (N, 2) complex array and the mask of its entries that are
    roots.  Rows with a != 0 and c != 0 take one stacked `eigvals` of their
    companion matrices [[-b/a, -c/a], [1, 0]], which is np.roots' own
    computation; np.roots strips a leading or trailing zero, so it keeps
    the other rows."""
    p = np.stack(np.broadcast_arrays(a, b, c), axis=-1).astype(complex)
    roots = np.zeros((len(p), 2), dtype=complex)
    found = np.zeros((len(p), 2), dtype=bool)
    full = (p[:, 0] != 0) & (p[:, 2] != 0)
    q = p[full]
    comp = np.zeros((len(q), 2, 2), dtype=complex)
    comp[:, 0] = -q[:, 1:] / q[:, :1]
    comp[:, 1, 0] = 1
    roots[full] = np.linalg.eigvals(comp)
    found[full] = True
    for i in np.flatnonzero(~full):
        r = np.roots(p[i])
        roots[i, :len(r)] = r
        found[i, :len(r)] = True
    return roots, found


# ---------------------------------------------------------------------------
# compatible legs from a canonical constraint system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LegGenerationError:
    a: object
    reason: str


def real_legs_from_design(design: SelfMotionDesign, a_values):
    """Sphere legs compatible with the same self-motion: for each platform
    coordinate the new sphere condition is matched against the design's
    reduced system (see `_match_sphere`), yielding the base point and the
    squared leg length.  Exceptional coordinates produce per-value error
    entries."""
    red = design.reduction
    out = []
    for a_in in a_values:
        a = exactify(a_in)
        res = _match_sphere(red, a)
        if res is None:
            out.append(LegGenerationError(a, "exceptional platform point: no "
                                             "unique compatible base point"))
            continue
        base, r2 = res
        if any(isinstance(c, GaussRat) and c.im != 0 for c in base) or \
                (isinstance(r2, GaussRat) and r2.im != 0):
            out.append(LegGenerationError(a, "complex compatible leg"))
            continue
        base = tuple(c.re if isinstance(c, GaussRat) else c for c in base)
        r2 = r2.re if isinstance(r2, GaussRat) else r2
        if to_float(r2) <= 0:
            out.append(LegGenerationError(a, f"nonpositive squared length {r2}"))
            continue
        out.append(Leg(a, base, r2))
    return out


def _match_sphere(red: Reduction, a, pick=None):
    """The sphere leg at the exact platform coordinate a compatible with the
    reduced system `red`, as ((A, B, C), r2).

    Its hyperplane h = (4, h1, aA, aB, aC, a, A, B, C) lies in the span of
    the five rows iff h . T[:, j] = 0 for every column j of T.  T's x0 row
    is (1, 0, 0, 0), so the unknown h1 = (a^2 + A^2 + B^2 + C^2 - r2) / 2
    drops out of the columns j = 1, 2, 3: one 3x3 exact solve in
    (A, B, C).  Column 0 then gives h1, hence r2.  A unique solution gives
    the compatible base point; at exceptional platform points the
    solutions form a family and None is returned unless `pick` selects the
    family member particular + pick * basis_vector."""
    T = red.T
    # h . T[:, j] less its x0 term: the coefficients of A, B, C, a constant
    cols = [([a * T[2 + i][j] + T[6 + i][j] for i in range(3)],
             4 * T[0][j] + a * T[5][j]) for j in range(4)]
    sol = mat_solve_general([c for c, _ in cols[1:]],
                            [-k for _, k in cols[1:]])
    if sol is None:
        return None
    if sol[1]:
        if pick is None or len(sol[1]) != 1:
            return None
        pick = exactify(pick)
        sol = [p_ + pick * b for p_, b in zip(sol[0], sol[1][0])]
    else:
        sol = sol[0]
    coef, const = cols[0]
    h1 = -(sum(c * x for c, x in zip(coef, sol)) + const)
    A, B, C = sol
    return (A, B, C), a * a + A * A + B * B + C * C - 2 * h1


def canonical_pentapod(design: SelfMotionDesign, a_values) -> Pentapod:
    """Pentapod whose five legs are compatible with the design's self-motion."""
    legs = real_legs_from_design(design, a_values)
    bad = [l for l in legs if isinstance(l, LegGenerationError)]
    if bad:
        raise SelfMotionError(f"cannot realize legs: {bad[0].reason} "
                              f"at a = {bad[0].a}")
    return Pentapod(tuple(legs))


# ---------------------------------------------------------------------------
# planar circular translation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircularTranslationResult:
    verdict: Reality
    direction: tuple | None = None       # platform direction u (float 3-tuple)
    leg_vector_direction: tuple | None = None  # common direction of M_i m_i

    def motion(self, p: Pentapod, radius: float = 1.0):
        """Explicit circular translation m_i(t) = M1 + a_i u + r delta(t)
        with delta on the circle orthogonal to the common leg direction."""
        if self.verdict is not Reality.REAL:
            raise SelfMotionError("no real circular translation exists")
        u = np.array(self.direction, dtype=float)
        h = np.array(self.leg_vector_direction, dtype=float)
        h = h / np.linalg.norm(h)
        seed = np.array([1.0, 0.0, 0.0])
        if abs(h @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        e1 = np.cross(h, seed)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(h, e1)
        M1 = np.array([to_float(c) for c in p.legs[0].base])
        a1 = to_float(p.legs[0].a)

        def pose(t):
            delta = radius * (math.cos(t) * e1 + math.sin(t) * e2)
            return [tuple(M1 + (to_float(leg.a) - a1) * u + delta)
                    for leg in p.legs]

        return pose


def circular_translation_check(p: Pentapod) -> CircularTranslationResult:
    """Whether a planar pentapod admits a circular translation: an in-plane
    unit platform direction u making all leg vectors a_i u - (M_i - M_1)
    parallel.  Exact consistency solve plus an exact norm test."""
    require_member(p)
    if not p.is_base_planar():
        raise WrongBranchError("circular_translation_check needs a planar base")
    a1 = p.legs[0].a
    M1 = p.legs[0].base
    avals = [leg.a - a1 for leg in p.legs]
    V = [tuple(_sub(leg.base, M1)) for leg in p.legs]
    e1, normal, e2 = _plane_frame(p.base_points)
    E1 = _dot(e1, e1)
    E2 = _dot(e2, e2)
    # u = alpha e1 + beta e2; for each pair the 3D cross product is normal-
    # parallel and bilinear, giving one linear condition in (alpha, beta)
    rows = []
    rhs = []
    for i in range(5):
        for j in range(i + 1, 5):
            # [(a_i u - V_i) x (a_j u - V_j)] . n = 0
            P = tuple(avals[j] * V[i][c] - avals[i] * V[j][c] for c in range(3))
            coef_a = _dot(_cross(e1, P), normal)
            coef_b = _dot(_cross(e2, P), normal)
            const = _dot(_cross(V[i], V[j]), normal)
            rows.append([coef_a, coef_b])
            rhs.append(-const)
    sol = mat_solve_general(rows, rhs)
    if sol is None:
        return CircularTranslationResult(Reality.COMPLEX)
    (alpha, beta), basis = sol
    if not basis:
        # unique candidate direction: real iff exactly unit
        if alpha * alpha * E1 + beta * beta * E2 == 1:
            return _ct_result(normal, avals, V, e1, e2, alpha, beta)
        return CircularTranslationResult(Reality.COMPLEX)
    if len(basis) >= 2:
        # any direction works; pick e1 normalized
        return _ct_result(normal, avals, V, e1, e2,
                          Fraction(1), Fraction(0), force_unit=True)
    (da, db), = basis
    # minimize q(s) = (alpha + s da)^2 E1 + (beta + s db)^2 E2 exactly
    denom = da * da * E1 + db * db * E2
    if denom == 0:
        qmin = alpha * alpha * E1 + beta * beta * E2
        smin = Fraction(0)
    else:
        smin = -(alpha * da * E1 + beta * db * E2) / denom
        qmin = ((alpha + smin * da) ** 2 * E1 + (beta + smin * db) ** 2 * E2)
    if qmin > 1:
        return CircularTranslationResult(Reality.COMPLEX)
    # solve q(s) = 1 for s (real by qmin <= 1)
    qa = denom
    qb = 2 * (alpha * da * E1 + beta * db * E2)
    qc = alpha * alpha * E1 + beta * beta * E2 - 1
    if qa == 0:
        s = -qc / qb if qb else Fraction(0)
        alpha2, beta2 = alpha + s * da, beta + s * db
        return _ct_result(normal, avals, V, e1, e2, alpha2, beta2)
    disc = qb * qb - 4 * qa * qc
    sroot = (-to_float(qb) + math.sqrt(to_float(disc))) / (2 * to_float(qa))
    alpha2 = to_float(alpha) + sroot * to_float(da)
    beta2 = to_float(beta) + sroot * to_float(db)
    return _ct_result(normal, avals, V, e1, e2, alpha2, beta2)


def _ct_result(normal, avals, V, e1, e2, alpha, beta, force_unit=False):
    u = tuple(to_float(alpha) * to_float(c1) + to_float(beta) * to_float(c2)
              for c1, c2 in zip(e1, e2))
    nu = math.sqrt(sum(c * c for c in u))
    if force_unit and nu:
        u = tuple(c / nu for c in u)
    h = None
    for av, Vi in zip(avals, V):
        wv = tuple(to_float(av) * uc - to_float(vc) for uc, vc in zip(u, Vi))
        if any(abs(c) > LEG_VECTOR_ZERO for c in wv):
            h = wv
            break
    if h is None:
        h = tuple(float(c) for c in _cross(u, normal))
    return CircularTranslationResult(Reality.REAL, u, h)
