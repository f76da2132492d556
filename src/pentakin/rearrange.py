"""Singular-invariant leg-replacement loci and the pentapod taxonomy.

For a planar base the replacement legs attach along a pencil of lines; for a
non-planar base the base-point locus is a cubic space curve given by four
Cramer polynomials d0..d3 in the platform coordinate.  The taxonomy (Types
1-4, affine-relation Type 5, planar pencil) is decided by exact counts of
consistent roots of d0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np
import sympy as sp

from .archsing import (WrongBranchError, classify_arch, planar_D,
                       planar_relabeling, validate_assumptions, _sub, _dot,
                       _plane_frame, _D_ijk)
from .geom import ProjPoint
from .kinmap import Pentapod
from .polyalg import mat_solve_general, exactify

A_SYM = sp.Symbol("a")


class RearrangeError(ValueError):
    pass


class ArchSingularInputError(RearrangeError):
    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            f"architecturally singular pentapod (case {verdict.case}); "
            "use classify_arch for details")


def require_member(p: Pentapod):
    """Non-architectural-singularity plus assumptions (i,ii,iii)."""
    verdict = classify_arch(p)
    if verdict.singular:
        raise ArchSingularInputError(verdict)
    validate_assumptions(p).raise_if_violated()
    return verdict


# ---------------------------------------------------------------------------
# planar pencil
# ---------------------------------------------------------------------------

def planar_vertex(p: Pentapod) -> ProjPoint:
    """Common point of the planar replacement line family: finite vertex or
    ideal point for a parallel pencil, in user coordinates."""
    require_member(p)
    if not p.is_base_planar():
        raise WrongBranchError("planar_vertex needs a planar base")
    perm = planar_relabeling(p)
    D = planar_D(p, perm).as_tuple()
    d1, d2, d3, d4, d5 = D
    # line family (d2 + a d4) A + (d3 + a d5) B + a d1 = 0: pencil spanned by
    # the a^0 and a^1 line coordinates
    l0 = (d2, d3, Fraction(0))
    l1 = (d4, d5, d1)
    vx = l0[1] * l1[2] - l0[2] * l1[1]
    vy = l0[2] * l1[0] - l0[0] * l1[2]
    vw = l0[0] * l1[1] - l0[1] * l1[0]
    if not (vx or vy or vw):
        raise RearrangeError("degenerate pencil: the line family is constant")
    # back to user coordinates through the scaled in-plane frame
    M = [p.base_points[i] for i in perm]
    origin = M[0]
    plane_x, _, plane_y = _plane_frame(M)
    e1n = _dot(plane_x, plane_x)
    e2n = _dot(plane_y, plane_y)
    direction = tuple(vx * e2n * plane_x[c] + vy * e1n * plane_y[c]
                      for c in range(3))
    if vw == 0:
        return ProjPoint(Fraction(0), *direction)
    scaled = tuple(origin[c] + (vx * plane_x[c] / e1n) / vw
                   + (vy * plane_y[c] / e2n) / vw for c in range(3))
    return ProjPoint(Fraction(1), *scaled)


# ---------------------------------------------------------------------------
# non-planar correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicCorrespondence:
    """Base-point locus of leg replacements: homogeneous image point
    (d0(a) : d1(a) : d2(a) : d3(a)) over the shifted platform coordinate.

    d0..d3 are the raw Cramer polynomials (integer content removed); gcd is
    their common polynomial factor, whose roots are the exceptional platform
    points mapping to whole lines.
    """

    d0: sp.Poly
    d1: sp.Poly
    d2: sp.Poly
    d3: sp.Poly
    gcd: sp.Poly
    a_shift: object                 # user a = stored a + a_shift
    base_shift: tuple               # user M = stored M + base_shift
    affine_relation: bool           # True for the affine-relation branch
    system: tuple = field(repr=False, default=None)  # (M0, M1, r1) with
    # M(a) (A,B,C)^T = a * r1; entries Fractions, in axis_perm coordinates
    axis_perm: tuple = (0, 1, 2)

    def polys(self):
        return (self.d0, self.d1, self.d2, self.d3)


@dataclass(frozen=True)
class ExceptionalImage:
    """Marker for a platform point mapped to a whole line of base points."""

    a: object                      # user-frame platform coordinate
    point: tuple | None            # one point of the line (user frame)
    direction: tuple | None        # line direction; None if undetermined


def _content_normalize(polys):
    """The Cramer polynomials over ZZ: divided by the joint rational content
    of all their coefficients, signed so that the first nonzero one has a
    positive leading coefficient."""
    coeffs = [c for q in polys for c in q.coeffs() if c]
    if not coeffs:
        raise RearrangeError("all replacement polynomials vanish identically")
    c = sp.Rational(math.gcd(*(int(c.p) for c in coeffs)),
                    math.lcm(*(int(c.q) for c in coeffs)))
    if next(q.LC() for q in polys if not q.is_zero) < 0:
        c = -c
    return [q.quo_ground(c).to_ring() for q in polys]


def replacement_cubic(p: Pentapod) -> CubicCorrespondence:
    """Cramer polynomials of the replacement system: the 3x3 linear system
    for D567 != 0, or its affine-relation variant for D567 = 0."""
    require_member(p)
    if p.is_base_planar():
        raise WrongBranchError("replacement_cubic needs a non-planar base")
    a1 = p.legs[0].a
    M1 = p.legs[0].base
    a = [leg.a - a1 for leg in p.legs]
    M = [tuple(_sub(leg.base, M1)) for leg in p.legs]
    D = partial(_D_ijk, a, M)
    D567 = D(5, 6, 7)
    perm = (0, 1, 2)
    if D567 != 0:
        M0, Mlin, r1 = _system_generic(D)
        ar = False
    else:
        out = _system_affine_relation(a, M)
        if out is None:
            raise RearrangeError(
                "replacement system degenerates: D167 = D157 = D156 = 0 in "
                "every admissible frame, impossible for the working class")
        M0, Mlin, r1, perm = out
        ar = True
    d0, ds = _cramer(M0, Mlin, r1)
    ds = _unpermute(ds, perm)
    polys = _content_normalize([d0, *ds])
    g = polys[0]
    for q in polys[1:]:
        g = g.gcd(q)
    return CubicCorrespondence(*polys, gcd=g, a_shift=a1, base_shift=M1,
                               affine_relation=ar, system=(M0, Mlin, r1),
                               axis_perm=perm)


def _system_generic(D):
    D567 = D(5, 6, 7)
    M0 = [[D(2, 6, 7), -D(3, 6, 7), D(4, 6, 7)],
          [D(2, 5, 7), -D(3, 5, 7), D(4, 5, 7)],
          [D(2, 5, 6), -D(3, 5, 6), D(4, 5, 6)]]
    Mlin = [[-D567, Fraction(0), Fraction(0)],
            [Fraction(0), -D567, Fraction(0)],
            [Fraction(0), Fraction(0), -D567]]
    r1 = [D(1, 6, 7), D(1, 5, 7), D(1, 5, 6)]
    return M0, Mlin, r1


_AXIS_PERMS = ((0, 1, 2), (1, 0, 2), (2, 1, 0))


def _system_affine_relation(a, M):
    """Affine-relation replacement system, permuting base axes until the
    leading determinant of its branch is nonzero."""
    for perm in _AXIS_PERMS:
        Mp = [tuple(q[c] for c in perm) for q in M]
        D = partial(_D_ijk, a, Mp)
        if D(1, 6, 7) == 0:
            continue
        M0 = [[D(2, 6, 7), -D(3, 6, 7), D(4, 6, 7)],
              [D(1, 2, 6), -D(1, 3, 6), D(1, 4, 6)],
              [D(1, 2, 7), -D(1, 3, 7), D(1, 4, 7)]]
        Mlin = [[Fraction(0)] * 3,
                [-D(1, 5, 6), Fraction(0), D(1, 6, 7)],
                [-D(1, 5, 7), D(1, 6, 7), Fraction(0)]]
        r1 = [D(1, 6, 7), Fraction(0), Fraction(0)]
        return M0, Mlin, r1, perm
    return None


def _cramer(M0, Mlin, r1):
    """Cramer polynomials of M(a) x = a r1 with M(a) = M0 + a Mlin: d0 =
    det M(a), and d1..d3 the determinants with column c replaced by a r1,
    by cofactor expansion on linear sp.Poly over QQ."""
    M = [[_linear(Mlin[i][j], M0[i][j]) for j in range(3)] for i in range(3)]
    rhs = [_linear(r1[i], 0) for i in range(3)]
    ds = [_det3([[rhs[i] if j == c else M[i][j] for j in range(3)]
                 for i in range(3)]) for c in range(3)]
    return _det3(M), ds


def _linear(c1, c0):
    return sp.Poly.from_list([sp.QQ.convert(c1), sp.QQ.convert(c0)], A_SYM,
                             domain=sp.QQ)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _unpermute(ds, perm):
    out = [None, None, None]
    for stored, axis in enumerate(perm):
        out[axis] = ds[stored]
    return out


def sigma(c: CubicCorrespondence, a):
    """Image of platform coordinate a: a finite base point (ProjPoint), an
    ideal point of the locus, or an ExceptionalImage line marker."""
    av = exactify(a)
    asys = sp.Rational(av - c.a_shift)
    d0v, *ds = (Fraction(int(v.p), int(v.q))
                for v in (d.eval(asys) for d in c.polys()))
    if d0v:
        return ProjPoint(Fraction(1), *(v / d0v + s
                                        for v, s in zip(ds, c.base_shift)))
    if any(ds):
        return ProjPoint(Fraction(0), *ds)
    return _exceptional_image(c, av, asys)


def _exceptional_image(c, a_user, asys):
    M0, Mlin, r1 = c.system
    af = Fraction(int(asys.p), int(asys.q))
    rows = [[M0[i][j] + af * Mlin[i][j] for j in range(3)] for i in range(3)]
    rhs = [af * r1[i] for i in range(3)]
    out = mat_solve_general(rows, rhs)
    if out is None:
        return ExceptionalImage(a_user, None, None)
    point, basis = out
    direction = tuple(basis[0]) if basis else None
    if c.axis_perm != (0, 1, 2):
        # the raw system lives in permuted base axes; undo
        point = tuple(_unpermute(list(point), c.axis_perm))
        if direction:
            direction = tuple(_unpermute(list(direction), c.axis_perm))
    point = tuple(pc + s for pc, s in zip(point, c.base_shift))
    return ExceptionalImage(a_user, point, direction)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DarbouxPoint:
    """A platform point whose image is an ideal point of the base locus.

    `a` is the user-frame platform coordinate as an exact sympy number: a
    Rational for a rational root of d0/gcd, otherwise ``CRootOf(f, k) +
    a_shift`` for the k-th root of an irreducible factor f of d0/gcd over
    QQ.  `direction` is the ideal direction (d1 : d2 : d3) at the root:
    Fractions for a rational root, complex floats otherwise.
    `multiplicity` comes from the factorisation of d0/gcd and `is_real`
    from the root isolation of CRootOf.
    """

    a: object
    direction: tuple
    multiplicity: int
    is_real: bool


@dataclass(frozen=True)
class IdealElement:
    kind: str          # "point" | "line" | "plane"
    direction: tuple | None


@dataclass(frozen=True)
class PentapodClass:
    kind: str  # "planar_pencil" | "type1".."type5"
    vertex: ProjPoint | None = None
    correspondence: CubicCorrespondence | None = None
    darboux_points: tuple = ()
    mannheim_image: tuple | None = None
    exceptional_points: tuple = ()
    ideal_element: IdealElement | None = None

    @property
    def type_index(self) -> int | None:
        if self.kind.startswith("type"):
            return int(self.kind[4:])
        return None


def classify_type(p: Pentapod) -> PentapodClass:
    """Planar pencil, Types 1-4 (cubic locus splitting) or Type 5 (affine
    relation).  Raises ArchSingularInputError on architecturally singular
    input (through planar_vertex or replacement_cubic)."""
    if p.is_base_planar():
        return PentapodClass(kind="planar_pencil", vertex=planar_vertex(p))
    corr = replacement_cubic(p)
    kind = cubic_kind(corr)
    if kind == "type5":
        return PentapodClass(
            kind=kind, correspondence=corr,
            darboux_points=_darboux_points(corr),
            ideal_element=_ideal_element(corr))
    return PentapodClass(
        kind=kind, correspondence=corr,
        darboux_points=_darboux_points(corr),
        mannheim_image=_mannheim_image(corr),
        exceptional_points=_exceptional_points(corr))


def cubic_kind(corr: CubicCorrespondence) -> str:
    """Taxonomy type of a non-planar member from its correspondence alone:
    Type 5 for the affine relation, else Type 1 + deg gcd."""
    if corr.affine_relation:
        return "type5"
    return f"type{1 + corr.gcd.degree()}"


def _darboux_points(corr: CubicCorrespondence):
    """Platform points mapped to ideal points of the base locus: the roots
    of d0/gcd with their image directions.

    Real points come first in ascending order, then the complex points by
    real and imaginary part.  No radical is formed: the roots come from
    the factorisation of d0/gcd over QQ and CRootOf isolation.
    """
    ds = (corr.d1, corr.d2, corr.d3)
    out = []
    for root, mult in _exact_roots(corr.d0.exquo(corr.gcd)):
        if isinstance(root, sp.Rational):
            direction = tuple(exactify(d.eval(root)) for d in ds)
        else:
            z = complex(root)
            direction = tuple(
                complex(np.polyval([complex(c) for c in d.all_coeffs()], z))
                for d in ds)
        out.append(DarbouxPoint(a=root + sp.Rational(corr.a_shift),
                                direction=direction, multiplicity=mult,
                                is_real=bool(root.is_real)))
    return tuple(sorted(out, key=_root_order))


def _exact_roots(poly: sp.Poly):
    """Distinct roots of a polynomial over QQ with their multiplicities,
    from its factorisation: a Rational for a linear factor, a CRootOf for
    each root of an irreducible factor of higher degree."""
    for fac, mult in poly.factor_list()[1]:
        for root in fac.all_roots(radicals=False):
            yield root, mult


def _root_order(dp: DarbouxPoint):
    z = complex(dp.a)
    return (not dp.is_real, z.real, z.imag)


def _mannheim_image(corr: CubicCorrespondence):
    """Finite image of the platform ideal point: top-degree coefficient point."""
    if corr.affine_relation:
        return None
    n = corr.d0.degree()
    lead = [int(d.nth(n)) for d in corr.polys()]
    return tuple(Fraction(l, lead[0]) + s
                 for l, s in zip(lead[1:], corr.base_shift))


def _exceptional_points(corr: CubicCorrespondence):
    out = []
    for root, _ in _exact_roots(corr.gcd):
        a_user = root + sp.Rational(corr.a_shift)
        if isinstance(root, sp.Rational):
            out.append(_exceptional_image(corr, a_user, root))
        else:
            out.append(ExceptionalImage(a_user, None, None))
    return tuple(out)


def _ideal_element(corr: CubicCorrespondence) -> IdealElement:
    """Image of the platform ideal point for the affine-relation branch.

    Solutions (X : Y : Z : W) of the homogenized replacement system at the
    platform ideal point satisfy W = 0; the dimension of the ideal solution
    set decides point / line / plane.
    """
    from .polyalg import mat_nullspace
    M0, Mlin, r1 = corr.system
    # limit system: Mlin (X,Y,Z)^T - W r1 = 0, solutions in P^3
    rows = [list(Mlin[i]) + [-r1[i]] for i in range(3)]
    null = mat_nullspace(rows)
    ideal_sols = [v for v in null if v[3] == 0]
    if len(ideal_sols) == 1 and len(null) == len(ideal_sols):
        direction = tuple(_unpermute(list(ideal_sols[0][:3]), corr.axis_perm))
        return IdealElement("point", direction)
    if len(ideal_sols) == 2:
        return IdealElement("line", None)
    return IdealElement("plane", None)
