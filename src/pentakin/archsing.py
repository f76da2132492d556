"""Architectural singularity detection for pentapods with linear platform,
plus the planar and non-planar replacement determinants.

The nine singular designs are tested combinatorially over anchor-point
relabelings; all decisions are exact on the rational embeddings of the
input coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .geom import INF, GeomError, collinear, coplanar, cross_ratio
from .kinmap import Pentapod
from .polyalg import mat_det, mat_rank

_IDX5 = tuple(range(5))


class ArchsingError(ValueError):
    pass


class AssumptionViolationError(ArchsingError):
    def __init__(self, item: str, message: str):
        self.item = item
        super().__init__(f"assumption ({item}) violated: {message}")


class WrongBranchError(ArchsingError):
    """Planar operation on a non-planar pentapod or vice versa."""


@dataclass(frozen=True)
class AssumptionReport:
    violations: tuple  # of (item, message)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self):
        if self.violations:
            item, message = self.violations[0]
            raise AssumptionViolationError(item, message)


@dataclass(frozen=True)
class ArchVerdict:
    singular: bool
    case: int | None = None
    witness: tuple | None = None  # (indices, note)


@dataclass(frozen=True)
class PlanarD:
    d1: object
    d2: object
    d3: object
    d4: object
    d5: object
    relabeling: tuple = _IDX5

    def as_tuple(self):
        return (self.d1, self.d2, self.d3, self.d4, self.d5)


# ---------------------------------------------------------------------------
# small exact vector helpers
# ---------------------------------------------------------------------------

def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _plane_frame(points):
    """The in-plane frame (e1, n, e2) of coplanar points: e1 the first
    nonzero difference from points[0], n the first nonzero cross product
    of e1 with such a difference, and e2 = n x e1.  For collinear points n
    is any vector perpendicular to e1.  Raises ArchsingError when all
    points coincide."""
    origin = points[0]
    diffs = [_sub(q, origin) for q in points[1:]]
    e1 = next((d for d in diffs if any(d)), None)
    if e1 is None:
        raise ArchsingError("all base points coincide")
    n = next((v for v in (_cross(e1, d) for d in diffs) if any(v)), None)
    if n is None:  # collinear; pick any perpendicular
        n = _cross(e1, (Fraction(1), Fraction(0), Fraction(0)))
        if not any(n):
            n = _cross(e1, (Fraction(0), Fraction(1), Fraction(0)))
    return e1, n, _cross(n, e1)


# ---------------------------------------------------------------------------
# assumptions (i), (ii), (iii)
# ---------------------------------------------------------------------------

def validate_assumptions(p: Pentapod) -> AssumptionReport:
    """Check the three membership assumptions for the working class:
    (i) no three platform anchor points coincide, (ii) a coincident platform
    pair leaves the remaining three base points non-collinear, (iii) no four
    base anchor points are collinear."""
    a = p.platform
    M = p.base_points
    violations = []
    for group in _coincidence_groups(a):
        if len(group) >= 3:
            violations.append(("i", "three platform anchor points coincide "
                               f"(legs {tuple(i + 1 for i in group)})"))
            break
    for group in _coincidence_groups(a):
        if len(group) == 2:
            rest = [M[i] for i in _IDX5 if i not in group]
            if collinear(rest):
                violations.append(
                    ("ii", "platform pair "
                     f"{tuple(i + 1 for i in group)} coincides while the "
                     "remaining base anchor points are collinear"))
    for quad in itertools.combinations(_IDX5, 4):
        if collinear([M[i] for i in quad]):
            violations.append(("iii", "four base anchor points are collinear "
                               f"(legs {tuple(i + 1 for i in quad)})"))
            break
    return AssumptionReport(tuple(violations))


def _coincidence_groups(values):
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return [tuple(g) for g in groups.values() if len(g) > 1]


# ---------------------------------------------------------------------------
# classify_arch: the nine singular designs
# ---------------------------------------------------------------------------

def classify_arch(p: Pentapod) -> ArchVerdict:
    """Detect the nine architecturally singular designs; ties report the
    lowest case number.  Fully coincident legs are rejected at Pentapod
    construction already."""
    a = p.platform
    M = p.base_points

    base_eq = {(i, j) for i, j in itertools.combinations(_IDX5, 2) if M[i] == M[j]}
    plat_eq = {(i, j) for i, j in itertools.combinations(_IDX5, 2) if a[i] == a[j]}
    col3 = {t for t in itertools.combinations(_IDX5, 3) if collinear([M[i] for i in t])}
    base_coplanar = coplanar(list(M))

    def beq(i, j):
        return tuple(sorted((i, j))) in base_eq

    def peq(i, j):
        return tuple(sorted((i, j))) in plat_eq

    # case 1: three coincident base points
    for t in itertools.combinations(_IDX5, 3):
        if beq(t[0], t[1]) and beq(t[0], t[2]):
            return ArchVerdict(True, 1, (t, "three coincident base points"))

    # case 2: three coincident platform points with collinear base points
    for t in itertools.combinations(_IDX5, 3):
        if peq(t[0], t[1]) and peq(t[0], t[2]) and t in col3:
            return ArchVerdict(True, 2, (t, "coincident platform triple on "
                                            "collinear base points"))

    # case 3: four collinear base points with matching cross-ratios
    for q in itertools.combinations(_IDX5, 4):
        pts = [M[i] for i in q]
        if not collinear(pts):
            continue
        tb = _line_parameters(pts)
        if tb is None:
            continue
        try:
            crm = cross_ratio(*(a[i] for i in q))
            crM = cross_ratio(*tb)
        except GeomError:
            continue
        if _proj_equal(crm, crM):
            return ArchVerdict(True, 3, (q, "regulus: equal cross-ratios"))

    # case 4: four coincident platform points
    for q in itertools.combinations(_IDX5, 4):
        if all(peq(q[0], i) for i in q[1:]):
            return ArchVerdict(True, 4, (q, "four coincident platform points"))

    # case 5: all base points collinear
    if collinear(list(M)):
        return ArchVerdict(True, 5, (_IDX5, "all base points collinear"))

    # case 6: coincident platform triple and coincident base pair
    for t in itertools.combinations(_IDX5, 3):
        if peq(t[0], t[1]) and peq(t[0], t[2]):
            rest = tuple(i for i in _IDX5 if i not in t)
            if beq(*rest):
                return ArchVerdict(True, 6, (t + rest, "platform triple with "
                                                       "coincident base pair"))

    # case 7: two coincident platform pairs; the base line of one pair and
    # the base line of the single leg both pass through a hub point of the
    # other pair
    for pair1, pair2 in itertools.combinations(sorted(plat_eq), 2):
        if set(pair1) & set(pair2):
            continue
        (s,) = set(_IDX5) - set(pair1) - set(pair2)
        for pa, pb in ((pair1, pair2), (pair2, pair1)):
            for hub in pb:
                other = pb[1] if hub == pb[0] else pb[0]
                if (collinear([M[pa[0]], M[pa[1]], M[hub]])
                        and collinear([M[s], M[other], M[hub]])):
                    return ArchVerdict(
                        True, 7, (pa + (s, other, hub),
                                  "two platform pairs, base lines meeting "
                                  "in one pair's base point"))

    # case 8: planar base, projective correspondence onto a conic
    if (base_coplanar and not plat_eq and not col3
            and _conic_correspondence_rank(a, M) <= 8):
        return ArchVerdict(True, 8, (_IDX5, "projective correspondence onto "
                                            "a conic"))

    # case 9: coincident platform pair against a base line intersection
    if base_coplanar:
        for pair in sorted(plat_eq):
            rest = tuple(i for i in _IDX5 if i not in pair)
            for t in itertools.permutations(rest):
                if tuple(sorted(t)) not in col3:
                    continue
                hit = _case9_cross_ratio(a, M, t, pair)
                if hit:
                    return ArchVerdict(True, 9, (t + pair, "cross-ratio against "
                                                           "the line intersection"))
                break  # ordering of the collinear triple does not matter
    return ArchVerdict(False)


def _line_parameters(points):
    """Affine parameters of collinear points along their carrier line."""
    base = points[0]
    direction = None
    for q in points[1:]:
        d = _sub(q, base)
        if any(d):
            direction = d
            break
    if direction is None:
        return None
    n2 = _dot(direction, direction)
    return [_dot(_sub(q, base), direction) / n2 for q in points]


def _proj_equal(u, v):
    if u is INF or v is INF:
        return u is v
    return u == v


def _conic_correspondence_rank(a, M) -> int:
    """Rank of the homogeneous system for a degree-2 correspondence from the
    platform line onto a conic through the base points (plane coordinates)."""
    X, Y = _inplane_coords(M)
    zero = [Fraction(0)] * 3
    rows = []
    for i in range(5):
        mono = [a[i] * a[i], a[i], Fraction(1)]
        # unknowns: coefficients of (q0, q1, q2); point condition
        # (q0(a_i) : q1(a_i) : q2(a_i)) ~ (1 : X_i : Y_i)
        rows.append([-X[i] * m for m in mono] + mono + zero)
        rows.append([-Y[i] * m for m in mono] + zero + mono)
    return mat_rank(rows)


def _inplane_coords(M):
    """Exact orthogonal (anisotropically scaled) coordinates in the base
    plane; requires coplanar base points."""
    origin = M[0]
    e1, _, e2 = _plane_frame(M)
    X = [_dot(_sub(q, origin), e1) for q in M]
    Y = [_dot(_sub(q, origin), e2) for q in M]
    return X, Y


def _case9_cross_ratio(a, M, triple, pair) -> bool:
    i, j, k = triple
    l, m = pair
    if M[l] == M[m]:
        return False
    tb = _line_parameters([M[i], M[j], M[k]])
    if tb is None:
        return False
    # intersection of [M_l, M_m] with the carrier line of the triple
    P0, d1 = M[i], _sub(M[j], M[i])
    if not any(d1):
        d1 = _sub(M[k], M[i])
    Q0, d2 = M[l], _sub(M[m], M[l])
    sol = _intersect_lines(P0, d1, Q0, d2)
    if sol is None:
        return False
    tM = sol  # parameter along (P0, d1) matching _line_parameters; INF if parallel
    try:
        crm = cross_ratio(a[i], a[j], a[k], a[l])
        crM = cross_ratio(tb[0], tb[1], tb[2], tM)
    except GeomError:
        return False
    return _proj_equal(crm, crM)


def _intersect_lines(P0, d1, Q0, d2):
    """Parameter t with P0 + t*d1 on the line (Q0, d2); INF when parallel,
    None when skew."""
    if not any(_cross(d1, d2)):
        # parallel (or same); intersection at the common ideal point
        return INF
    # solve P0 + t d1 = Q0 + s d2 in the least-squares-free exact way
    rows = []
    rhs = []
    for c in range(3):
        rows.append([d1[c], -d2[c]])
        rhs.append(Q0[c] - P0[c])
    from .polyalg import mat_solve_general
    out = mat_solve_general(rows, rhs)
    if out is None:
        return None
    (t, _s), _ = out
    return t


# ---------------------------------------------------------------------------
# planar determinants D1..D5
# ---------------------------------------------------------------------------

def planar_relabeling(p: Pentapod) -> tuple:
    """First relabeling satisfying: M1 != M2; M1,M2,M3 and M1,M2,M4 not
    collinear; m3 != m4.  Raises naming the violated assumption when no
    relabeling exists."""
    a = p.platform
    M = p.base_points
    for perm in itertools.permutations(_IDX5):
        i1, i2, i3, i4, _ = perm
        if M[i1] == M[i2]:
            continue
        if collinear([M[i1], M[i2], M[i3]]):
            continue
        if collinear([M[i1], M[i2], M[i4]]):
            continue
        if a[i3] == a[i4]:
            continue
        return perm
    validate_assumptions(p).raise_if_violated()
    raise ArchsingError("no admissible relabeling exists for this pentapod")


def planar_D(p: Pentapod, relabeling: tuple | None = None) -> PlanarD:
    """The five 4x4 determinants of the planar replacement system, computed
    in the canonical planar frame (exact, orthogonal in-plane axes with
    rational scaling)."""
    if not p.is_base_planar():
        raise WrongBranchError("planar_D needs a planar base")
    perm = relabeling or planar_relabeling(p)
    a = [p.platform[i] for i in perm]
    M = [p.base_points[i] for i in perm]
    a = [v - a[0] for v in a]
    X, Y = _inplane_coords(M)
    A = X[1:]
    B = Y[1:]
    av = [v for v in a[1:]]
    aA = [v * x for v, x in zip(av, A)]
    aB = [v * y for v, y in zip(av, B)]
    cols = {"a": av, "A": A, "B": B, "aA": aA, "aB": aB}

    def det_of(names):
        return mat_det([[cols[n][r] for n in names] for r in range(4)])

    d1 = det_of(("A", "B", "aA", "aB"))
    d2 = -det_of(("a", "B", "aA", "aB"))
    d3 = det_of(("a", "A", "aA", "aB"))
    d4 = -det_of(("a", "A", "B", "aB"))
    d5 = det_of(("a", "A", "B", "aA"))
    return PlanarD(d1, d2, d3, d4, d5, perm)


# ---------------------------------------------------------------------------
# non-planar determinants D_ijk
# ---------------------------------------------------------------------------

def nonplanar_relabeling(p: Pentapod) -> tuple:
    """First relabeling with M1..M4 spanning a tetrahedron and the fifth
    point in admissible position."""
    M = p.base_points
    pairwise_distinct = len(set(M)) == 5
    for perm in itertools.permutations(_IDX5):
        Mp = [M[i] for i in perm]
        if coplanar(Mp[:4]):
            continue
        if pairwise_distinct:
            if any(collinear([Mp[0], Mp[i], Mp[4]]) for i in (1, 2, 3)):
                continue
        else:
            if any(Mp[0] == Mp[i] for i in range(1, 5)):
                continue
        return perm
    raise ArchsingError("no admissible non-planar relabeling (degenerate base)")


def nonplanar_frame_coords(p: Pentapod, relabeling: tuple):
    """Shift + orthogonal scaled rotation so that A2 B3 C4 != 0 holds."""
    a = [p.platform[i] for i in relabeling]
    M = [p.base_points[i] for i in relabeling]
    a = [v - a[0] for v in a]
    origin = M[0]
    e1 = _sub(M[1], origin)
    n = _cross(e1, _sub(M[2], origin))
    e2 = _cross(n, e1)
    e3 = n
    coords = [(_dot(_sub(q, origin), e1), _dot(_sub(q, origin), e2),
               _dot(_sub(q, origin), e3)) for q in M]
    return a, coords


def nonplanar_D(p: Pentapod, i: int, j: int, k: int,
                relabeling: tuple | None = None):
    """Determinant D_ijk of the 4x7 replacement matrix with columns
    (a, A, B, C, aA, aB, aC) after removing 1-indexed columns i, j, k."""
    if p.is_base_planar():
        raise WrongBranchError("nonplanar_D needs a non-planar base")
    perm = relabeling or nonplanar_relabeling(p)
    a, M = nonplanar_frame_coords(p, perm)
    return _D_ijk(a, M, i, j, k)


def _D_ijk(a, M, i, j, k):
    """D_ijk over shifted legs 2..5; a and M are length-5 with zero first."""
    rows = []
    for v, (A, B, C) in zip(a[1:], M[1:]):
        rows.append([v, A, B, C, v * A, v * B, v * C])
    keep = [c for c in range(7) if c + 1 not in (i, j, k)]
    return mat_det([[row[c] for c in keep] for row in rows])
