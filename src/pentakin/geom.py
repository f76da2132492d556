"""Projective and Euclidean predicates: cross-ratio, Moebius transforms,
concyclicity, and homogeneous points.

Ideal (infinite) values are represented explicitly by :data:`INF`, never by
sentinel floats.  All predicates run exactly on exact scalars and fall back
to tolerance comparisons on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyalg import GaussRat, exactify, is_exact, mat_nullspace, mat_rank
from .tol import CONCYCLIC_SVD_FLOOR, MOBIUS_MATCH_FLOOR


class GeomError(ValueError):
    pass


class _ProjectiveInfinity:
    """The ideal value of the projective parameter line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _ProjectiveInfinity()


@dataclass(frozen=True)
class ProjPoint:
    """Homogeneous point (w : x : y : z); finite iff w != 0."""

    w: object
    x: object
    y: object
    z: object

    def __post_init__(self):
        if not (self.w or self.x or self.y or self.z):
            raise GeomError("all homogeneous components are zero")

    @property
    def is_ideal(self) -> bool:
        return not self.w

    def affine(self):
        if self.is_ideal:
            raise GeomError("ideal point has no affine coordinates")
        return (self.x / self.w, self.y / self.w, self.z / self.w)

    def direction(self):
        return (self.x, self.y, self.z)

    @staticmethod
    def finite(x, y, z):
        one = Fraction(1) if all(is_exact(c) for c in (x, y, z)) else 1.0
        return ProjPoint(one, x, y, z)

    @staticmethod
    def ideal(x, y, z):
        zero = Fraction(0) if all(is_exact(c) for c in (x, y, z)) else 0.0
        return ProjPoint(zero, x, y, z)

    def same_point(self, other: "ProjPoint", tol: float = 0.0) -> bool:
        a = (self.w, self.x, self.y, self.z)
        b = (other.w, other.x, other.y, other.z)
        cross = [a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)]
        if tol == 0.0:
            return all(not c for c in cross)
        scale = max(abs(complex(c)) for c in list(a) + list(b))
        return all(abs(complex(c)) <= tol * (1 + scale * scale) for c in cross)


# ---------------------------------------------------------------------------
# collinearity and coplanarity
# ---------------------------------------------------------------------------

def _affine_rank(points):
    return mat_rank([[a - b for a, b in zip(q, points[0])]
                     for q in points[1:]])


def collinear(points) -> bool:
    """Exact collinearity of >= 2 points in 3-space."""
    return len(points) < 3 or _affine_rank(points) <= 1


def coplanar(points) -> bool:
    return len(points) < 4 or _affine_rank(points) <= 2


# ---------------------------------------------------------------------------
# cross-ratio
# ---------------------------------------------------------------------------

def _as_proj_pair(t):
    """Line parameter -> homogeneous pair (num, den); INF -> (1, 0)."""
    if t is INF:
        return (Fraction(1), Fraction(0))
    if is_exact(t):
        t = exactify(t)
        return (t, Fraction(1))
    return (t, 1.0)


def cross_ratio(t1, t2, t3, t4):
    """Cross-ratio ((t1-t3)(t2-t4)) / ((t2-t3)(t1-t4)) of line parameters.

    Parameters may be exact scalars, floats, complex values or INF.  When the
    denominator vanishes with nonzero numerator the ideal value INF is
    returned; a 0/0 combination raises GeomError.
    """
    pairs = [_as_proj_pair(t) for t in (t1, t2, t3, t4)]

    def diff(a, b):
        # determinant of two homogeneous parameters
        return a[0] * b[1] - a[1] * b[0]

    num = diff(pairs[0], pairs[2]) * diff(pairs[1], pairs[3])
    den = diff(pairs[1], pairs[2]) * diff(pairs[0], pairs[3])
    if not den:
        if not num:
            raise GeomError("cross-ratio undefined: too many coincident points")
        return INF
    return num / den


# ---------------------------------------------------------------------------
# Moebius transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusTransform:
    """w -> (z1*w + z2) / (z3*w + z4), with z1*z4 - z2*z3 != 0."""

    z1: object
    z2: object
    z3: object
    z4: object

    def __post_init__(self):
        if not (self.z1 * self.z4 - self.z2 * self.z3):
            raise GeomError("degenerate Moebius transform (zero determinant)")

    def det(self):
        return self.z1 * self.z4 - self.z2 * self.z3

    def apply(self, w):
        if w is INF:
            if not self.z3:
                return INF
            return self.z1 / self.z3
        den = self.z3 * w + self.z4
        num = self.z1 * w + self.z2
        if not den:
            return INF
        return num / den

    __call__ = apply


def _gauss(t):
    """Coerce a parameter to a GaussRat/complex scalar (INF passes through)."""
    if t is INF:
        return INF
    if is_exact(t):
        e = exactify(t)
        return GaussRat(e) if isinstance(e, Fraction) else e
    if isinstance(t, complex):
        return t
    return float(t)


def mobius_from_pairs(sources, targets) -> MobiusTransform:
    """The unique Moebius transform sending three pairwise distinct points
    to three pairwise distinct images.  INF is allowed on either side."""
    if len(sources) != 3 or len(targets) != 3:
        raise GeomError("exactly three source/target pairs required")
    src = [_gauss(t) for t in sources]
    tgt = [_gauss(t) for t in targets]
    for vals, name in ((src, "source"), (tgt, "target")):
        for i in range(3):
            for j in range(i + 1, 3):
                same = (vals[i] is INF and vals[j] is INF) or (
                    vals[i] is not INF and vals[j] is not INF and vals[i] == vals[j])
                if same:
                    raise GeomError(f"coincident {name} points")

    def pair(t):
        if t is INF:
            return (GaussRat(1), GaussRat(0))
        return (t, GaussRat(1))

    rows = []
    for s, t in zip(src, tgt):
        sp_, sq = pair(s)
        tp, tq = pair(t)
        # tq*(z1*sp + z2*sq) - tp*(z3*sp + z4*sq) = 0
        rows.append([tq * sp_, tq * sq, -tp * sp_, -tp * sq])
    null = mat_nullspace(rows)
    if len(null) != 1:
        raise GeomError("Moebius interpolation is degenerate")
    z1, z2, z3, z4 = null[0]
    return MobiusTransform(z1, z2, z3, z4)


def mobius_equivalent(platform, projected_base, tol: float = 0.0) -> bool:
    """True iff the Moebius map built from the first three pairs sends the
    fourth platform point to the fourth projected base point."""
    if len(platform) != 4 or len(projected_base) != 4:
        raise GeomError("four points per side required")
    tau = mobius_from_pairs(platform[:3], projected_base[:3])
    img = tau.apply(_gauss(platform[3]))
    want = _gauss(projected_base[3])
    if img is INF or want is INF:
        return img is want
    if tol == 0.0 and is_exact(img) and is_exact(want):
        return img == want
    return abs(complex(img) - complex(want)) <= (
        max(tol, MOBIUS_MATCH_FLOOR) * (1 + abs(complex(want))))


# ---------------------------------------------------------------------------
# concyclicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcyclicResult:
    concyclic: bool
    collinear: bool   # True when the common "circle" is a line through infinity

    def __bool__(self):
        return self.concyclic


def concyclic(points, tol: float = 0.0) -> ConcyclicResult:
    """Whether >= 4 planar points lie on one circle (or one line).

    Rank test on rows (x^2 + y^2, x, y, 1).  Collinear sets count as the
    limiting circle through infinity and are flagged separately.
    """
    if len(points) < 4:
        raise GeomError("concyclicity needs at least 4 points")
    exact = all(is_exact(x) and is_exact(y) for x, y in points)
    if exact:
        pts = [(exactify(x), exactify(y)) for x, y in points]
        rows = [[x * x + y * y, x, y, Fraction(1)] for x, y in pts]
        on_circle = mat_rank(rows) <= 3
        lin = mat_rank([[x, y, Fraction(1)] for x, y in pts]) <= 2
        return ConcyclicResult(on_circle, on_circle and lin)
    arr = np.array([[float(x) ** 2 + float(y) ** 2, float(x), float(y), 1.0]
                    for x, y in points])
    eff_tol = max(tol, CONCYCLIC_SVD_FLOOR)
    s = np.linalg.svd(arr, compute_uv=False)
    on_circle = bool(s[0] == 0 or (len(s) > 3 and s[3] <= eff_tol * s[0]) or len(s) <= 3)
    s2 = np.linalg.svd(arr[:, 1:], compute_uv=False)
    lin = bool(s2[0] == 0 or (len(s2) > 2 and s2[2] <= eff_tol * s2[0]))
    return ConcyclicResult(on_circle, on_circle and lin)
