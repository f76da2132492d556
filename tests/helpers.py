"""Constructions of pentapods in each class of the taxonomy, used across the
test modules and the acceptance suite."""

from fractions import Fraction as F

from pentakin import GaussRat, Leg, Pentapod
from pentakin.kinmap import ConstraintHyperplane
_I = GaussRat(0, 1)


def ar_planar_pentapod(lam=F(1, 2), ys=(0, 2, -1, 5, 3)):
    """Planar pentapod satisfying the affine relation: base x-coordinates
    proportional to the platform coordinates."""
    avals = (0, 1, 2, 3, 4)
    return Pentapod(tuple(Leg(a, (lam * a, F(y), 0))
                          for a, y in zip(avals, ys)))


def congruent_projection_pentapod(ys=(0, 2, -1, 5, 3)):
    """Planar pentapod whose fiber spacing equals the platform spacing: the
    circular-translation case."""
    return ar_planar_pentapod(lam=F(1), ys=ys)


def stretched_fiber_pentapod(ys=(0, 2, -1, 5, 3)):
    """Fibers spread wider than the platform images: no real self-motion."""
    return ar_planar_pentapod(lam=F(2), ys=ys)


def ideal_vertex_pentapod(g=F(1, 3), d=F(1, 7), ys=(0, 2, -1, 5, 3)):
    """Planar pentapod with a parallel replacement pencil (ideal vertex) but
    no affine relation: fiber offsets form a non-affine Moebius pattern."""
    avals = (0, 1, 2, 3, 4)

    def beta(t):
        return g * t / (1 + d * t)

    return Pentapod(tuple(Leg(a, (beta(F(a)), F(y), 0))
                          for a, y in zip(avals, ys)))


def finite_vertex_pentapod():
    """Generic planar pentapod (finite replacement-pencil vertex)."""
    coords = [(0, (0, 0, 0)), (1, (2, 1, 0)), (2, (-1, 3, 0)),
              (3, (4, -2, 0)), (5, (1, 5, 0))]
    return Pentapod(tuple(Leg(a, M) for a, M in coords))


def type3_pentapod():
    """Two platform pairs on skew lines through a finite transversal."""
    legs = [(0, (0, 0, 1)), (0, (0, 0, 2)), (1, (1, 1, 0)), (1, (1, 2, 0)),
            (2, (5, 0, 0))]
    return Pentapod(tuple(Leg(a, M) for a, M in legs))


def type4_pentapod():
    """Base points on three concurrent non-coplanar lines through (1,1,1)."""
    legs = [(0, (2, 1, 1)), (1, (1, 2, 1)), (1, (1, 3, 1)), (2, (1, 1, 2)),
            (2, (1, 1, 3))]
    return Pentapod(tuple(Leg(a, M) for a, M in legs))


def type5_parallel_lines_pentapod():
    """Affine-relation design with coincident platform pairs and parallel
    base lines: the non-planar analog of the ideal-vertex pencil."""
    legs = [(0, (0, 0, 0)), (1, (1, 1, 0)), (1, (1, 1, 3)), (2, (2, 0, 1)),
            (2, (2, 0, 5))]
    return Pentapod(tuple(Leg(a, M) for a, M in legs))


def three_real_darboux_pentapod():
    """Generic non-planar Type 1 member whose d0/gcd is an irreducible cubic
    with three real roots (the casus irreducibilis of Cardano's formula)."""
    legs = [(-4, (F(-5, 4), 2, F(1, 2))), (1, (F(1, 2), 1, -2)),
            (5, (1, -1, F(3, 2))), (-3, (0, F(-5, 3), F(4, 3))),
            (-2, (F(-1, 2), F(5, 2), -1))]
    return Pentapod(tuple(Leg(a, M) for a, M in legs))


# ---------------------------------------------------------------------------
# first-condition-only canonical systems (cylinder of revolution, not
# straight): B2 = (A4 B4 + i sqrt(A4^2+B4^2+1)) / (A4^2+1) with
# A4 = B4 = 2 making the square root rational.
# ---------------------------------------------------------------------------

_B2_CYL = GaussRat(F(4, 5), F(3, 5))


def cylinder_only_constraints(kind: int):
    """Canonical constraint systems for the first-condition-only classes.

    kind 1: sphere + conjugate Darboux pair + skew real Darboux + Mannheim.
    kind 2: the same with the real Darboux at platform coordinate 0.
    kind 5: sphere + conjugate Darboux pair + skew angle condition + sphere.
    """
    A4, B4 = F(2), F(2)
    B2 = _B2_CYL
    a2 = GaussRat(1, 2)
    p2 = GaussRat(F(1, 3), F(1, 5))
    r1sq = F(4)
    lam1 = ConstraintHyperplane(
        "sphere", (F(4), -r1sq / 2, F(0), F(0), F(0), F(0), F(0), F(0), F(0)))
    om2 = ConstraintHyperplane(
        "darboux", (0, p2, a2, a2 * B2.conjugate(), 0, 0,
                    GaussRat(1), B2.conjugate(), 0))
    om3 = om2.conjugate()
    if kind in (1, 2):
        a4 = F(3) if kind == 1 else F(0)
        A5, B5, C5 = F(1), F(2), F(1)
        om4 = ConstraintHyperplane(
            "darboux", (0, F(2, 7), a4 * A4, a4 * B4, a4, 0, A4, B4, F(1)))
        pi5 = ConstraintHyperplane(
            "mannheim", (0, F(3, 11), A5, B5, C5, F(1), 0, 0, 0))
        return [lam1, om2, om3, om4, pi5]
    A5, B5, C5 = F(1), F(2), F(1)
    a5 = F(2)
    r5sq = F(9)
    ang4 = ConstraintHyperplane(
        "angle", (0, F(1, 5), A4, B4, F(1), 0, 0, 0, 0))
    lam5 = ConstraintHyperplane(
        "sphere", (F(4), (a5 * a5 + A5 * A5 + B5 * B5 + C5 * C5 - r5sq) / 2,
                   a5 * A5, a5 * B5, a5 * C5, a5, A5, B5, C5))
    return [lam1, om2, om3, ang4, lam5]


def legs_from_constraints(constraints, a_values):
    """Sphere legs spanned by an arbitrary canonical constraint system.

    An entry (a, s) requests the family member s at an exceptional platform
    coordinate whose compatible base points form a line.
    """
    from pentakin.polyalg import exactify
    from pentakin.reduced import first_reduction
    from pentakin.selfmotion import _match_sphere
    red = first_reduction([[exactify(c) for c in hp.coeffs]
                           for hp in constraints])
    legs = []
    for a in a_values:
        pick = None
        if isinstance(a, tuple):
            a, pick = a
        res = _match_sphere(red, F(a), pick=pick)
        assert res is not None, f"exceptional value {a}"
        (A, B, C), r2 = res
        vals = []
        for c in (A, B, C, r2):
            assert not (isinstance(c, GaussRat) and c.im != 0), \
                f"complex leg at a={a}"
            vals.append(c.re if isinstance(c, GaussRat) else c)
        A, B, C, r2 = vals
        assert r2 > 0, f"nonpositive squared length at a={a}: {r2}"
        legs.append(Leg(F(a), (A, B, C), r2))
    return legs


def cylinder_only_pentapod(kind: int, a_values=None):
    """First-condition-only pentapod of the given kind (1, 2 or 5)."""
    if a_values is None:
        # kind 2: the platform point 0 maps to a whole line; pick the family
        # member off the conic plane
        a_values = {1: (0, 1, -1, 2, F(1, 2)),
                    2: ((0, 0), 1, -1, 2, F(1, 2)),
                    5: (0, 1, -1, 3, F(1, 2))}[kind]
    return Pentapod(tuple(legs_from_constraints(
        cylinder_only_constraints(kind), a_values)))


# ---------------------------------------------------------------------------
# the paper's invariances: each answer survives these three transforms
# ---------------------------------------------------------------------------

def relabelled(p, order=(2, 0, 4, 1, 3)):
    """The same pentapod with its legs in another order."""
    return Pentapod(tuple(p.legs[i] for i in order))


def cayley_rotation(u, v, w):
    """The rational rotation matrix of the Cayley transform of the skew
    matrix of (u, v, w), in its quaternion form (1, u, v, w)."""
    n = 1 + u * u + v * v + w * w
    return [[(1 + u * u - v * v - w * w) / n, 2 * (u * v - w) / n,
             2 * (u * w + v) / n],
            [2 * (u * v + w) / n, (1 - u * u + v * v - w * w) / n,
             2 * (v * w - u) / n],
            [2 * (u * w - v) / n, 2 * (v * w + u) / n,
             (1 - u * u - v * v + w * w) / n]]


def moved_point(P):
    """The point P under the rigid motion of `moved`: a rational Cayley
    rotation about an axis in general position, then a translation."""
    R = cayley_rotation(F(1, 2), F(-1), F(1, 3))
    shift = (1, -2, 3)
    return tuple(sum(R[i][j] * P[j] for j in range(3)) + shift[i]
                 for i in range(3))


def moved(p):
    """The pentapod with its base moved rigidly by `moved_point`."""
    return Pentapod(tuple(Leg(leg.a, moved_point(leg.base), leg.r2)
                          for leg in p.legs))


def platform_shifted(p):
    """The pentapod with the origin of its platform line moved by 7/3."""
    return Pentapod(tuple(Leg(leg.a + F(7, 3), leg.base, leg.r2)
                          for leg in p.legs))
