"""Kinematic mapping for pentapods with a linear platform.

A displacement of the platform line is encoded by nine homogeneous motion
parameters (n0 : x0 : x1 : x2 : x3 : y0 : y1 : y2 : y3).  In these
coordinates the sphere, Darboux, Mannheim and angle conditions are linear,
and the image of the lift from Study parameters is the 5-dimensional
degree-8 variety cut out by the three quadrics returned by
:func:`phi_residuals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geom import coplanar
from .polyalg import conj, exactify, is_exact, is_real_scalar, to_float
from .tol import DEFAULT_TOL, UNIT_DIRECTION

COORD_NAMES = ("n0", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")


class KinmapError(ValueError):
    pass


class BoundaryPointError(KinmapError):
    """Raised for operations that need x0 != 0 on a boundary point."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyParams:
    e0: object
    e1: object
    e2: object
    e3: object
    f0: object
    f1: object
    f2: object
    f3: object

    def e(self):
        return (self.e0, self.e1, self.e2, self.e3)

    def f(self):
        return (self.f0, self.f1, self.f2, self.f3)

    def quadric_residual(self):
        return (self.e0 * self.f0 + self.e1 * self.f1
                + self.e2 * self.f2 + self.e3 * self.f3)

    def e_norm2(self):
        return sum(c * c for c in self.e())


@dataclass(frozen=True)
class MotionParams:
    """Homogeneous 9-tuple; stored unnormalized so that x0 = 0 (bonds) is
    representable."""

    n0: object
    x0: object
    x1: object
    x2: object
    x3: object
    y0: object
    y1: object
    y2: object
    y3: object

    def __post_init__(self):
        if not any(self.coords()):
            raise KinmapError("all motion parameters are zero")

    def coords(self):
        return (self.n0, self.x0, self.x1, self.x2, self.x3,
                self.y0, self.y1, self.y2, self.y3)

    def x(self):
        return (self.x1, self.x2, self.x3)

    def y(self):
        return (self.y1, self.y2, self.y3)

    def scaled(self, s) -> "MotionParams":
        return MotionParams(*(c * s for c in self.coords()))

    def normalized(self) -> "MotionParams":
        if not self.x0:
            raise BoundaryPointError("x0 = 0: boundary point has no x0=1 chart")
        # an exact x0 keeps the chart exact: 1 / 1 would be the float 1.0
        return self.scaled((Fraction(1) if is_exact(self.x0) else 1) / self.x0)

    def conjugate(self) -> "MotionParams":
        return MotionParams(*(conj(c) for c in self.coords()))

    @property
    def is_real(self) -> bool:
        return all(is_real_scalar(c) for c in self.coords())


ConstraintKind = str  # "sphere" | "darboux" | "mannheim" | "angle"


@dataclass(frozen=True)
class ConstraintHyperplane:
    """Linear condition sum(coeffs * motion coords) = 0.

    Sphere conditions carry coefficient 4 on n0; Darboux/Mannheim/angle
    conditions do not involve n0.
    """

    kind: ConstraintKind
    coeffs: tuple  # length 9, ordered as COORD_NAMES

    def __post_init__(self):
        if len(self.coeffs) != 9:
            raise KinmapError("hyperplane needs 9 coefficients")
        if not any(self.coeffs):
            raise KinmapError("zero hyperplane")
        if self.kind == "sphere" and self.coeffs[0] != 4:
            raise KinmapError("sphere hyperplane must have n0 coefficient 4")
        if self.kind in ("darboux", "mannheim", "angle") and self.coeffs[0]:
            raise KinmapError(f"{self.kind} hyperplane cannot involve n0")

    def evaluate(self, m: MotionParams):
        return sum(c * v for c, v in zip(self.coeffs, m.coords()))

    def conjugate(self) -> "ConstraintHyperplane":
        return ConstraintHyperplane(self.kind, tuple(conj(c) for c in self.coeffs))


@dataclass(frozen=True)
class Leg:
    """One SPS leg: platform coordinate a on the line, base point (A, B, C),
    optional squared length r2 > 0."""

    a: object
    base: tuple
    r2: object = None

    def __post_init__(self):
        object.__setattr__(self, "a", exactify(self.a))
        if len(self.base) != 3:
            raise KinmapError("base point needs 3 coordinates")
        object.__setattr__(self, "base", tuple(exactify(c) for c in self.base))
        if self.r2 is not None:
            r2 = exactify(self.r2)
            if to_float(r2) <= 0:
                raise KinmapError("squared leg length must be positive")
            object.__setattr__(self, "r2", r2)

    @staticmethod
    def from_length(a, base, r) -> "Leg":
        r = exactify(r)
        if to_float(r) <= 0:
            raise KinmapError("leg length must be positive")
        return Leg(a, base, r * r)


@dataclass(frozen=True)
class Pentapod:
    legs: tuple

    def __post_init__(self):
        legs = tuple(self.legs)
        if len(legs) != 5:
            raise KinmapError("a pentapod has exactly 5 legs")
        object.__setattr__(self, "legs", legs)
        seen = set()
        for leg in legs:
            key = (leg.a, leg.base)
            if key in seen:
                raise KinmapError(f"coincident legs at a={leg.a}, base={leg.base}")
            seen.add(key)

    @property
    def platform(self):
        return tuple(leg.a for leg in self.legs)

    @property
    def base_points(self):
        return tuple(leg.base for leg in self.legs)

    def with_lengths2(self, lengths2) -> "Pentapod":
        if len(lengths2) != 5:
            raise KinmapError("five lengths required")
        return Pentapod(tuple(Leg(leg.a, leg.base, r2)
                              for leg, r2 in zip(self.legs, lengths2)))

    def is_base_planar(self) -> bool:
        return coplanar(self.base_points)


# ---------------------------------------------------------------------------
# lift and displacement
# ---------------------------------------------------------------------------

def lift_study(s: StudyParams, tol: float = DEFAULT_TOL) -> MotionParams:
    """Lift Study parameters to the nine motion parameters."""
    e0, e1, e2, e3 = s.e()
    f0, f1, f2, f3 = s.f()
    en = s.e_norm2()
    if not en:
        raise KinmapError("zero rotation part: no displacement")
    res = s.quadric_residual()
    if is_exact(res):
        if res != 0:
            raise KinmapError("Study quadric violated")
    elif abs(to_float(res)) > tol * (1 + abs(to_float(en))):
        raise KinmapError("Study quadric violated beyond tolerance")
    return MotionParams(
        n0=f0 * f0 + f1 * f1 + f2 * f2 + f3 * f3,
        x0=2 * (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3),
        x1=2 * (-e0 * e0 - e1 * e1 + e2 * e2 + e3 * e3),
        x2=-4 * (e0 * e3 + e1 * e2),
        x3=4 * (e0 * e2 - e1 * e3),
        y0=4 * (-e0 * f1 + e1 * f0 + e2 * f3 - e3 * f2),
        y1=4 * (e0 * f1 - e1 * f0 + e2 * f3 - e3 * f2),
        y2=4 * (e0 * f2 - e1 * f3 - e2 * f0 + e3 * f1),
        y3=4 * (e0 * f3 + e1 * f2 - e2 * f1 - e3 * f0),
    )


def rotation_matrix(s: StudyParams):
    """Unnormalized rotation matrix (scale e_norm2) of the displacement."""
    e0, e1, e2, e3 = s.e()
    return [
        [e0 * e0 + e1 * e1 - e2 * e2 - e3 * e3, 2 * (e1 * e2 - e0 * e3), 2 * (e1 * e3 + e0 * e2)],
        [2 * (e1 * e2 + e0 * e3), e0 * e0 - e1 * e1 + e2 * e2 - e3 * e3, 2 * (e2 * e3 - e0 * e1)],
        [2 * (e1 * e3 - e0 * e2), 2 * (e2 * e3 + e0 * e1), e0 * e0 - e1 * e1 - e2 * e2 + e3 * e3],
    ]


def translation_vector(s: StudyParams):
    """Unnormalized translation (scale e_norm2) of the displacement."""
    e0, e1, e2, e3 = s.e()
    f0, f1, f2, f3 = s.f()
    return (
        -2 * (e0 * f1 - e1 * f0 + e2 * f3 - e3 * f2),
        -2 * (e0 * f2 - e2 * f0 + e3 * f1 - e1 * f3),
        -2 * (e0 * f3 - e3 * f0 + e1 * f2 - e2 * f1),
    )


def displacement(m: MotionParams, a, tol: float = DEFAULT_TOL):
    """Euclidean image of the platform point with coordinate a.

    Requires x0 != 0 (normalizes to the x0 = 1 chart) and membership of the
    image variety within tolerance.
    """
    mn = m.normalized()
    if not on_image_variety(mn, tol):
        raise KinmapError("motion parameters are not on the image variety")
    return (-a * mn.x1 - mn.y1, -a * mn.x2 - mn.y2, -a * mn.x3 - mn.y3)


def _coords(m):
    return m.coords() if isinstance(m, MotionParams) else tuple(m)


def phi_residuals(m):
    """The three quadrics generating the ideal of the image variety.

    `m` is a MotionParams or any nine coordinates in COORD_NAMES order:
    scalars, sympy expressions, or NumPy arrays of samples.
    """
    n0, x0, x1, x2, x3, y0, y1, y2, y3 = _coords(m)
    return (
        x1 * x1 + x2 * x2 + x3 * x3 - x0 * x0,
        y1 * y1 + y2 * y2 + y3 * y3 - 8 * x0 * n0,
        x1 * y1 + x2 * y2 + x3 * y3 - x0 * y0,
    )


def phi_gradient(m):
    """Gradients of the three :func:`phi_residuals` quadrics with respect to
    the nine coordinates, as three rows; `m` as for phi_residuals."""
    n0, x0, x1, x2, x3, y0, y1, y2, y3 = _coords(m)
    return (
        (0, -2 * x0, 2 * x1, 2 * x2, 2 * x3, 0, 0, 0, 0),
        (-8 * x0, -8 * n0, 0, 0, 0, 0, 2 * y1, 2 * y2, 2 * y3),
        (0, -y0, y1, y2, y3, -x0, x1, x2, x3),
    )


def gamma_residuals(m):
    """Residuals of the boundary 4-fold (intended for points with x0 = 0);
    `m` as for phi_residuals."""
    _, _, x1, x2, x3, _, y1, y2, y3 = _coords(m)
    return (
        x1 * x1 + x2 * x2 + x3 * x3,
        y1 * y1 + y2 * y2 + y3 * y3,
        x1 * y1 + x2 * y2 + x3 * y3,
        x1 * y2 - x2 * y1,
        x1 * y3 - x3 * y1,
        x2 * y3 - x3 * y2,
    )


def on_image_variety(m: MotionParams, tol: float = DEFAULT_TOL) -> bool:
    res = phi_residuals(m)
    if all(is_exact(r) for r in res):
        return all(r == 0 for r in res)
    scale = 1 + sum(abs(complex(c)) ** 2 for c in m.coords())
    return all(abs(complex(r)) <= tol * scale for r in res)


# ---------------------------------------------------------------------------
# constraint hyperplanes
# ---------------------------------------------------------------------------

def sphere_condition(leg: Leg) -> ConstraintHyperplane:
    """Sphere condition: platform point a stays at distance R from (A,B,C)."""
    if leg.r2 is None:
        raise KinmapError("sphere condition needs a leg length")
    a = leg.a
    A, B, C = leg.base
    return ConstraintHyperplane("sphere", (
        Fraction(4),
        Fraction(1, 2) * (a * a + A * A + B * B + C * C - leg.r2),
        a * A, a * B, a * C, a, A, B, C,
    ))


def _check_unit(u, tol):
    n2 = sum(c * c for c in u)
    if is_exact(n2):
        if n2 != 1:
            raise KinmapError("direction must be a unit vector")
    elif abs(to_float(n2) - 1) > tol:
        raise KinmapError("direction must be a unit vector (beyond tolerance)")


def darboux_condition(a, u, p,
                      tol: float = UNIT_DIRECTION) -> ConstraintHyperplane:
    """Darboux condition: point a moves in the plane X . u = p (u unit)."""
    _check_unit(u, tol)
    u1, u2, u3 = u
    return ConstraintHyperplane("darboux",
                                (0, p, a * u1, a * u2, a * u3, 0, u1, u2, u3))


def mannheim_condition(base_point, p) -> ConstraintHyperplane:
    """Mannheim condition: the moving plane orthogonal to the platform line
    at offset p slides through the fixed base point."""
    A, B, C = base_point
    return ConstraintHyperplane("mannheim", (0, p, A, B, C, 1, 0, 0, 0))


def angle_condition(u, w,
                    tol: float = UNIT_DIRECTION) -> ConstraintHyperplane:
    """Angle condition: the platform direction keeps a fixed angle with the
    unit ideal direction u; w is the linear constant of the condition."""
    _check_unit(u, tol)
    u1, u2, u3 = u
    return ConstraintHyperplane("angle", (0, w, u1, u2, u3, 0, 0, 0, 0))


def constraint_hyperplane(kind: ConstraintKind, **data) -> ConstraintHyperplane:
    """Dispatching constructor; see the per-kind helpers for semantics."""
    if kind == "sphere":
        leg = data.get("leg") or Leg(
            data["a"], data["base"],
            data["r2"] if "r2" in data else exactify(data["r"]) ** 2)
        return sphere_condition(leg)
    if kind == "darboux":
        return darboux_condition(data["a"], data["u"], data["p"],
                                 data.get("tol", UNIT_DIRECTION))
    if kind == "mannheim":
        return mannheim_condition(data["base_point"], data["p"])
    if kind == "angle":
        return angle_condition(data["u"], data["w"],
                               data.get("tol", UNIT_DIRECTION))
    raise KinmapError(f"unknown constraint kind {kind!r}")
