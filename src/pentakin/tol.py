"""Float thresholds, each with its origin.

Exact stages take no tolerance; these apply where floats enter.  First
the default `tol` of the public functions and of the CLI.  In direct
kinematics: the rank of the quadrics' coefficient rows at a root in
back-substitution, the float64 Newton polish and the cut between real
and complex poses; there a residual is the largest quadric residual of a
configuration x divided by 1 + |x|^2, so every threshold is relative to
the scale of the point.  In self-motion tracing: the per-sample
completions of the configuration curve and the circular-translation
direction.  In the bond solve: the numeric roots of bonds outside QQ(i).
In the geometric predicates and root isolation: float inputs only.  EPS
is float64's machine epsilon, 2.2e-16.
"""

#: The default `tol` of the public functions that take one and of the
#: CLI's --tol: a relative residual, distance or singular-value cut of
#: about 5e6 EPS, so that a float answer of order one that passes is right
#: to about nine significant digits.  A stage with a floor of its own (as
#: COMPLETION_RESIDUAL below) takes the larger of the two.
DEFAULT_TOL = 1e-9

#: Float Newton stops once the scaled residual is at float64 round-off
#: (EPS / 2 = 1.1e-16): a further step cannot lower it.
NEWTON_STOP = 1e-16

#: DK back-substitution: a start point of the polish carries the error of
#: its second coordinate, a root of a subresultant that np.roots finds only
#: to about EPS**(1/m) at multiplicity m, 6e-6 for m = 3; the quadrics see
#: that error to first order.  With a margin of about 15 over it, the
#: quadrics' coefficient rows in the first coordinate have rank one when
#: their second singular value is at most this relative to the first, and
#: a start whose scaled residual is above it misses the quadrics.
START_CUT = 1e-4

#: A completion is kept when its scaled residual after the polish is at most
#: this (or the caller's tol, if larger).  It is about sqrt(EPS) = 1.5e-8,
#: the accuracy left at a double root of the eliminant.
COMPLETION_RESIDUAL = 1e-8

#: A polished pose is real when every coordinate's imaginary part is at
#: most this relative to its size: about 7 sqrt(EPS), since a tangent
#: (double) real pose is known only to sqrt(EPS).
IMAG_CUT = 1e-7

#: Two polished poses closer than this, relative to the scale, are one
#: pose (sqrt(EPS) as for COMPLETION_RESIDUAL).
POSE_MERGE = 1e-8

#: `kinmap.displacement` takes a float pose within this scaled residual of
#: the image variety: two orders above the filters that DK poses and trace
#: samples pass at the default tol (about sqrt(EPS)), so that only a point
#: off the variety fails.
DISPLACEMENT_CHECK = 1e-6

# ---------------------------------------------------------------------------
# self-motion tracing and circular translation
# ---------------------------------------------------------------------------

#: Two real intervals of a Type 1/2 branch discriminant are one when the gap
#: between them is at most this.  Neighbouring cells share one float root
#: as their bound, so their gap is exactly 0; the slack, a few thousand EPS
#: at |t| <= 1, only absorbs round-off.
CELL_MERGE = 1e-12

#: A Type 1/2 sample is kept when its largest quadric residual is at most
#: this many times the caller's tol: x2 comes from the quadratic formula and
#: x1 from a square root, each of which loses up to sqrt(EPS) next to a
#: branch point, so the filter sits one order above the tol.
SAMPLE_RESIDUAL_SCALE = 10

#: A Type 5 sample's root of the quadratic in the leftover coordinate is
#: real when its imaginary part is at most this relative to 1 + |root|:
#: about 2/3 sqrt(EPS), the order to which np.roots finds a double
#: (tangent) root.
LEFTOVER_IMAG_CUT = 1e-8

#: A Type 5 configuration is kept when its largest quadric residual is at
#: most this many times the caller's tol, and never below
#: LEFTOVER_RESIDUAL_FLOOR: the real part of a near-double root carries an
#: error of order sqrt(EPS), which the other two quadrics see to first
#: order.
LEFTOVER_RESIDUAL_SCALE = 100

#: The lower bound of the Type 5 residual filter (about 7 sqrt(EPS), as for
#: IMAG_CUT).
LEFTOVER_RESIDUAL_FLOOR = 1e-7

#: A float leg vector a_i u - (M_i - M_1) of a circular translation is zero
#: when every component is at most this: it is formed from exact inputs of
#: order one, so a nonzero vector is far above the few-EPS round-off.
LEG_VECTOR_ZERO = 1e-12

# ---------------------------------------------------------------------------
# bonds
# ---------------------------------------------------------------------------

#: Numeric bond solve: a conic's constant term on a line where its w terms
#: vanish is zero below this, about 1e5 times its round-off (a few EPS for
#: coefficients of order one).
W_CONSTANT_ZERO = 1e-10

#: Two numeric bonds, compared coordinatewise or projectively, are one
#: within this relative error: sqrt(EPS), to which np.roots finds the double
#: root of a tangent contact.
BOND_SAME = 1e-8

# ---------------------------------------------------------------------------
# geometric predicates and root isolation on float input
# ---------------------------------------------------------------------------

#: `kinmap.constraint_hyperplane`, `darboux_condition` and `angle_condition`
#: take a float direction u as unit when |u|^2 differs from 1 by at most
#: this: about 5e6 EPS, so a unit vector rounded to nine or more
#: significant digits passes and a direction that is not unit does not.
UNIT_DIRECTION = 1e-9

#: `geom.mobius_equivalent` on float parameters: the image of the fourth
#: point matches its target within at least this relative error.  About
#: 5000 EPS, the round-off of the three-point interpolation and one
#: evaluation on parameters of order one.
MOBIUS_MATCH_FLOOR = 1e-12

#: `geom.concyclic` on float points: the rows (x^2 + y^2, x, y, 1) are rank
#: deficient when the last singular value is at most this relative to the
#: largest (at least; the caller's tol may raise it).  About 5e6 EPS, above
#: the round-off of points of order one given to float precision.
CONCYCLIC_SVD_FLOOR = 1e-9

#: `polyalg.real_roots` on float coefficients: a companion-matrix root is
#: real when its imaginary part is at most this relative to 1 + |root|, is
#: kept when |p(root)| is at most this relative to 1 + max|coeff|, and two
#: kept roots this close are one.  About 5e5 EPS, above the few-EPS error
#: of a simple root from np.roots; a double root, found only to about
#: sqrt(EPS), can fall outside it.  Exact coefficients take no tolerance.
FLOAT_ROOT = 1e-10
