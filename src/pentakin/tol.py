"""Float thresholds of the direct kinematics, each with its origin.

Exact stages take no tolerance; these apply where floats enter DK: the
np.roots candidates of back-substitution, the Newton polish and the cut
between real and complex poses.  A residual here is the largest quadric
residual of a configuration x divided by 1 + |x|^2, so every threshold is
relative to the scale of the point.  EPS is float64's machine epsilon,
2.2e-16.
"""

#: Float Newton stops once the scaled residual is at float64 round-off
#: (EPS / 2 = 1.1e-16): a further step cannot lower it.
NEWTON_STOP = 1e-16

#: np.roots finds a root of multiplicity m only to about EPS**(1/m), which
#: is 6e-6 for m = 3, and a raw candidate's residual is of that order.  The
#: gate leaves a margin of about 15 over that: a raw candidate above it is
#: no completion, and Newton does not polish it.
PRE_NEWTON_GATE = 1e-4

#: A completion is kept when its scaled residual after Newton is at most
#: this (or the caller's tol, if larger).  It is about sqrt(EPS) = 1.5e-8,
#: the accuracy left at a double root of the eliminant.
COMPLETION_RESIDUAL = 1e-8

#: Above this scaled residual after float Newton (about 1e4 EPS) a fibre
#: is too ill-conditioned for float64, and the 40-digit mpmath polish runs.
MP_POLISH_SWITCH = 1e-12

#: A polished pose is real when every coordinate's imaginary part is at
#: most this relative to its size: about 7 sqrt(EPS), since a tangent
#: (double) real pose is known only to sqrt(EPS).
IMAG_CUT = 1e-7

#: Two polished poses closer than this, relative to the scale, are one
#: pose (sqrt(EPS) as for COMPLETION_RESIDUAL).
POSE_MERGE = 1e-8
