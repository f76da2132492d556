"""The reduced system shared by direct kinematics, bonds and tracing.

Every leg constraint is a hyperplane in the nine motion parameters
(ordered as ``kinmap.COORD_NAMES``).  Five independent hyperplanes are
solved exactly for five pivot coordinates; x0 and three free coordinates
s1, s2, s3 remain, and the solution space is

    coords = T . (x0, s1, s2, s3)

with an exact 9x4 matrix T of Fractions / GaussRats.  Direct kinematics and
tracing work in the chart x0 = 1, bonds on the boundary x0 = 0.  The
quadrics of the reduced system are ``kinmap.phi_residuals`` (or
``gamma_residuals``) applied to these coordinates; their formulas live only
in :mod:`kinmap`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy as sp

from .kinmap import phi_residuals
from .polyalg import GaussRat, mat_det, mat_solve, to_sympy

# Pivot sets in order of preference: n0 and y0..y3 first, which leaves the
# platform direction x1, x2, x3 free; then the same with one y swapped for
# an x.  This order fixes the eliminated variable of `pentakin dk`.
_PIVOT_PREFS = (
    (0, 5, 6, 7, 8),
    (0, 5, 6, 7, 4), (0, 5, 6, 8, 3), (0, 5, 7, 8, 2),
    (0, 5, 6, 7, 2), (0, 5, 6, 7, 3),
)
_CANDIDATES = _PIVOT_PREFS + tuple(
    piv for piv in itertools.combinations((0, 5, 6, 7, 8, 2, 3, 4), 5)
    if piv not in _PIVOT_PREFS)
# free coordinates are the non-pivots taken in this order
_FREE_ORDER = (2, 3, 4, 0, 5, 6, 7, 8)


def choose_pivots(rows, skip=None):
    """The first pivot set, in preference order, whose 5x5 minor of the
    exact constraint rows is invertible; None when there is none.  `skip`
    excludes one set, so that a second, independent set can be drawn."""
    for piv in _CANDIDATES:
        if piv != skip and mat_det([[r[c] for c in piv] for r in rows]):
            return piv
    return None


class Reduction:
    """Exact solution of five constraint rows for the given pivots.

    `T` holds the exact 9x4 matrix as nested lists, `Tn` the same as a NumPy
    array (float when every entry is real, complex otherwise), and `free`
    the coordinate indices of s1, s2, s3.
    """

    def __init__(self, rows, pivots):
        self.free = tuple(c for c in _FREE_ORDER if c not in pivots)
        A = [[r[c] for c in pivots] for r in rows]
        T = [[Fraction(0)] * 4 for _ in range(9)]
        for j, c in enumerate((1,) + self.free):
            T[c][j] = Fraction(1)
            for pc, v in zip(pivots, mat_solve(A, [-r[c] for r in rows])):
                T[pc][j] = v
        self.T = T
        Tn = np.array([[complex(v) for v in row] for row in T])
        self.Tn = Tn if Tn.imag.any() else Tn.real.copy()

    def coords(self, syms, x0=1):
        """The nine coordinates as sympy linear forms in the free symbols."""
        v = (sp.Integer(x0),) + tuple(syms)
        return tuple(sp.Add(*(to_sympy(t) * s for t, s in zip(row, v)))
                     for row in self.T)

    def quadrics(self, syms):
        """The three image-variety quadrics in the chart x0 = 1, expanded."""
        return tuple(sp.expand(q) for q in phi_residuals(self.coords(syms)))

    def mp_matrix(self):
        """T as an mpmath matrix at the current working precision, converted
        from the exact entries."""
        import mpmath

        def mp(v):
            if isinstance(v, GaussRat):
                return mpmath.mpc(mp(v.re), mp(v.im))
            return mpmath.mpf(v.numerator) / v.denominator

        return mpmath.matrix([[mp(v) for v in row] for row in self.T])
