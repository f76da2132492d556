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
in :mod:`kinmap`, and :func:`polarise` reads their exact coefficients off
the columns of T.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy as sp

from .kinmap import phi_residuals
from .polyalg import (SingularMatrixError, echelon_solve, poly_resultant,
                      to_sympy)

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


def polarise(T, residuals, cols):
    """Exact coefficients of the quadrics `residuals(T . v)`, v running over
    the columns `cols` of T: one dict per quadric, from exponent tuples over
    `cols` to coefficients.  Read off by polarisation: q(e_i) is the
    coefficient of v_i^2 and q(e_i + e_j) - q(e_i) - q(e_j) that of
    v_i v_j."""
    es = [[row[j] for row in T] for j in cols]

    def at(*idx):
        return residuals([sum(c) for c in zip(*(es[i] for i in idx))])

    sq = [at(i) for i in range(len(es))]
    out = [{} for _ in sq[0]]
    for i, j in itertools.combinations_with_replacement(range(len(es)), 2):
        mono = tuple((i, j).count(k) for k in range(len(es)))
        vals = sq[i] if i == j else [ab - a - b for ab, a, b
                                     in zip(at(i, j), sq[i], sq[j])]
        for q, v in zip(out, vals):
            q[mono] = v
    return out


def first_resultants(quads):
    """The resultants of the three pairs (Q2, Q3), (Q1, Q3), (Q1, Q2) of
    sp.Poly in their first generator, as sp.Poly in the others.  Pairs of
    quadratics in that generator take the closed-form Sylvester formula of
    `poly_resultant`."""
    Q1, Q2, Q3 = quads
    return (poly_resultant(Q2, Q3)[0], poly_resultant(Q1, Q3)[0],
            poly_resultant(Q1, Q2)[0])


def first_reduction(rows, skip=None):
    """The Reduction for the first pivot set, in preference order, whose 5x5
    minor of the exact constraint rows is invertible; None when there is
    none.  Each candidate costs one elimination, the one that gives T.
    `skip` excludes one set, so that a second, independent set can be
    drawn."""
    # a minor with a zero column or a zero row is singular: a planar base
    # zeroes x3, y3, and a Type 5 angle row has no entry on n0, y0..y3
    support = [{c for c, v in enumerate(r) if v} for r in rows]
    used = set().union(*support)
    for piv in _CANDIDATES:
        if (piv != skip and used.issuperset(piv)
                and not any(s.isdisjoint(piv) for s in support)):
            try:
                return Reduction(rows, piv)
            except SingularMatrixError:
                continue
    return None


class Reduction:
    """Exact solution of five constraint rows for the given pivots.

    `T` holds the exact 9x4 matrix as nested lists, `Tn` the same as a NumPy
    array (float when every entry is real, complex otherwise), `pivots` the
    solved coordinate indices and `free` those of s1, s2, s3.
    """

    def __init__(self, rows, pivots):
        self.pivots = tuple(pivots)
        self.free = tuple(c for c in _FREE_ORDER if c not in pivots)
        # with the columns in this order, T's columns are the echelon
        # null-space basis of the rows
        order = tuple(pivots) + (1,) + self.free
        found, _, basis = echelon_solve([[r[c] for c in order] for r in rows],
                                        [0] * len(rows))
        if found != list(range(5)):
            raise SingularMatrixError("singular pivot minor")
        T = [[Fraction(0)] * 4 for _ in range(9)]
        for j, vec in enumerate(basis):
            T[order[5 + j]][j] = Fraction(1)
            for pc, v in zip(pivots, vec):
                T[pc][j] = v
        self.T = T
        Tn = np.array([[complex(v) for v in row] for row in T])
        self.Tn = Tn if Tn.imag.any() else Tn.real.copy()

    def quadrics(self, gens):
        """The three image-variety quadrics in the chart x0 = 1, as exact
        sp.Poly in `gens`, the names of (s1, s2, s3), each scaled to
        integer coefficients."""
        return tuple(
            sp.Poly.from_dict({mono[1:]: to_sympy(c)
                               for mono, c in q.items() if c}, *gens)
            .clear_denoms(convert=True)[1]
            for q in polarise(self.T, phi_residuals, range(4)))

