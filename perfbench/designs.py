"""Inputs of the workloads: the taxonomy's pentapods as literal exact data,
seeded random members, poses and self-motion parameter draws.

The taxonomy pentapods are the constructions of the repository's test
helpers, written out as rationals so that the benchmark does not change
when the tests do.  Expected values are those each construction fixes.
"""

import random
from fractions import Fraction as F

from checks import pose_params

# platform coordinate, base point, squared length ("p/q" strings)
README_GEOMETRY = {
    "platform": ["0", "1", "3", "-1", "-2"],
    "base": [["0", "0", "0"], ["0", "1", "-1"], ["3/5", "6/5", "3"],
             ["1", "0", "1/3"], ["6/5", "2/5", "1/2"]],
    "lengths": [2, 1, 5, 3, 4],
}

_REF2 = [("0", ("0", "0", "1")), ("1", ("-1", "1", "0")),
         ("-1", ("3/5", "1/5", "0")), ("2", ("0", "2", "0")),
         ("1/2", ("-3/5", "1/5", "0"))]
_CYL1 = [("0", ("0", "0", "0")), ("1", ("-5/3", "-11/6", "-1/2")),
         ("-1", ("7/12", "11/12", "1/4")), ("2", ("-82/15", "-16/3", "-2")),
         ("1/2", ("-167/255", "-202/255", "-1/5"))]
_CYL2 = [("0", ("0", "0", "0")), ("1", ("4/3", "7/6", "1")),
         ("-1", ("25/12", "29/12", "1")), ("2", ("8/15", "2/3", "1")),
         ("1/2", ("89/51", "82/51", "1"))]
_CYL5 = [("0", ("0", "0", "0")), ("1", ("1/6", "7/12", "1/2")),
         ("-1", ("-3/8", "-3/8", "-1/2")), ("3", ("19/8", "29/8", "3/2")),
         ("1/2", ("1/17", "7/34", "1/4"))]
_YS = (0, 2, -1, 5, 3)


def _legs(rows):
    return [(F(a), tuple(F(c) for c in base)) for a, base in rows]


def _planar_fibers(beta):
    return [(F(a), (beta(F(a)), F(y), F(0))) for a, y in zip(range(5), _YS)]


# name -> (legs, expected kind, max real solutions, Duporcq level or None)
# Duporcq "not FULL" marks a bond-only Type 5 whose level the construction
# leaves open; a FULL level would contradict its bound of 6.
TAXONOMY = {
    "type1-reference": (_legs(zip(README_GEOMETRY["platform"],
                                  README_GEOMETRY["base"])),
                        "type1", 4, "FULL"),
    "type2-reference": (_legs(_REF2), "type2", 4, "FULL"),
    "planar-affine": (_planar_fibers(lambda t: t / 2), "planar_pencil", 4, None),
    "planar-congruent": (_planar_fibers(lambda t: t), "planar_pencil", 4, None),
    "planar-stretched": (_planar_fibers(lambda t: 2 * t), "planar_pencil", 4,
                         None),
    "planar-ideal-vertex": (_planar_fibers(lambda t: F(1, 3) * t
                                           / (1 + F(1, 7) * t)),
                            "planar_pencil", 6, None),
    "planar-finite-vertex": (_legs([("0", ("0", "0", "0")),
                                    ("1", ("2", "1", "0")),
                                    ("2", ("-1", "3", "0")),
                                    ("3", ("4", "-2", "0")),
                                    ("5", ("1", "5", "0"))]),
                             "planar_pencil", 8, None),
    "type3": (_legs([("0", ("0", "0", "1")), ("0", ("0", "0", "2")),
                     ("1", ("1", "1", "0")), ("1", ("1", "2", "0")),
                     ("2", ("5", "0", "0"))]), "type3", 8, None),
    "type4": (_legs([("0", ("2", "1", "1")), ("1", ("1", "2", "1")),
                     ("1", ("1", "3", "1")), ("2", ("1", "1", "2")),
                     ("2", ("1", "1", "3"))]), "type4", 8, None),
    "type5-parallel-lines": (_legs([("0", ("0", "0", "0")),
                                    ("1", ("1", "1", "0")),
                                    ("1", ("1", "1", "3")),
                                    ("2", ("2", "0", "1")),
                                    ("2", ("2", "0", "5"))]),
                             "type5", 6, "not FULL"),
    "cylinder-type1": (_legs(_CYL1), "type1", 6, "FIRST_ONLY"),
    "cylinder-type2": (_legs(_CYL2), "type2", 6, "FIRST_ONLY"),
    "cylinder-type5": (_legs(_CYL5), "type5", 6, "FIRST_ONLY"),
}

# the direct-kinematics classes of acceptance criterion 06
DEGREE4 = ("type1-reference", "planar-affine", "planar-congruent")
# type5-parallel-lines is left out: some seeded poses give it a degree-10
# eliminant with squared factors (see FOUND in CHANGES.md)
DEGREE6 = ("cylinder-type1", "cylinder-type2", "cylinder-type5",
           "planar-ideal-vertex")


def rand_frac(rng, lo=-6, hi=6, den=4):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def random_legs(rng, planar):
    """Candidate random member, same distribution as the test suite's."""
    return [(rand_frac(rng), (rand_frac(rng), rand_frac(rng),
                              F(0) if planar else rand_frac(rng)))
            for _ in range(5)]


def random_pose(rng):
    """Seeded pose in general position: the platform direction u is the
    inverse stereographic image of rational (s, t), the platform point
    a = 0 goes to the rational point c, and the components of u, and
    those of c, are nonzero and differ in absolute value.

    Poses outside general position are left out because solve_dk answers
    some of them wrongly (see FOUND in CHANGES.md): with u along a
    coordinate axis it returns degree 7 for generic members, with c on
    the base plane it can lose the pose of a planar member.
    """
    while True:
        s, t = rand_frac(rng, -3, 3), rand_frac(rng, -3, 3)
        d = 1 + s * s + t * t
        u = ((1 - s * s - t * t) / d, 2 * s / d, 2 * t / d)
        c = tuple(rand_frac(rng, -4, 4) for _ in range(3))
        if _general(u) and _general(c):
            return pose_params(u, c)


def _general(v):
    mags = {abs(x) for x in v}
    return 0 not in mags and len(mags) == len(v)


def exact_lengths2(legs, pose):
    """Squared leg lengths that the pose realises, computed exactly."""
    n0, x0, x1, x2, x3, y0, y1, y2, y3 = pose
    out = []
    for a, base in legs:
        P = (-(a * x1 + y1) / x0, -(a * x2 + y2) / x0, -(a * x3 + y3) / x0)
        out.append(sum((p - b) ** 2 for p, b in zip(P, base)))
    return out


def rng_for(*parts):
    return random.Random("-".join(str(p) for p in parts))
