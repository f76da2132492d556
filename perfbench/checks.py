"""Checkers that judge pentakin's answers without calling pentakin.

Everything here is written from the paper's formulas: the point
displacement P(a) = -(a*x + y)/x0 of the platform point with coordinate a,
the three quadrics Phi that cut out the image variety, the closed-form
self-motion curves of the two reference designs, and the reference
quartic.  Each checker returns None when the answer passes and a short
reason when it does not.
"""

import math

# Paper's degree-4 direct-kinematics polynomial of the README geometry with
# lengths (2, 1, 5, 3, 4), primitive with positive leading coefficient.
REFERENCE_QUARTIC = (76425120000, -291209472000, 241133479200,
                     69486876480, 4316636297)

# Real parameter intervals of the reference self-motions.
TYPE1_INTERVAL = (0.2 - 2 * math.sqrt(33) / 15, 0.2 + 2 * math.sqrt(33) / 15)
_LIM2 = math.sqrt(2 * math.sqrt(2) - 2)
TYPE2_INTERVAL = (-_LIM2, _LIM2)


def displacement(m, a):
    """Image of platform point a under motion parameters
    m = (n0, x0, x1, x2, x3, y0, y1, y2, y3)."""
    x0 = m[1]
    return tuple(-(a * m[2 + i] + m[6 + i]) / x0 for i in range(3))


def phi(m):
    n0, x0, x1, x2, x3, y0, y1, y2, y3 = m
    return (x1 * x1 + x2 * x2 + x3 * x3 - x0 * x0,
            y1 * y1 + y2 * y2 + y3 * y3 - 8 * x0 * n0,
            x1 * y1 + x2 * y2 + x3 * y3 - x0 * y0)


def pose_params(u, c):
    """Motion parameters (x0 = 1 chart) of the pose that carries platform
    point a to a*u + c, for a unit direction u and a point c."""
    x = tuple(-v for v in u)
    y = tuple(-v for v in c)
    n0 = sum(v * v for v in c) / 8
    y0 = sum(p * q for p, q in zip(u, c))
    return (n0, 1, *x, y0, *y)


def squared_lengths(m, legs):
    """Squared distance of each leg's moved platform point to its base
    point; legs are (a, (A, B, C)) pairs."""
    out = []
    for a, base in legs:
        P = displacement(m, a)
        out.append(sum((p - b) ** 2 for p, b in zip(P, base)))
    return out


def phi_error(m, tol):
    scale = 1 + sum(abs(c) ** 2 for c in m)
    err = max(abs(r) for r in phi(m)) / scale
    if err > tol:
        return f"off the image variety: Phi residual {err:.2e} > {tol:.0e}"
    return None


def lengths_error(m, legs, lengths2, rel_tol):
    got = squared_lengths(m, legs)
    worst = max(abs(g - float(r2)) / float(r2) for g, r2 in zip(got, lengths2))
    if worst > rel_tol:
        return f"leg lengths off by {worst:.2e} relative > {rel_tol:.0e}"
    return None


def pose_residual(m, legs, lengths2):
    scale = 1 + sum(abs(c) ** 2 for c in m)
    res = max(abs(r) for r in phi(m)) / scale
    got = squared_lengths(m, legs)
    top = 1 + max(float(r2) for r2 in lengths2)
    return max(res, max(abs(g - float(r2)) for g, r2 in zip(got, lengths2))
               / top)


def dk_error(solutions, degree, legs, lengths2, pose, degree_rule, bound):
    """Check one direct-kinematics answer.

    solutions: real solutions as 9-tuples of floats (x0 = 1 chart);
    degree_rule: ("eq", 8) or ("le", k); bound: class bound on real
    solutions; pose: the exact seeded pose as a 9-tuple, or None.
    """
    kind, k = degree_rule
    if (kind == "eq" and degree != k) or (kind == "le" and not 0 < degree <= k):
        return f"degree {degree} breaks the rule {kind} {k}"
    if len(solutions) > bound:
        return f"{len(solutions)} real solutions exceed the class bound {bound}"
    for s in solutions:
        err = phi_error(s, 1e-8) or lengths_error(s, legs, lengths2, 1e-7)
        if err:
            return err
    if pose is not None:
        target = [float(c) for c in pose]
        hits = [s for s in solutions
                if max(abs(a - b) for a, b in zip(s, target)) <= 1e-6]
        if not hits:
            return "seeded pose is not among the solutions"
        best = min(pose_residual(s, legs, lengths2) for s in hits)
        if best > 1e-9:
            return f"seeded pose found with residual {best:.2e} > 1e-9"
    return None


def quartic_error(coeffs):
    if tuple(int(c) for c in coeffs) != REFERENCE_QUARTIC:
        return "reference quartic differs from the paper's"
    return None


# ---------------------------------------------------------------------------
# self-motions
# ---------------------------------------------------------------------------

def closed_form_type1(t, sign):
    T = math.sqrt(max(-(75 * t * t - 30 * t - 41) * (75 * t * t - 90 * t + 31),
                      0.0))
    return (7 / 4 * t * t - 7 / 5 * t - 161 / 300 - sign * T / 300,
            1 / 4 * t * t - 1 / 5 * t - 23 / 300 + sign * 7 * T / 300,
            t,
            -1 / 4 * t * t + 1 / 5 * t + 59 / 300 - sign * 7 * T / 300,
            7 / 4 * t * t - 7 / 5 * t - 413 / 300 - sign * T / 300,
            -2 * t + 3 / 5)


def closed_form_type2(t, sign):
    T = math.sqrt(max(-t ** 4 - 4 * t * t + 4, 0.0))
    return (-t * t / 2, sign * T / 2, t,
            t * t / 2 + 1 - sign * T / 2,
            -t * t / 2 - 1 - sign * T / 2,
            0.0)


def interval_error(intervals, expected, tol=1e-10):
    if len(intervals) != 1:
        return f"{len(intervals)} intervals, expected 1"
    lo, hi = intervals[0]
    if abs(lo - expected[0]) > tol or abs(hi - expected[1]) > tol:
        return f"interval ({lo!r}, {hi!r}) differs from {expected!r}"
    return None


def closed_form_error(samples, form, interval, tol=1e-10):
    """samples: (t, (x1, x2, x3, y1, y2, y3)) pairs; interior samples must
    lie on one of the two closed-form branches."""
    lo, hi = interval
    for t, got in samples:
        if not lo + 1e-5 < t < hi - 1e-5:
            continue
        err = min(max(abs(g - e) for g, e in zip(got, form(t, sg)))
                  for sg in (1, -1))
        if err > tol:
            return f"sample at t={t!r} is {err:.2e} off the closed form"
    return None


def trace_error(samples, legs, is_real, nonempty_expected):
    """samples: 9-tuples; legs: (a, base, r2) with exact r2."""
    if nonempty_expected != bool(samples):
        return (f"reality says {'REAL' if nonempty_expected else 'COMPLEX'} "
                f"but the trace has {len(samples)} samples")
    if is_real != bool(samples):
        return "trace flag is_real disagrees with its samples"
    for m in samples:
        err = phi_error(m, 1e-9)
        if err:
            return err
        if legs:
            err = lengths_error(m, [(a, b) for a, b, _ in legs],
                                [r2 for _, _, r2 in legs], 1e-8)
            if err:
                return err
    return None
