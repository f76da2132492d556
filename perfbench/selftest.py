"""Self-test of the checkers: each must pass a right answer and reject a
deliberately perturbed one.  run.py runs it before every benchmark run;
`python3 perfbench/selftest.py` runs it alone.
"""

import math
import random
from fractions import Fraction as F

import checks
import designs

# squared leg lengths of the Type 1 reference design's self-motion
_REF1_R2 = (F(3), F(142, 75), F(2606, 125), F(314, 45), F(17279, 1500))


def _curve_point(t, sign):
    x1, x2, x3, y1, y2, y3 = checks.closed_form_type1(t, sign)
    y0 = x1 * y1 + x2 * y2 + x3 * y3
    n0 = (y1 * y1 + y2 * y2 + y3 * y3) / 8
    return (n0, 1.0, x1, x2, x3, y0, y1, y2, y3)


def _nudge(m, k, by):
    return tuple(c + by if i == k else c for i, c in enumerate(m))


def run():
    """Return the list of checker failures (empty when all behave)."""
    bad = []

    def expect(name, reason, rejected):
        if (reason is not None) != rejected:
            bad.append(f"{name}: {'accepted' if rejected else reason}")

    # direct kinematics: the seeded pose of a random member
    rng = random.Random(0)
    legs = designs.random_legs(rng, False)
    pose = designs.random_pose(rng)
    l2 = designs.exact_lengths2(legs, pose)
    sol = tuple(float(c) for c in pose)
    expect("dk right", checks.dk_error([sol], 8, legs, l2, pose, ("eq", 8), 8),
           False)
    expect("dk pose off by 1e-3",
           checks.dk_error([_nudge(sol, 2, 1e-3)], 8, legs, l2, pose,
                           ("eq", 8), 8), True)
    expect("dk degree 7", checks.dk_error([sol], 7, legs, l2, pose,
                                          ("eq", 8), 8), True)
    expect("dk over the bound", checks.dk_error([sol] * 5, 6, legs, l2, pose,
                                                ("le", 4), 4), True)
    expect("dk pose lost", checks.dk_error([], 8, legs, l2, pose, ("eq", 8), 8),
           True)

    # reference quartic
    quartic = list(checks.REFERENCE_QUARTIC)
    expect("quartic right", checks.quartic_error(quartic), False)
    quartic[2] += 1
    expect("quartic changed", checks.quartic_error(quartic), True)

    # Type 1 reference trace: closed-form samples keep the legs' lengths
    lo, hi = checks.TYPE1_INTERVAL
    ts = [lo + (hi - lo) * k / 10 for k in range(1, 10)]
    samples = [_curve_point(t, s) for t in ts for s in (1, -1)]
    ref_legs = [(a, base, r2) for (a, base), r2
                in zip(designs.TAXONOMY["type1-reference"][0], _REF1_R2)]
    expect("trace right", checks.trace_error(samples, ref_legs, True, True),
           False)
    nudged = samples[:3] + [_nudge(samples[3], 3, 1e-6)] + samples[4:]
    expect("trace sample nudged",
           checks.trace_error(nudged, ref_legs, True, True), True)
    expect("trace empty but REAL", checks.trace_error([], ref_legs, False, True),
           True)
    pairs = [(t, m[2:5] + m[6:9]) for t, m in zip(
        [t for t in ts for _ in (1, -1)], samples)]
    expect("closed form right", checks.closed_form_error(
        pairs, checks.closed_form_type1, checks.TYPE1_INTERVAL), False)
    t, m = pairs[5]
    expect("closed form nudged", checks.closed_form_error(
        [(t, (m[0] + 1e-8,) + m[1:])], checks.closed_form_type1,
        checks.TYPE1_INTERVAL), True)
    expect("interval right", checks.interval_error(
        [checks.TYPE1_INTERVAL], checks.TYPE1_INTERVAL), False)
    expect("interval shifted", checks.interval_error(
        [(lo + 1e-8, hi)], checks.TYPE1_INTERVAL), True)
    expect("type 2 interval", checks.interval_error(
        [(-math.sqrt(2 * math.sqrt(2) - 2), math.sqrt(2 * math.sqrt(2) - 2))],
        checks.TYPE2_INTERVAL), False)
    return bad


if __name__ == "__main__":
    failures = run()
    for f in failures:
        print("FAIL", f)
    print("checker self-test:", "failed" if failures else "passed")
    raise SystemExit(1 if failures else 0)
