"""The four workloads: how each builds its inputs from the seed, what one
query calls, and how its answer is checked.

A run repeats whole rounds.  Every round of a workload has the same
make-up, so the share of queries that fail is the same in every run; the
seeded inputs of round r come from (seed, r).  A query's `run` is the
only part that is timed; building inputs and checking answers are not.
"""

import json
import os
from dataclasses import dataclass
from fractions import Fraction as F

import checks
import designs

SAMPLES = 50          # trace samples per self-motion query


@dataclass
class Query:
    name: str
    run: object           # () -> answer; calls the program, timed
    check: object         # answer -> None | reason
    known_fault: object = None   # answer -> True when the named fault shows


# ---------------------------------------------------------------------------
# shared input builders (these call the program only to make inputs valid)
# ---------------------------------------------------------------------------

def pentapod(legs, lengths2=None):
    import pentakin
    return pentakin.Pentapod(tuple(
        pentakin.Leg(a, base, None if lengths2 is None else lengths2[i])
        for i, (a, base) in enumerate(legs)))


def random_member(rng, planar):
    """A random member of the working class, drawn as the test suite
    draws them: distinct platform points, valid assumptions, not
    architecturally singular."""
    import pentakin
    from pentakin.kinmap import KinmapError
    while True:
        legs = designs.random_legs(rng, planar)
        try:
            p = pentapod(legs)
        except KinmapError:
            continue
        if len(set(p.platform)) < 5:
            continue
        if not pentakin.validate_assumptions(p).ok:
            continue
        if pentakin.classify_arch(p).singular:
            continue
        if planar != p.is_base_planar():
            continue
        return legs


# ---------------------------------------------------------------------------
# dk-survey
# ---------------------------------------------------------------------------

def _dk_query(name, legs, rng, rule, bound):
    import pentakin
    pose = designs.random_pose(rng)
    lengths2 = designs.exact_lengths2(legs, pose)
    p = pentapod(legs, lengths2)

    def run():
        out = pentakin.solve_dk(p, lengths2=lengths2)
        return ([tuple(float(c) for c in s.params.coords())
                 for s in out.solutions], out.degree)

    def check(answer):
        sols, degree = answer
        return checks.dk_error(sols, degree, legs, lengths2, pose, rule, bound)

    return Query(name, run, check)


class DkSurvey:
    name = "dk-survey"
    children_rss = False

    def __init__(self, seed):
        self.seed = seed

    def round(self, r):
        """Three generic non-planar members, one planar member, one
        degree-4 and one degree-6 taxonomy design, all with seeded poses;
        the taxonomy designs rotate with seed and round."""
        rng = designs.rng_for(self.name, self.seed, r)
        out = [_dk_query("generic member", random_member(rng, False), rng,
                         ("eq", 8), 8) for _ in range(3)]
        out.append(_dk_query("planar member", random_member(rng, True), rng,
                             ("le", 8), 8))
        for names, deg in ((designs.DEGREE4, 4), (designs.DEGREE6, 6)):
            key = names[(self.seed + r) % len(names)]
            out.append(_dk_query(key, designs.TAXONOMY[key][0], rng,
                                 ("le", deg), deg))
        return out

    def warmup(self):
        rng = designs.rng_for(self.name, "warm-up")
        q = _dk_query("warm-up", random_member(rng, False), rng, ("eq", 8), 8)
        return q.check(q.run())


# ---------------------------------------------------------------------------
# classify-survey
# ---------------------------------------------------------------------------

def _verdict_query(name, legs, kind, maxreal, duporcq, has_bond=None):
    import pentakin
    p = pentapod(legs)

    def run():
        ok = pentakin.validate_assumptions(p).ok
        singular = pentakin.classify_arch(p).singular
        cls = pentakin.classify_type(p)
        nv = pentakin.necessity_verdict(p)
        mr = pentakin.max_real_solutions(p)
        dup = None
        if cls.kind in ("type1", "type2", "type5"):
            dup = pentakin.duporcq_check(p).name
        return ok, singular, cls.kind, nv.has_bond, mr, dup

    def check(answer):
        ok, singular, got_kind, bond, mr, dup = answer
        if not ok or singular:
            return "a working-class member was rejected"
        if got_kind != kind:
            return f"kind {got_kind}, expected {kind}"
        if mr != maxreal:
            return f"max real solutions {mr}, expected {maxreal}"
        if has_bond is not None and bond != has_bond:
            return f"bond found = {bond}, expected {has_bond}"
        if duporcq == "not FULL":
            if dup == "FULL":
                return "Duporcq FULL contradicts the bound of 6"
        elif dup != duporcq:
            return f"Duporcq {dup}, expected {duporcq}"
        return None

    return Query(name, run, check)


class ClassifySurvey:
    name = "classify-survey"
    children_rss = False

    def __init__(self, seed):
        self.seed = seed

    def round(self, r):
        rng = designs.rng_for(self.name, self.seed, r)
        out = [_verdict_query(key, legs, kind, mr, dup)
               for key, (legs, kind, mr, dup) in designs.TAXONOMY.items()]
        for _ in range(3):
            out.append(_verdict_query("planar member", random_member(rng, True),
                                      "planar_pencil", 8, None, False))
        # One generic verdict costs 8-13 s depending on the member, more
        # than the rest of the round together; its draw depends on the round
        # only, so that the seed does not decide the round's length.
        generic = random_member(designs.rng_for(self.name, "generic", r), False)
        out.append(_verdict_query("generic member", generic, "type1", 8,
                                  "NONE", False))
        return out

    def warmup(self):
        # the Type 1 reference with its base stretched along y: non-planar,
        # Type 1, not in any round
        legs = [(a, (A, 2 * B, C))
                for a, (A, B, C) in designs.TAXONOMY["type1-reference"][0]]
        q = _verdict_query("warm-up", legs, "type1", 8, "NONE")
        return q.check(q.run())


# ---------------------------------------------------------------------------
# selfmotion-trace
# ---------------------------------------------------------------------------

def _gauss(re, im):
    import pentakin
    return pentakin.GaussRat(re, im)


def _selfmotion_query(name, kind, params, a_values, reference=None):
    import pentakin

    def run():
        d = pentakin.synth_leg_params(kind, **params)
        rv = pentakin.reality(d)
        tr = pentakin.trace(d, samples=SAMPLES)
        legs = pentakin.real_legs_from_design(d, a_values)
        samples = [(s.t, tuple(float(c) for c in s.params.coords()))
                   for s in tr.samples]
        real_legs = [(l.a, l.base, l.r2) for l in legs
                     if isinstance(l, pentakin.Leg)]
        return (rv.reality.name, samples, tr.is_real,
                [tuple(iv) for iv in tr.intervals], real_legs)

    def check(answer):
        reality, samples, is_real, intervals, legs = answer
        err = checks.trace_error([m for _, m in samples], legs, is_real,
                                 reality == "REAL")
        if err or reference is None:
            return err
        form, interval, scale = reference
        return (checks.interval_error(intervals, interval)
                or checks.closed_form_error(
                    [(t, m[2:5] + tuple(v / scale for v in m[6:9]))
                     for t, m in samples], form, interval))

    def known_fault(answer):
        return answer[0] == "REAL" and not answer[1]

    return Query(name, run, check, known_fault)


def _scaled_reference(rng, kind):
    """A reference design scaled by a seeded rational factor: a similar
    mechanism, so its self-motion is real, its parameter interval is the
    reference's and its curve is the closed form with y scaled."""
    lam = F(rng.randint(1, 9), rng.randint(1, 4))
    if kind == 1:
        params = dict(a2=_gauss(0, lam), a4=2 * lam, m5=(lam, lam, lam),
                      r1sq=3 * lam * lam)
        ref = (checks.closed_form_type1, checks.TYPE1_INTERVAL)
    else:
        params = dict(a2=_gauss(lam, lam), m5=(lam, lam, 0),
                      r1sq=4 * lam * lam)
        ref = (checks.closed_form_type2, checks.TYPE2_INTERVAL)
    return params, ref + (float(lam),)


def _type5_draw(rng, c5):
    """A design of acceptance criterion 10 (a2 = 1+i, a5 = 1,
    m5 = (1, 1, c5), r1sq = 25), scaled by a seeded rational factor.
    Scaling keeps the reality of the self-motion: real for |c5| < 1."""
    lam = F(rng.randint(1, 9), rng.randint(1, 4))
    return dict(a2=_gauss(lam, lam), a5=lam, m5=(lam, lam, lam * c5),
                r1sq=25 * lam * lam)


class SelfmotionTrace:
    name = "selfmotion-trace"
    children_rss = False

    def __init__(self, seed):
        self.seed = seed

    def round(self, r):
        rng = designs.rng_for(self.name, self.seed, r)

        def a_values():
            return [designs.rand_frac(rng, -4, 4) for _ in range(3)]

        # About 10 s a round, so that a 15 s run holds two whole rounds
        # whether the machine runs fast or slow.
        out = []
        for kind in (1, 1, 2, 2):
            params, ref = _scaled_reference(rng, kind)
            out.append(_selfmotion_query(f"type{kind} scaled reference", kind,
                                         params, a_values(), ref))
        # criterion 10's real cases, one each, and one of its complex cases
        for c5 in (0, F(1, 2), F(99, 100)):
            out.append(_selfmotion_query("type5 real", 5, _type5_draw(rng, c5),
                                         a_values()))
        out.append(_selfmotion_query(
            "type5 complex", 5, _type5_draw(rng, rng.choice((1, F(3, 2)))),
            a_values()))
        # Known fault: REAL by the |C5| < |a5| formula, yet its reduced
        # quadrics are disjoint circles and the trace is empty.
        out.append(_selfmotion_query(
            "type5 empty trace", 5,
            dict(a2=_gauss(1, 1), a5=1, m5=(2, 1, F(1, 2)), r1sq=25),
            [F(1, 2), -1, 2]))
        return out

    def warmup(self):
        q = _selfmotion_query("warm-up", 2,
                              dict(a2=_gauss(1, -2), m5=(1, 3, 0), r1sq=7),
                              [1, 2])
        return q.check(q.run())


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def _text(x):
    return f"{x.numerator}/{x.denominator}"


def _write(path, platform, base, lengths2):
    with open(path, "w") as fh:
        json.dump({"platform": platform, "base": base,
                   "lengths2": [_text(v) for v in lengths2]}, fh)


def _dk_solutions(doc):
    names = ("n0", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")
    return [tuple(s["coords"][n] for n in names) for s in doc["realSolutions"]]


class CliOneshot:
    name = "cli-oneshot"
    children_rss = True

    def __init__(self, seed, workdir, launch):
        self.seed = seed
        self.dir = workdir
        self.launch = launch
        os.makedirs(workdir, exist_ok=True)
        self.readme = os.path.join(workdir, "readme.json")
        with open(self.readme, "w") as fh:
            json.dump(designs.README_GEOMETRY, fh)
        self.readme_legs = designs.TAXONOMY["type1-reference"][0]
        # fixed input: the float-geometry fault must fail on every seed
        rng = designs.rng_for(self.name, "float")
        legs = random_member(rng, False)
        floats = [(float(a) + 0.1, [float(c) + 0.1 for c in base])
                  for a, base in legs]
        self.float_legs = [(F(a), tuple(F(c) for c in base))
                           for a, base in floats]
        self.float_pose = designs.random_pose(rng)
        self.float_l2 = designs.exact_lengths2(self.float_legs,
                                               self.float_pose)
        self.float_file = os.path.join(workdir, "float.json")
        _write(self.float_file, [a for a, _ in floats],
               [b for _, b in floats], self.float_l2)

    def _query(self, name, args, check, known_fault=None):
        def checked(answer):
            rc, out, err = answer
            if rc != 0:
                return f"exit {rc}: {err.strip()[-200:]}"
            try:
                doc = json.loads(out)
            except ValueError:
                return "output is not JSON"
            return check(doc)
        return Query(name, lambda: self.launch(args), checked, known_fault)

    def _geometry_queries(self, tag, path, legs, lengths2, pose, expect):
        kind, bonds, maxreal, dk_rule = expect

        def dk_check(doc):
            if tag == "readme":
                err = checks.quartic_error(F(c) for c in doc["coefficients"])
                if err:
                    return err
            return checks.dk_error(_dk_solutions(doc), doc["degree"], legs,
                                   lengths2, pose, dk_rule, maxreal)

        return [
            self._query(f"{tag} validate", ["validate", path],
                        lambda d: None if d["ok"] and not d["violations"]
                        else "validation failed"),
            self._query(f"{tag} classify", ["classify", path],
                        lambda d: None if d["type"] == kind
                        and not d["archSingular"] else f"type {d['type']}"),
            self._query(f"{tag} dk", ["dk", "--exact", path], dk_check),
            self._query(f"{tag} bonds", ["bonds", path],
                        lambda d: None if d["hasBond"] == bonds[0]
                        and d["tangencyRankDeficient"] == bonds[1]
                        else "bond verdict differs"),
            self._query(f"{tag} maxreal", ["maxreal", path],
                        lambda d: None if d["maxRealSolutions"] == maxreal
                        else f"maxreal {d['maxRealSolutions']}"),
        ]

    def round(self, r):
        rng = designs.rng_for(self.name, self.seed, r)
        out = self._geometry_queries(
            "readme", self.readme, self.readme_legs,
            [r * r for r in designs.README_GEOMETRY["lengths"]], None,
            ("Type1", (True, True), 4, ("le", 4)))
        legs = random_member(rng, True)
        pose = designs.random_pose(rng)
        l2 = designs.exact_lengths2(legs, pose)
        path = os.path.join(self.dir, f"member-{r}.json")
        _write(path, [_text(a) for a, _ in legs],
               [[_text(c) for c in base] for _, base in legs], l2)
        out += self._geometry_queries(
            "member", path, legs, l2, pose,
            ("PlanarPencil", (False, False), 8, ("le", 8)))
        out.append(self._query(
            "readme synth",
            ["synth", "--type", "1", "--a2", "0,1", "--a4", "2", "--m5",
             "1,1,1", "--r1sq", "3", "--legs-at", "0,1,3"], self._synth_check))
        csv = os.path.join(self.dir, f"trace-{r}.csv")
        out.append(self._query(
            "readme trace",
            ["trace", "--type", "1", "--a2", "0,1", "--a4", "2", "--m5",
             "1,1,1", "--r1sq", "3", "--samples", "200", "--out", csv,
             "--track", "0,1,3"], lambda d: self._trace_check(d, csv)))
        out.append(self._query(
            "float-geometry dk", ["dk", "--exact", self.float_file],
            lambda d: checks.dk_error(_dk_solutions(d), d["degree"],
                                      self.float_legs, self.float_l2,
                                      self.float_pose, ("le", 8), 8),
            known_fault=lambda answer: answer[0] == 1))
        return out

    def _synth_check(self, d):
        want = {"p4": -0.6, "p5": 46 / 75}
        if abs(d["p2"]["re"] + 0.12) > 1e-12 or abs(d["p2"]["im"] + 0.84) > 1e-12:
            return "p2 differs from -3/25 - 21/25 i"
        for key, val in want.items():
            if abs(d[key] - val) > 1e-12:
                return f"{key} = {d[key]}, expected {val}"
        if d["reality"] != "real":
            return "reference design reported complex"
        # legs at 0, 1, 3 sit on the README geometry's first base points
        for leg, (a, base) in zip(d["legs"], self.readme_legs[:3]):
            if max(abs(g - float(b)) for g, b in zip(leg["base"], base)) > 1e-12:
                return f"leg at a={a} has base {leg['base']}"
        return None

    def _trace_check(self, d, csv):
        err = checks.interval_error([tuple(iv) for iv in d["intervals"]],
                                    checks.TYPE1_INTERVAL)
        if err or not d["real"] or not d["samples"]:
            return err or "reference trace is empty"
        with open(csv) as fh:
            rows = [list(map(float, line.split(",")))
                    for line in fh.read().splitlines()[1:]]
        if len(rows) != d["samples"]:
            return "CSV rows differ from the reported sample count"
        err = checks.closed_form_error([(row[0], tuple(row[1:7])) for row in rows],
                                       checks.closed_form_type1,
                                       checks.TYPE1_INTERVAL)
        if err:
            return err
        for k, (a, base) in enumerate(self.readme_legs[:3]):
            d2 = []
            for row in rows:
                x, y = row[1:4], row[4:7]
                P = row[7 + 3 * k: 10 + 3 * k]
                if max(abs(p + a * xi + yi) for p, xi, yi in zip(P, x, y)) > 1e-12:
                    return f"tracked point {a} is not -(a x + y)"
                d2.append(sum((p - float(b)) ** 2 for p, b in zip(P, base)))
            if (max(d2) - min(d2)) > 1e-8 * max(d2):
                return f"platform point {a} leaves its sphere"
        return None

    def warmup(self):
        return None


def make(name, seed, workdir, launch_cli):
    if name == "cli-oneshot":
        return CliOneshot(seed, workdir, launch_cli)
    for cls in (DkSurvey, ClassifySurvey, SelfmotionTrace):
        if cls.name == name:
            return cls(seed)
    raise SystemExit(f"unknown workload {name!r}")
