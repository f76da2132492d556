"""Command-line front end: JSON geometry in, JSON/CSV reports out.

Exit codes: 0 success, 1 malformed input, 2 assumption-validation failure,
3 degenerate or architecturally singular input.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from fractions import Fraction

from .archsing import (ArchsingError, AssumptionViolationError, classify_arch,
                       validate_assumptions)
from .bonds import BondError, necessity_verdict
from .dirkin import DirkinError, max_real_solutions, solve_dk
from .geom import ProjPoint
from .kinmap import COORD_NAMES, KinmapError, Leg, Pentapod, displacement
from .polyalg import GaussRat, exactify, to_float
from .rearrange import ArchSingularInputError, classify_type
from .selfmotion import (SelfMotionError, real_legs_from_design, reality,
                         synth_leg_params, trace)
from .tol import DEFAULT_TOL, DISPLACEMENT_CHECK

log = logging.getLogger("pentakin")

_EXIT_BAD_INPUT = 1
_EXIT_VALIDATION = 2
_EXIT_DEGENERATE = 3


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


# ---------------------------------------------------------------------------
# geometry files
# ---------------------------------------------------------------------------

def parse_number(x):
    """JSON number or exact "p/q" string to an exact scalar."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(_EXIT_BAD_INPUT, f"bad rational literal {x!r}: {exc}")
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return exactify(x)
    raise CliError(_EXIT_BAD_INPUT, f"expected a number, got {x!r}")


def _numbers(path, x, shape, what):
    """The JSON array `x` of the given shape, as exact scalars."""
    if not (isinstance(x, list) and len(x) == shape[0]):
        raise CliError(_EXIT_BAD_INPUT, f"{path}: need {what}")
    if len(shape) == 1:
        return [parse_number(v) for v in x]
    return [_numbers(path, v, shape[1:], what) for v in x]


def load_geometry(path) -> Pentapod:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(_EXIT_BAD_INPUT, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(_EXIT_BAD_INPUT,
                       f"malformed JSON in {path} at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise CliError(_EXIT_BAD_INPUT, f"{path}: expected a JSON object")
    for key in ("platform", "base"):
        if key not in doc:
            raise CliError(_EXIT_BAD_INPUT, f"{path}: missing field {key!r}")
    avals = _numbers(path, doc["platform"], (5,), "5 platform values")
    pts = [tuple(b) for b in _numbers(path, doc["base"], (5, 3),
                                      "5 base triples")]
    frame = doc.get("frame")
    if frame:
        if not isinstance(frame, dict):
            raise CliError(_EXIT_BAD_INPUT, f"{path}: frame must be an object")
        pts = [_apply_frame(path, frame, q) for q in pts]
    lengths2 = None
    if doc.get("lengths2") is not None:
        lengths2 = _numbers(path, doc["lengths2"], (5,), "5 leg lengths")
    elif doc.get("lengths") is not None:
        lengths2 = [v ** 2 for v in _numbers(path, doc["lengths"], (5,),
                                             "5 leg lengths")]
    try:
        legs = tuple(
            Leg(a, q, lengths2[i] if lengths2 else None)
            for i, (a, q) in enumerate(zip(avals, pts)))
        return Pentapod(legs)
    except KinmapError as exc:
        raise CliError(_EXIT_DEGENERATE, str(exc))


def _apply_frame(path, frame, q):
    rot = frame.get("rotation")
    tr = _numbers(path, frame.get("translation", [0, 0, 0]), (3,),
                  "a frame translation of 3 numbers")
    out = list(q)
    if rot:
        rot = _numbers(path, rot, (3, 3), "a 3x3 frame rotation")
        out = [sum(rot[i][j] * q[j] for j in range(3)) for i in range(3)]
    return tuple(c + t for c, t in zip(out, tr))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def emit(value, exact=False):
    if isinstance(value, GaussRat):
        return {"re": emit(value.re, exact), "im": emit(value.im, exact)}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Fraction):
        if exact:
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
        return float(value)
    if isinstance(value, (list, tuple)):
        return [emit(v, exact) for v in value]
    if isinstance(value, ProjPoint):
        return {"w": emit(value.w, exact), "x": emit(value.x, exact),
                "y": emit(value.y, exact), "z": emit(value.z, exact)}
    if hasattr(value, "is_number") and value.is_number:  # sympy scalar
        real, imag = value.as_real_imag()
        if imag != 0:
            return {"re": float(real), "im": float(imag)}
        if exact and real.is_rational:
            return str(real.p) if real.q == 1 else f"{real.p}/{real.q}"
        return float(real)
    return value


def report(doc, out=None):
    text = json.dumps(doc, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    p = load_geometry(args.geometry)
    rep = validate_assumptions(p)
    doc = {"ok": rep.ok,
           "violations": [{"item": item, "message": msg}
                          for item, msg in rep.violations]}
    report(doc, args.out)
    if not rep.ok:
        item, msg = rep.violations[0]
        log.info("assumption (%s) violated", item)
        return _EXIT_VALIDATION
    return 0


def cmd_classify(args):
    p = load_geometry(args.geometry)
    arch = classify_arch(p)
    if arch.singular:
        report({"archSingular": True, "case": arch.case,
                "witness": [i + 1 for i in arch.witness[0]],
                "note": arch.witness[1]}, args.out)
        return _EXIT_DEGENERATE
    validate_assumptions(p).raise_if_violated()
    cls = classify_type(p)
    doc = {"archSingular": False,
           "type": {"planar_pencil": "PlanarPencil"}.get(
               cls.kind, cls.kind.replace("type", "Type"))}
    if cls.vertex is not None:
        doc["vertex"] = emit(cls.vertex, args.exact)
        doc["vertexIdeal"] = cls.vertex.is_ideal
    if cls.mannheim_image is not None:
        doc["mannheimImage"] = emit(cls.mannheim_image, args.exact)
    if cls.darboux_points:
        doc["darbouxPoints"] = [
            {"a": emit(dp.a, args.exact), "real": dp.is_real,
             "multiplicity": int(dp.multiplicity)}
            for dp in cls.darboux_points]
    if cls.ideal_element is not None:
        doc["idealElement"] = {"kind": cls.ideal_element.kind}
        if cls.ideal_element.direction:
            doc["idealElement"]["direction"] = emit(
                tuple(cls.ideal_element.direction), args.exact)
    report(doc, args.out)
    return 0


def cmd_dk(args):
    p = load_geometry(args.geometry)
    lengths = (None if args.lengths is None
               else _parse_list(args.lengths, "--lengths"))
    if lengths is not None and len(lengths) != 5:
        raise CliError(_EXIT_BAD_INPUT, "--lengths: need 5 leg lengths")
    out = solve_dk(p, lengths=lengths, tol=args.tol)
    poly = out.polynomial
    doc = {
        "variable": out.variable,
        "route": out.route,
        "degree": out.degree,
        "coefficients": [emit(Fraction(c.p, c.q), args.exact)
                         for c in poly.all_coeffs()],
        "realSolutions": [
            {"coords": dict(zip(COORD_NAMES,
                                (float(c) for c in s.params.coords()))),
             "residual": s.residual,
             "lengths": list(s.lengths)}
            for s in out.solutions],
    }
    report(doc, args.out)
    return 0


def cmd_bonds(args):
    p = load_geometry(args.geometry)
    v = necessity_verdict(p, tol=args.tol)
    doc = {"hasBond": v.has_bond,
           "tangencyRankDeficient": v.tangency_rank_deficient,
           "jacobianRank": v.jacobian_rank,
           "bonds": [
               {"coords": dict(zip(COORD_NAMES, (emit(c, args.exact)
                                                  for c in b.params.coords()))),
                "multiplicity": b.multiplicity,
                "exact": b.exact,
                "conjugateIndex": b.conjugate_index}
               for b in v.bonds]}
    report(doc, args.out)
    return 0


def cmd_maxreal(args):
    p = load_geometry(args.geometry)
    report({"maxRealSolutions": max_real_solutions(p)}, args.out)
    return 0


def _design_from_args(args):
    kwargs = {"a2": _parse_complex(args.a2),
              "m5": _parse_list(args.m5, "--m5"),
              "r1sq": parse_number(args.r1sq)}
    if len(kwargs["m5"]) != 3:
        raise CliError(_EXIT_BAD_INPUT,
                       f"--m5: need 3 numbers, got {len(kwargs['m5'])}")
    if args.type == 1:
        if args.a4 is None:
            raise CliError(_EXIT_BAD_INPUT, "--a4 is required for type 1")
        kwargs["a4"] = parse_number(args.a4)
    if args.type == 5:
        if args.a5 is None:
            raise CliError(_EXIT_BAD_INPUT, "--a5 is required for type 5")
        kwargs["a5"] = parse_number(args.a5)
    return synth_leg_params(args.type, **kwargs)


def _design_doc(d, exact):
    doc = {"type": d.type, "a2": emit(d.a2, exact),
           "m5": emit(tuple(d.m5), exact), "r1sq": emit(d.r1sq, exact),
           "p2": emit(d.p2, exact), "p3": emit(d.p3, exact)}
    for name in ("a4", "a5", "p4", "p5", "w", "r5sq"):
        val = getattr(d, name)
        if val is not None:
            doc[name] = emit(val, exact)
    rv = reality(d)
    doc["reality"] = rv.reality.value
    doc["realityMethod"] = rv.method
    return doc


def cmd_synth(args):
    d = _design_from_args(args)
    doc = _design_doc(d, args.exact)
    if args.legs_at is not None:
        avals = _parse_list(args.legs_at, "--legs-at")
        legs = real_legs_from_design(d, avals)
        doc["legs"] = []
        for entry in legs:
            if isinstance(entry, Leg):
                doc["legs"].append({"a": emit(entry.a, args.exact),
                                    "base": emit(tuple(entry.base), args.exact),
                                    "r2": emit(entry.r2, args.exact)})
            else:
                doc["legs"].append({"a": emit(entry.a, args.exact),
                                    "error": entry.reason})
    report(doc, args.out)
    return 0


def cmd_trace(args):
    d = _design_from_args(args)
    track = ([] if args.track is None
             else _parse_list(args.track, "--track"))
    tr = trace(d, samples=args.samples, tol=args.tol)
    if args.out:
        _write_trace_csv(args.out, tr, track)
    doc = {"real": tr.is_real, "samples": len(tr.samples),
           "parameter": tr.parameter,
           "intervals": [[float(lo), float(hi)] for lo, hi in tr.intervals]}
    report(doc)
    return 0


def _write_trace_csv(path, tr, track):
    cols = ["t", "x1", "x2", "x3", "y1", "y2", "y3"]
    for a in track:
        fa = to_float(a)
        cols += [f"px_{fa:g}", f"py_{fa:g}", f"pz_{fa:g}"]
    lines = [",".join(cols)]
    for s in tr.samples:
        m = s.params
        row = [s.t, m.x1, m.x2, m.x3, m.y1, m.y2, m.y3]
        for a in track:
            row.extend(displacement(m, to_float(a), tol=DISPLACEMENT_CHECK))
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_list(text, flag):
    parts = [v.strip() for v in text.split(",")]
    if "" in parts:
        raise CliError(_EXIT_BAD_INPUT, f"{flag}: empty entry in {text!r}")
    return [parse_number(v) for v in parts]


def _parse_complex(text):
    parts = str(text).split(",")
    if len(parts) > 2:
        raise CliError(_EXIT_BAD_INPUT,
                       f"--a2: need 1 or 2 numbers, got {len(parts)}")
    real, imag = (parse_number(v.strip()) for v in (parts + ["0"])[:2])
    return GaussRat(real, imag)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the subcommands whose numeric stages honour --tol
_NUMERIC_COMMANDS = ("dk", "bonds", "trace")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are malformed input (exit 1
    with a JSON error), not argparse's exit 2.  A value that starts with a
    minus sign and a digit, as `--a2 -3,1` or `--a4 -1/2`, is a value, not
    a flag: no option looks like a negative number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise CliError(_EXIT_BAD_INPUT, message)


def build_parser():
    ap = _Parser(
        prog="pentakin",
        description="Analysis of pentapods with a linear platform")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp_, name):
        sp_.add_argument("--exact", action="store_true",
                         help="serialize rationals as p/q strings")
        sp_.add_argument("--out", help="write the report to a file")
        sp_.add_argument(
            "--tol", type=float, default=DEFAULT_TOL,
            help="tolerance of the numeric root and residual tests "
                 f"(default {DEFAULT_TOL})" if name in _NUMERIC_COMMANDS else
                 "ignored: validate, classify and synth are exact, and "
                 f"maxreal keeps the default {DEFAULT_TOL}")

    for name, fn, needs_geom in (
            ("classify", cmd_classify, True),
            ("dk", cmd_dk, True),
            ("bonds", cmd_bonds, True),
            ("maxreal", cmd_maxreal, True),
            ("validate", cmd_validate, True),
            ("synth", cmd_synth, False),
            ("trace", cmd_trace, False)):
        sp_ = sub.add_parser(name)
        common(sp_, name)
        if needs_geom:
            sp_.add_argument("geometry", help="geometry JSON file")
        sp_.set_defaults(fn=fn)
        if name == "dk":
            sp_.add_argument("--lengths", help="five leg lengths r1,...,r5")
        if name in ("synth", "trace"):
            sp_.add_argument("--type", type=int, choices=(1, 2, 5),
                             required=True)
            sp_.add_argument("--a2", required=True,
                             help="complex platform parameter re,im")
            sp_.add_argument("--a4")
            sp_.add_argument("--a5")
            sp_.add_argument("--m5", required=True, help="point X,Y,Z")
            sp_.add_argument("--r1sq", required=True)
        if name == "synth":
            sp_.add_argument("--legs-at", dest="legs_at",
                             help="platform coordinates for generated legs")
        if name == "trace":
            sp_.add_argument("--samples", type=int, default=200)
            sp_.add_argument("--track",
                             help="platform coordinates to export as paths")
    return ap


def run_command(argv) -> int:
    level = os.environ.get("PENTAKIN_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO))
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return exc.code
    except AssumptionViolationError as exc:
        print(json.dumps({"error": str(exc), "item": exc.item}),
              file=sys.stderr)
        return _EXIT_VALIDATION
    except (ArchSingularInputError, BondError, DirkinError, SelfMotionError,
            ArchsingError, KinmapError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return _EXIT_DEGENERATE
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return _EXIT_BAD_INPUT


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
