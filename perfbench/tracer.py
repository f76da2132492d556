"""Spans around the program's layers, installed from outside the program.

`install` wraps every public function of each pentakin module and
re-binds the wrapper under every name that refers to the function in any
pentakin module, so that a name bound by `from .bonds import
necessity_verdict` inside `dirkin` is wrapped where `dirkin` looks it up.
It also wraps the sympy and numpy entry points pentakin calls; those
wrappers record only calls made directly from pentakin code.

A span records its name, start, end, parent span and query.  Spans stay
in memory and are written out when the run ends.  A layer's self time is
its spans' duration minus the time of the wrapped calls made inside them.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("archsing", "bonds", "cli", "dirkin", "geom", "kinmap", "polyalg",
           "rearrange", "selfmotion")

# (metric prefix, module path, attribute path)
LIBRARY_ENTRY_POINTS = (
    ("sympy.resultant", "sympy", "resultant"),
    ("sympy.gcd", "sympy", "gcd"),
    ("sympy.factor_list", "sympy", "factor_list"),
    ("sympy.lambdify", "sympy", "lambdify"),
    ("sympy.simplify", "sympy", "simplify"),
    ("sympy.expand", "sympy", "expand"),
    ("sympy.roots", "sympy", "roots"),
    ("sympy.real_roots", "sympy", "real_roots"),
    ("sympy.N", "sympy", "N"),
    ("sympy.Matrix.LUsolve", "sympy", "Matrix.LUsolve"),
    ("sympy.Basic.subs", "sympy", "Basic.subs"),
    ("numpy.roots", "numpy", "roots"),
    ("numpy.linalg.lstsq", "numpy", "linalg.lstsq"),
    ("numpy.linalg.svd", "numpy", "linalg.svd"),
)


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, query)
        self.calls = {}
        self.self_s = {}
        self.stack = []        # [span index, time of wrapped children]
        self.query = None      # spans are recorded only inside a query
        self.dk_solutions = 0
        self.dk_degree = 0
        self.samples_kept = 0
        self.samples_tried = 0

    def wrap(self, name, fn, from_pentakin_only=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.query is None or (
                    from_pentakin_only and not sys._getframe(1).f_globals.get(
                        "__name__", "").startswith("pentakin")):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [index, 0.0]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.query)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = (tracer.self_s.get(name, 0.0)
                                       + (end - start) - frame[1])
                if tracer.stack:
                    tracer.stack[-1][1] += end - start
            tracer.observe(name, args, kwargs, result)
            return result

        return wrapper

    def observe(self, name, args, kwargs, result):
        """Useful-outcome counts read off the answers of two layers."""
        if name == "dirkin.solve_dk":
            self.dk_solutions += len(result.solutions)
            self.dk_degree += result.degree
        elif name == "selfmotion.trace" and result.intervals:
            # candidates tried: two branches per parameter value for Types 1
            # and 2; two signs of x2 times two roots of the leftover quadric
            # for Type 5
            design = args[0]
            n = max(2, kwargs.get("samples", args[1] if len(args) > 1 else 200))
            per_value = 4 if design.type == 5 else 2
            self.samples_tried += per_value * n * len(result.intervals)
            self.samples_kept += len(result.samples)

    def totals(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "dk_solutions": self.dk_solutions,
                "dk_degree": self.dk_degree,
                "samples_kept": self.samples_kept,
                "samples_tried": self.samples_tried}

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"totals": self.totals(), "extra": extra or {},
                       "spans": self.spans}, fh)


def install(tracer):
    import pentakin
    modules = [importlib.import_module(f"pentakin.{m}") for m in MODULES]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in (pentakin, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for name, root, path in LIBRARY_ENTRY_POINTS:
        owner = importlib.import_module(root)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr,
                tracer.wrap(name, getattr(owner, attr), from_pentakin_only=True))


def merge(into, totals):
    """Add one process's totals (from `Tracer.totals`) into another's."""
    for key in ("calls", "self_s"):
        for name, value in totals[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for key in ("dk_solutions", "dk_degree", "samples_kept", "samples_tried"):
        into[key] += totals[key]
