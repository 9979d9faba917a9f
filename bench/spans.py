"""Spans around the public functions of the package's modules.

``install`` replaces each public function where callers look it up: the
module attribute, every ``from ... import`` binding of it in another module
of the package, and dispatch tables such as ``cli._DISPATCH``.  Spans nest;
a function's self time is its span minus the spans of the wrapped
functions it called.  Work counts are read from the returned objects.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = "hadamard_ineq"
MODULES = ("geometry", "weighted", "variational", "pme", "report_io", "cli")
# called once per CSV cell: a span per call would cost more than the work
UNTRACED = {"report_io.fmt", "report_io.header_line"}


class Tracer:
    def __init__(self):
        self.op = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.op_calls = defaultdict(lambda: defaultdict(int))
        self.op_counts = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [name, seconds spent in wrapped children]
        self._pairs = defaultdict(set)  # op -> distinct (weight, p) searched
        self._weights = []  # keeps weights alive so their ids stay distinct

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                _, children = self._stack.pop()
                self.self_s[name] += span - children
                self.calls[name] += 1
                self.op_calls[self.op][name] += 1
                if self._stack:
                    self._stack[-1][1] += span
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        counts = self.op_counts[self.op]
        if name == "weighted.supremum_B":
            counts["supremum_B.evaluations"] += result.search_trace["evaluations"]
            weight = args[0] if args else kwargs["weight"]
            p = args[1] if len(args) > 1 else kwargs["p"]
            self._weights.append(weight)
            self._pairs[self.op].add((id(weight), float(p)))
            counts["supremum_B.distinct"] = len(self._pairs[self.op])
        elif name == "geometry.build_model":
            counts["build_model.ode_calls"] += result.built_by == "ode"
        elif name == "variational.rayleigh_minimize":
            counts["rayleigh_minimize.iterations"] += result.iterations
        elif name == "pme.pme_run":
            counts["pme_run.steps"] += result.steps
        elif name.startswith("report_io.write_"):
            counts["write.files"] += 1
            counts["write.bytes"] += Path(result).stat().st_size

    def record(self) -> dict:
        totals = defaultdict(int)
        for counts in self.op_counts.values():
            for key, n in counts.items():
                totals[key] += n
        return {"functions": {n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                              for n in self.calls},
                "counts": dict(totals),
                "op_calls": {op: dict(c) for op, c in self.op_calls.items()},
                "op_counts": {op: dict(c) for op, c in self.op_counts.items()}}


def install(tracer: Tracer):
    """Wrap every public function of MODULES where callers look it up."""
    wrapped = {}
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrapped[obj] = tracer.wrap(name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if isinstance(val, types.FunctionType) and val in wrapped:
                        obj[key] = wrapped[val]
