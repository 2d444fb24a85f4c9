"""Tracing for the benchmark's traced run: spans plus a per-module profile.

Spans are recorded by the benchmark's own code around each public call into
the library (name, start, end, parent span, item id) and kept in memory.
The profile is ``cProfile`` over the whole traced pass, aggregated by source
file: ``bsatlas/<module>.py`` and the standard library's ``fractions.py``,
the arithmetic kernel under every exact computation.  A module's self time
is the time spent in its own functions plus the built-ins they call
directly.  Nothing in the library is edited to get these numbers.
"""

from __future__ import annotations

import cProfile
import os
import time

MODULES = ("symbolic", "linalg", "groups", "atlas", "poisson", "cgl", "positivity", "leaves", "rootdata")

# Public calls the benchmark wraps in spans; each becomes "<name>_s".
SPANS = (
    "rootdata.build_root_system",
    "groups.build_model",
    "poisson.build_lambda",
    "atlas.enumerate_charts",
    "atlas.parametrize",
    "poisson.chart_bracket",
    "poisson.jacobi_check",
    "cgl.predicted_cgl",
    "cgl.verify_cgl",
    "cgl.hamiltonian_report",
    "atlas.change_of_coordinates",
    "positivity.certify_chart_positivity",
    "positivity.toric_point",
    "leaves.t_leaf_classify",
)

# Call counters: metric name -> (module, qualified function name).
COUNTERS = {
    "atlas.eval_coordinates.calls": ("atlas", "eval_coordinates"),
    "poisson.derive.calls": ("poisson", "chart_bracket.<locals>.derive"),
    "groups.generalized_minor.calls": ("groups", "GroupModel.generalized_minor"),
    "groups.GroupElement.inverse.calls": ("groups", "GroupElement.inverse"),
    "linalg.adjugate_inverse.calls": ("linalg", "adjugate_inverse"),
    "symbolic.poly_gcd.calls": ("symbolic", "poly_gcd"),
    "symbolic.RatFunc.mul.calls": ("symbolic", "RatFunc.__mul__"),
    "symbolic.RatFunc.add.calls": ("symbolic", "RatFunc.__add__"),
    "symbolic.MultiPoly.mul.calls": ("symbolic", "MultiPoly.__mul__"),
    "symbolic.Dual.mul.calls": ("symbolic", "Dual.__mul__"),
    "fractions.Fraction.new.calls": ("fractions", "Fraction.__new__"),
    "linalg.gauss_ltu.calls": ("linalg", "gauss_ltu"),
    "linalg.det.calls": ("linalg", "det"),
    "linalg.mat_mul.calls": ("linalg", "mat_mul"),
    "groups.triangular_factor.calls": ("groups", "GroupModel.triangular_factor"),
}


class Spans:
    """In-memory span recorder; ``call`` has the signature of ``plain_call``."""

    def __init__(self):
        self.records = []
        self._stack = []
        self.item = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.records[idx][2] = time.perf_counter()

    def totals(self):
        """Total duration per span name (public calls do not nest in each other)."""
        out = dict.fromkeys(SPANS, 0.0)
        for name, start, end, _, _ in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "item": i}
            for n, s, e, p, i in self.records
        ]


def _module_of(filename):
    base = os.path.basename(filename)
    parent = os.path.basename(os.path.dirname(filename))
    if base == "fractions.py" and parent != "bsatlas":
        return "fractions"
    if parent == "bsatlas" and base.endswith(".py"):
        return base[:-3]
    return None


class Profile:
    """cProfile over one traced pass, reduced to module self times and call counts."""

    def __init__(self):
        self._prof = cProfile.Profile()

    def __enter__(self):
        self._prof.enable()
        return self

    def __exit__(self, *exc):
        self._prof.disable()

    def summary(self):
        self_s = dict.fromkeys(MODULES + ("fractions",), 0.0)
        calls = {}
        for entry in self._prof.getstats():
            code = entry.code
            if isinstance(code, str):
                continue
            module = _module_of(code.co_filename)
            if module is None:
                continue
            key = (module, code.co_qualname)
            calls[key] = calls.get(key, 0) + entry.callcount
            if module in self_s:
                self_s[module] += entry.inlinetime
            for sub in entry.calls or ():
                if isinstance(sub.code, str) and module in self_s:
                    self_s[module] += sub.inlinetime
        counts = {name: calls.get(key, 0) for name, key in COUNTERS.items()}
        return {"self_s": self_s, "counts": counts}
