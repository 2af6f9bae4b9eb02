"""Spans around the calls into each fracemden module's public functions.

``Tracer.install`` replaces every module binding of the functions in LAYERS
with a wrapper that records one span per call: name, start, end, parent
span and operation id.  Every binding has to be patched because several
functions are imported by name into other modules (``eval_basis`` into
``solver``, ``approx`` and ``cli``; ``solve`` and ``build_basis`` into
``cli``).  ``expr.evaluate`` recurses through its own module-global name,
so only its outermost call becomes a span.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "fraccalc": ("build_D", "build_E"),
    "linalg": ("gram_fractions", "solve_fractions", "lu_solve", "condition_estimate"),
    "solver": ("solve", "assemble_residual"),
    "expr": ("evaluate", "parse"),
    "polybasis": ("eval_basis", "build_basis"),
    "approx": ("integrate_01",),
    "problems": ("parse_problem_file",),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        # one [name, start, end, parent index, op id] per call
        self.spans: list[list] = []
        self.op = -1
        self.newton_iters = 0
        self.build_E_keys: set[tuple[str, int]] = set()
        self._stack: list[int] = []
        self._in_evaluate = False

    def install(self) -> None:
        originals = {}
        for mod, names in LAYERS.items():
            module = importlib.import_module(f"fracemden.{mod}")
            for fn in names:
                orig = getattr(module, fn)
                originals[id(orig)] = self._wrap(f"{mod}.{fn}", orig)
        for modname, module in list(sys.modules.items()):
            if modname != "fracemden" and not modname.startswith("fracemden."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def record(args, kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, stack[-1] if stack else -1, self.op]

        if name == "expr.evaluate":
            def wrapper(*args, **kwargs):
                if self._in_evaluate:
                    return fn(*args, **kwargs)
                self._in_evaluate = True
                try:
                    return record(args, kwargs)
                finally:
                    self._in_evaluate = False
        elif name == "solver.solve":
            def wrapper(*args, **kwargs):
                report = record(args, kwargs)
                self.newton_iters += report.newton_iters
                return report
        elif name == "fraccalc.build_E":
            def wrapper(alpha, basis, *args, **kwargs):
                self.build_E_keys.add((repr(float(alpha)), basis.N))
                return record((alpha, basis) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return record(args, kwargs)
        return functools.wraps(fn)(wrapper)

    def state(self) -> dict:
        return {
            "spans": self.spans,
            "newton_iters": self.newton_iters,
            "build_E_keys": sorted(self.build_E_keys),
        }


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (duration minus
    the time covered by direct children; children of one span never
    overlap, since the program is single-threaded)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        s["calls"] += 1
        s["total"] += t1 - t0
        s["self"] += t1 - t0 - child_time[i]
    return out


def dump(path, state: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
