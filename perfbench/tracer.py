"""Span tracer for the traced pass.

Every public function of a layer module is replaced by a wrapper that
records a span ``[name, start, end, parent]``.  The wrapper is installed on
the defining module and on every other package module that imported the
function by name (``cli``, ``lowerbound``, ``ratesolver``, the package
root), so calls are seen whichever route they take.  Spans stay in memory
and are written out once, after the timed region.

A span's self time is its duration minus the durations of its direct
children.  Optional hooks look at a call's arguments and result to keep
counters (solver iterations, bytes written, schedule rows); a hook runs
after the span has closed, so its cost falls into the parent's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "reinforced_ldp"
LAYERS = ("ratesolver", "exact", "chains", "lowerbound", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = spans[idx]
                rec[1] = t0
                rec[2] = t1
            if hook is not None:
                try:
                    hook(self.counters, sig.bind(*args, **kwargs).arguments, out)
                except Exception:  # a hook must never change the workload's outcome
                    self.hook_errors += 1
            return out

        return traced

    def install(self, hooks: dict) -> None:
        """Wrap every public function of the layer modules, with ``hooks`` by span name."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``incl_s`` (inclusive time)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[i]
            rec["incl_s"] += t1 - t0
        return dict(out)

    def top_level_s(self) -> float:
        """Total duration of spans without a parent."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent}\n")
