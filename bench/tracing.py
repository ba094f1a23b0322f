"""Span tracing from the benchmark side, for the traced run only.

The layers are the modules ``rp2``, ``invariants``, ``isometry``, ``hilbert``,
``coords`` and ``cli``; ``hilbert`` is split into its area path and its chord
path.  ``install`` replaces each layer's entry functions (module-level
functions that another projkit module or the package namespace refers to,
plus ``cli.main``) by a wrapper that records a span, in every projkit
namespace that holds them, and puts the originals back on exit.  Classes are
never replaced (``Flag.__init__`` tests ``isinstance(point, ProjPoint)``), so
the benchmark opens spans itself around class construction and methods.

A span is [layer, parent index, start, end]; self time is a span's duration
minus the durations of its direct children, which are disjoint because
everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time

LAYER_MODULES = ("rp2", "invariants", "isometry", "hilbert", "coords", "cli")
HILBERT_AREA = {"busemann_area", "triangle_area_experiment"}
LAYERS = ("rp2", "invariants", "isometry", "hilbert.area", "hilbert.chord", "coords", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, layer, fn, *args, **kwargs):
        clock = time.perf_counter
        idx = len(self.spans)
        span = [layer, self._stack[-1] if self._stack else -1, clock(), 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = clock()
            self._stack.pop()

    def summary(self) -> dict:
        """Per layer: entries from another layer, self seconds, median entry microseconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "entries_us": []} for name in LAYERS}
        for i, (layer, parent, start, end) in enumerate(spans):
            rec = out[layer]
            rec["self_s"] += (end - start) - child[i]
            if parent < 0 or spans[parent][0] != layer:
                rec["calls"] += 1
                rec["entries_us"].append((end - start) * 1e6)
        for rec in out.values():
            us = rec.pop("entries_us")
            rec["p50_us"] = statistics.median(us) if us else 0.0
        return out


def _layer_of(module_name: str, func_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    if short == "hilbert":
        return "hilbert.area" if func_name in HILBERT_AREA else "hilbert.chord"
    return short


def _namespaces():
    return [importlib.import_module("projkit")] + [
        importlib.import_module(f"projkit.{m}") for m in LAYER_MODULES]


def entry_functions() -> dict:
    """{original function: layer} for every layer entry point."""
    mods = _namespaces()
    found = {}
    for mod in mods[1:]:
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            used_elsewhere = any(
                other is not mod and any(v is obj for v in vars(other).values())
                for other in mods
            )
            if used_elsewhere or (mod.__name__ == "projkit.cli" and name == "main"):
                found[obj] = _layer_of(mod.__name__, name)
    return found


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch every entry function with a span-recording wrapper; yields {original: wrapper}."""
    wrappers = {}
    for fn, layer in entry_functions().items():
        wrappers[fn] = functools.wraps(fn)(functools.partial(tracer.call, layer, fn))
    patched = []
    for mod in _namespaces():
        ns = vars(mod)
        for name, obj in list(ns.items()):
            if inspect.isfunction(obj) and obj in wrappers:
                ns[name] = wrappers[obj]
                patched.append((ns, name, obj))
    try:
        yield wrappers
    finally:
        for ns, name, obj in patched:
            ns[name] = obj
