"""Spans and boundary counters for the traced benchmark run.

A span is one call into a wrapped library function: its name, start and end
(``time.perf_counter`` seconds) and the index of the span that was open when
it began (-1 for none).  Spans live in flat arrays, which the garbage
collector does not track, and are written out only when a pass ends.

The library imports many names directly (``classify`` does
``from .immanant import percent_immanant``), so wrapping a function means
rebinding every ``tlimm.*`` module attribute that refers to it; a binding
left alone would run unrecorded.  Hot leaves (``lies_in``, ``sign``,
``contains_pattern``, ``TLElement.coeff``) are not wrapped: their cost shows
as their caller's self time, and ``contains_pattern`` is measured through
its ``cache_info()`` instead.

This module imports nothing from tlimm at import time, so the parent
process can read the metric names without loading the library.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from array import array
from time import perf_counter

SUITES = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10")

# (span name, module, attribute) for every wrapped function.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("tl.theta_table", "tlimm.tl", "theta_table"),
    ("tl.theta", "tlimm.tl", "theta"),
    ("tl.f_coeff", "tlimm.tl", "f_coeff"),
    ("immanant.all_tl_immanants", "tlimm.immanant", "all_tl_immanants"),
    ("immanant.tl_immanant", "tlimm.immanant", "tl_immanant"),
    ("immanant.percent_immanant", "tlimm.immanant", "percent_immanant"),
    ("immanant.evaluate", "tlimm.immanant", "evaluate"),
    ("immanant.cm_immanant", "tlimm.immanant", "cm_immanant"),
    ("classify.closed_form_coeff", "tlimm.classify", "closed_form_coeff"),
    ("classify.decompose", "tlimm.classify", "decompose"),
    ("coloring.compatible_permutations", "tlimm.coloring", "compatible_permutations"),
    ("coloring.unique_matching_general", "tlimm.coloring", "unique_matching_general"),
    ("coloring.unique_matching_case1", "tlimm.coloring", "unique_matching_case1"),
    ("coloring.unique_matching_case2", "tlimm.coloring", "unique_matching_case2"),
) + tuple((f"verify.{s}", "tlimm.verify", f"suite_{s.lower()}") for s in SUITES)

# lru caches read through cache_info(), not wrapped: each is hit ~700k times
# on the gate workload.
CACHES: tuple[tuple[str, str, str], ...] = (
    ("perm.contains_pattern", "tlimm.perm", "contains_pattern"),
    ("tl._matching", "tlimm.tl", "_matching"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out = []
    for name, _, _ in TRACED:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(f"verify.{s}.checks", "count") for s in SUITES]
    for name, _, _ in CACHES:
        out += [(f"{name}.hits", "count"), (f"{name}.misses", "count"),
                (f"{name}.hit_ratio", "ratio")]
    out += [
        ("tl.theta_table.terms", "count"),
        ("tl.theta_table.terms_all", "count"),
        ("runtime.gc.s", "s"),
        ("runtime.gc.collections", "count"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("trace.span_cost_s", "s"),
    ]
    return out


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans come from one thread's call stack, so children never overlap."""
    out = [end - start for start, end in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def summarize(names, name_ids, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and calls.  No traced
    function calls itself, so inclusive seconds are a plain sum."""
    selfs = self_times(starts, ends, parents)
    out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
    for i, k in enumerate(name_ids):
        entry = out[names[k]]
        entry["calls"] += 1
        entry["s"] += ends[i] - starts[i]
        entry["self_s"] += selfs[i]
    return out


class Tracer:
    """Records a span for every call of the TRACED functions while
    installed."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, k: int, fn):
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(k)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap each traced function and rebind every tlimm.* module
        attribute that refers to it."""
        wrappers = {}
        for k, (_, module, attr) in enumerate(TRACED):
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = (fn, self._wrap(k, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "tlimm" and not modname.startswith("tlimm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def write(self, path) -> None:
        """One line per span: index, name, start, end, parent index."""
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, k in enumerate(self.name_ids):
                out.write(
                    f"{i}\t{self.names[k]}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n"
                )


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op timed
    against the bare no-op, in a throwaway tracer."""
    def noop():
        return None

    times = []
    for fn in (noop, Tracer()._wrap(0, noop)):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append(perf_counter() - start)
    return max(0.0, (times[1] - times[0]) / calls)


class Counters:
    """Cache hits and misses and garbage-collector time, counted between
    start() and stop()."""

    def __init__(self):
        self.caches = [
            (name, getattr(importlib.import_module(module), attr))
            for name, module, attr in CACHES
        ]
        self.hits = {name: 0 for name, _ in self.caches}
        self.misses = dict(self.hits)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._base = {}

    def _snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: fn.cache_info()[:2] for name, fn in self.caches}

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def start(self) -> None:
        self._base = self._snapshot()
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for name, (hits, misses) in self._snapshot().items():
            self.hits[name] = hits - self._base[name][0]
            self.misses[name] = misses - self._base[name][1]

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in self.hits:
            hits, misses = self.hits[name], self.misses[name]
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["runtime.gc.s"] = self.gc_s
        out["runtime.gc.collections"] = self.gc_collections
        return out
