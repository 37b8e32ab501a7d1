"""Spans around protoselect's public functions, recorded from outside the library.

`Tracer.installed()` replaces each traced function at every module binding
inside the package, because `from .nnqp import solve_restricted` binds the
name separately in selectors, oracle and ranking. The bindings are restored
on exit. Spans stay in memory; `layer_metrics` turns them into per-item
numbers and `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

TRACED = {
    "kernel": ("median_bandwidth", "kernel_matrix", "mean_map"),
    "nnqp": ("solve_restricted", "objective"),
    "selectors": ("proto_dash", "proto_greedy", "criticisms"),
    "oracle": ("verify_instance", "exhaustive_optimal", "gamma_over_prefixes", "rsc_rsm_bounds"),
    "ranking": ("rank_sources",),
}

# name -> (unit, better); the order is the order of the benchmark's output.
PER_LAYER = {
    "kernel.median_bandwidth.s": ("s", "lower"),
    "kernel.kernel_matrix.s": ("s", "lower"),
    "kernel.kernel_matrix.calls": ("count", "lower"),
    "kernel.kernel_matrix.peak_mb": ("MB", "lower"),
    "kernel.mean_map.s": ("s", "lower"),
    "kernel.mean_map.calls": ("count", "lower"),
    "kernel.mean_map.peak_mb": ("MB", "lower"),
    "kernel.bytes_computed": ("B", "lower"),
    "kernel.self_s": ("s", "lower"),
    "nnqp.solve_restricted.s": ("s", "lower"),
    "nnqp.solve_restricted.calls": ("count", "lower"),
    "nnqp.solve_restricted.mean_support": ("count", "lower"),
    "nnqp.objective.s": ("s", "lower"),
    "nnqp.objective.calls": ("count", "lower"),
    "nnqp.self_s": ("s", "lower"),
    "selectors.proto_dash.self_s": ("s", "lower"),
    "selectors.step_s_first": ("s", "lower"),
    "selectors.step_s_last": ("s", "lower"),
    "selectors.proto_greedy.self_s": ("s", "lower"),
    "selectors.greedy_yield": ("ratio", "higher"),
    "selectors.criticisms.s": ("s", "lower"),
    "selectors.self_s": ("s", "lower"),
    "oracle.verify_instance.s": ("s", "lower"),
    "oracle.exhaustive_optimal.s": ("s", "lower"),
    "oracle.gamma_over_prefixes.s": ("s", "lower"),
    "oracle.rsc_rsm_bounds.s": ("s", "lower"),
    "oracle.solves": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "ranking.rank_sources.self_s": ("s", "lower"),
    "ranking.proto_dash.calls": ("count", "lower"),
    "ranking.solve_restricted.calls": ("count", "lower"),
    "trace.item_s": ("s", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    info: dict | None = None


def _annotate(span: Span, result) -> None:
    """Keep the few facts about a call's result that the layer metrics need."""
    # Bytes of the computed n2 x n2 and n1 x n2 kernel blocks, from the shapes.
    if span.name == "kernel.kernel_matrix":
        span.info["bytes"] = 8 * result.n2 * result.n2
    elif span.name == "kernel.mean_map":
        span.info["bytes"] = 8 * result.n1 * result.n2
    elif span.name == "nnqp.solve_restricted":
        span.info = {"support": len(result.support)}
    elif span.name in ("selectors.proto_dash", "selectors.proto_greedy"):
        times = result.wall_times
        span.info = {"steps": len(times)}
        if len(times):
            span.info.update(first=float(times[0]), last=float(times[-1]))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; kernel calls also record their tracemalloc peak."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        measure_memory = name.startswith("kernel.")
        if measure_memory:
            tracemalloc.start()
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if measure_memory:
                span.info = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                tracemalloc.stop()
        _annotate(span, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at every binding in protoselect's modules."""
        originals = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"protoselect.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        patched = []
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "protoselect" and not modname.startswith("protoselect."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def dump(self, path) -> None:
        """Write spans as JSON lines: [index, parent, name, start, end]."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.parent, s.name, s.start, s.end]) + "\n")


def layer_metrics(spans: list[Span], roots_by_input: list[list[int]]) -> dict:
    """Per-layer metrics: the mean over inputs of each input's mean per item.

    `roots_by_input` holds, for each input of the pool, the indices of its
    items' root spans. Self time is a span's duration minus its direct
    children's, so the layers' self times plus the item's own (unattributed)
    time add up to the item time. Metrics of layers an item never enters
    read 0.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def item(root):
        m = defaultdict(float)
        support = greedy_steps = greedy_solves = 0
        firsts, lasts = [], []
        todo = list(children[root])
        while todo:
            i = todo.pop()
            todo.extend(children[i])
            s = spans[i]
            info = s.info or {}
            layer = s.name.split(".")[0]
            parent = spans[s.parent].name
            m[s.name + ".s"] += dur(i)
            m[s.name + ".calls"] += 1
            m[s.name + ".self_s"] += self_time(i)
            m[layer + ".self_s"] += self_time(i)
            if layer == "kernel" and "bytes" in info:
                m["kernel.bytes_computed"] += info["bytes"]
                key = s.name + ".peak_mb"
                m[key] = max(m[key], info["peak_bytes"] / 1e6)
            elif s.name == "nnqp.solve_restricted":
                support += info.get("support", 0)
                if parent.startswith("oracle."):
                    m["oracle.solves"] += 1
                elif parent == "ranking.rank_sources":
                    m["ranking.solve_restricted.calls"] += 1
                elif parent == "selectors.proto_greedy":
                    greedy_solves += 1
            elif s.name == "selectors.proto_dash":
                if parent == "ranking.rank_sources":
                    m["ranking.proto_dash.calls"] += 1
                if "first" in info:
                    firsts.append(info["first"])
                    lasts.append(info["last"])
            elif s.name == "selectors.proto_greedy":
                greedy_steps += info.get("steps", 0)
        calls = m["nnqp.solve_restricted.calls"]
        m["nnqp.solve_restricted.mean_support"] = support / calls if calls else 0.0
        m["selectors.greedy_yield"] = greedy_steps / greedy_solves if greedy_solves else 0.0
        m["selectors.step_s_first"] = sum(firsts) / len(firsts) if firsts else 0.0
        m["selectors.step_s_last"] = sum(lasts) / len(lasts) if lasts else 0.0
        m["trace.item_s"] = dur(root)
        m["trace.unattributed_frac"] = self_time(root) / dur(root)
        return m

    names = [name for name in PER_LAYER if name != "trace.overhead_frac"]
    per_input = []
    for roots in roots_by_input:
        items = [item(root) for root in roots]
        per_input.append({name: sum(m[name] for m in items) / len(items) for name in names})
    return {name: sum(p[name] for p in per_input) / len(per_input) for name in names}
