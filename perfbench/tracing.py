"""Spans and counters around the public entry points of each layer.

Everything is patched from outside the library: every ``boxrig`` module
attribute that is the original function (``boxrig.depth.build_cover`` as
well as ``boxrig.cover.build_cover``) is replaced by a wrapper, and methods
are wrapped on their class.  A span records its name, start, end, parent
span and operation id; spans stay in memory until ``write``.  The
``RangeStack`` methods run millions of times, so they get a call counter and
summed time instead of spans; that time counts as child time of the
enclosing span.  Garbage-collector pauses are timed through
``gc.callbacks``.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

from boxrig import boxhull, chains, cover, depth, geom, rangestack

RANGESTACK_METHODS = ("push", "pop", "replace_top", "run_monotone_script",
                      "suffix_at", "canonical_payloads")

# span name -> (module, attribute) of the public function it wraps
FUNCTION_SPANS = {
    "geom.validate": (geom, "validate"),
    "chains.maxima": (chains, "maxima"),
    "cover.build": (cover, "build_cover"),
    "cover.build_basic": (cover, "build_cover_basic"),
    "cover.build_k": (cover, "build_k_cover"),
    "depth.query": (depth, "query_depth"),
    "depth.max": (depth, "approx_max_depth"),
    "depth.log_approx": (depth, "log_approx_max_depth"),
    "depth.mis": (depth, "approx_mis"),
    "depth.exact_at": (depth, "exact_depth_at"),
    "boxhull.build": (boxhull, "build_hull"),
    "boxhull.disjoint_cover": (boxhull, "disjoint_cover"),
    "boxhull.witness": (boxhull, "witness_rect"),
}
METHOD_SPANS = {
    "depth.index": (depth.DepthIndex, "__init__"),
    "boxhull.contains": (boxhull.BoxHull, "contains"),
}

START, END, CHILD = 1, 2, 5    # span record: [name, start, end, parent, op, child_ns]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.active = True      # False while the runner checks outputs
        self.rs_calls = 0
        self.rs_ns = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_collections = 0
        self.gc_ns = 0
        self._gc_t0 = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self.op, 0]
            spans.append(rec)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0
            if post is not None:
                post(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                self.rs_calls += 1
                self.rs_ns += d
                if stack:
                    spans[stack[-1]][CHILD] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        elif self.active:
            self.gc_collections += 1
            self.gc_ns += perf_counter_ns() - self._gc_t0

    # -- post hooks: counts read off the returned structures --------------------

    def _after_cover(self, cov, args):
        c = self.counts
        c["cover.builds"] += 1
        c["cover.bicliques"] += cov.stats.count
        c["cover.weight"] += cov.stats.weight
        c["cover.edges"] += cov.stats.edges

    def _after_index(self, _, args):
        ix = args[0]
        self.counts["depth.cells"] += ix.cell_count
        self.counts["depth.indexed_edges"] += ix.cover.stats.edges

    def _after_contains(self, inside, args):
        self.counts["boxhull.contains_outside"] += not inside

    def _after_disjoint(self, dc, args):
        self.counts["boxhull.pieces"] += len(dc)

    # -- install ----------------------------------------------------------------

    def install(self):
        post = {"cover.build": self._after_cover,
                "cover.build_basic": self._after_cover,
                "cover.build_k": self._after_cover,
                "boxhull.disjoint_cover": self._after_disjoint,
                "depth.index": self._after_index,
                "boxhull.contains": self._after_contains}
        mods = [m for n, m in sys.modules.items()
                if n == "boxrig" or n.startswith("boxrig.")]
        for name, (mod, attr) in FUNCTION_SPANS.items():
            orig = getattr(mod, attr)
            wrapped = self._span(name, orig, post.get(name))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        for name, (cls, attr) in METHOD_SPANS.items():
            setattr(cls, attr, self._span(name, getattr(cls, attr), post.get(name)))
        for attr in RANGESTACK_METHODS:
            cls = rangestack.RangeStack
            setattr(cls, attr, self._counted(getattr(cls, attr)))
        gc.callbacks.append(self._gc_callback)

    # -- results ------------------------------------------------------------------

    def totals(self):
        """name -> (calls, inclusive ns, self ns)."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for name, t0, t1, _, _, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        tot = self.totals()
        c = self.counts

        def s(name, i):
            return tot[name][i] / 1e9 if name in tot else 0.0

        def n(name):
            return tot[name][0] if name in tot else 0

        def ratio(a, b):
            return a / b if b else 0.0

        cover_names = ("cover.build", "cover.build_basic", "cover.build_k")
        return {
            "geom.validate_s": (s("geom.validate", 1), "s"),
            "geom.validate_calls": (n("geom.validate"), "count"),
            "chains.maxima_s": (s("chains.maxima", 1), "s"),
            "rangestack.time_s": (self.rs_ns / 1e9, "s"),
            "rangestack.calls": (self.rs_calls, "count"),
            "cover.self_s": (sum(s(x, 2) for x in cover_names), "s"),
            "cover.builds": (c["cover.builds"], "count"),
            "cover.bicliques": (c["cover.bicliques"], "count"),
            "cover.weight": (c["cover.weight"], "count"),
            "cover.edges": (c["cover.edges"], "count"),
            "cover.edges_per_weight": (ratio(c["cover.edges"], c["cover.weight"]), "ratio"),
            "depth.index_self_s": (s("depth.index", 2), "s"),
            "depth.cells": (c["depth.cells"], "count"),
            "depth.cells_per_edge": (ratio(c["depth.cells"], c["depth.indexed_edges"]), "ratio"),
            "depth.query_self_s": (s("depth.query", 2), "s"),
            "depth.query_calls": (n("depth.query"), "count"),
            "depth.max_self_s": (s("depth.max", 2), "s"),
            "depth.log_approx_self_s": (s("depth.log_approx", 2), "s"),
            "depth.mis_self_s": (s("depth.mis", 2), "s"),
            "depth.exact_at_self_s": (s("depth.exact_at", 2), "s"),
            "boxhull.build_s": (s("boxhull.build", 1), "s"),
            "boxhull.disjoint_cover_s": (s("boxhull.disjoint_cover", 1), "s"),
            "boxhull.pieces": (c["boxhull.pieces"], "count"),
            "boxhull.contains_self_s": (s("boxhull.contains", 2), "s"),
            "boxhull.witness_self_s": (s("boxhull.witness", 2), "s"),
            "boxhull.outside_share": (ratio(c["boxhull.contains_outside"],
                                            n("boxhull.contains")), "ratio"),
            "gc.collections": (self.gc_collections, "count"),
            "gc.pause_s": (self.gc_ns / 1e9, "s"),
        }

    def write(self, path):
        """One JSON object per span, in start order of creation."""
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op, child) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent, "op": op,
                                    "self_ns": t1 - t0 - child}) + "\n")
