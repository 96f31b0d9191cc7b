"""Spans and counts around hapdisc's public functions, from outside.

``install`` wraps every public function of the eight hapdisc modules and
``Coloring.line``, and rebinds each name in every hapdisc module that
imported it (``hapdisc.cli.two_color``, ``hapdisc.search.crt_merge``, ...).
A span is (name, start, end, parent span, op id), kept in memory; self time
is a span's duration minus the time its child spans cover.  Small hot
functions get count-only wrappers that charge each call to the innermost
open span.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("numeric", "pattern", "realizability", "skipgraph", "classify", "search", "reduction", "cli")
COUNT_ONLY = {"crt_merge", "two_adic_valuation", "step_congruence", "check_subpath"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.open = []  # (span index, name) of the spans now running
        self.op = -1
        self.counts = Counter()  # (name, innermost open span name) -> calls
        self.work = Counter()  # name -> vertices or steps handled
        self.block_passes = Counter()  # op id -> calls that walk a whole block

    def span(self, name, fn, work=None, graph_type=None):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            open_.append((index, name))
            if work is not None:
                self.work[name] += work(*args)
            if graph_type is not None and args and isinstance(args[0], graph_type):
                self.block_passes[self.op] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.op)
                open_.pop()

        return wrapper

    def count(self, name, fn):
        counts, open_ = self.counts, self.open

        def wrapper(*args, **kwargs):
            counts[name, open_[-1][1] if open_ else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        hskip = importlib.import_module("hapdisc.skipgraph")
        work = {
            "skipgraph.two_color": lambda g: g.period,
            "skipgraph.find_odd_cycle": lambda g: g.period,
            "realizability.weakly_realizable": len,
        }
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module("hapdisc." + short)
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr in COUNT_ONLY:
                    wrapped[fn] = self.count(name, fn)
                else:
                    # a skipgraph call handed a SkipGraph is one pass over the block
                    graph_type = hskip.SkipGraph if short == "skipgraph" else None
                    wrapped[fn] = self.span(name, fn, work.get(name), graph_type)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "hapdisc" or mod_name.startswith("hapdisc."):
                for attr, fn in list(vars(module).items()):
                    if isinstance(fn, types.FunctionType) and fn in wrapped:
                        setattr(module, attr, wrapped[fn])
        hskip.Coloring.line = self.span("skipgraph.Coloring.line", hskip.Coloring.line)

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span, so that each layer's self time
        excludes the layers it calls."""
        self.op = op_id
        return self.span("op", fn)(*args)

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[index]
        return calls, incl, own
