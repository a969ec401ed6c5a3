"""Span tracing of pahyper from outside the library.

`install` replaces the module and class attributes that `pahyper.cli`
looks up at call time with wrappers that record a span per call, so no
library code changes.  Spans are kept in memory as (name, start, end,
parent index) and written out by the caller when the run ends.  A span's
self time is its duration minus the durations of its direct children.

Some wrappers also count work (tokens, bytes, pairs, fit cutoffs) and check
in-memory invariants the output files cannot show, such as
read(write(h)) == h.  That bookkeeping runs in its own `trace.count` span,
so it never inflates a library layer's self time.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

# fit_power_law(k_min="auto") stops scanning once fewer items remain
MIN_TAIL = 10


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._written: dict[str, object] = {}  # path -> hypergraph written there

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Call fn inside a span; then run after(result, *args, **kwargs) as
        bookkeeping."""
        kwargs = kwargs or {}
        self.counts[name + ".calls"] += 1
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if after is not None:
            idx = self._open("trace.count")
            try:
                after(result, *args, **kwargs)
            finally:
                self._close(idx)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        totals[name] += t
    return dict(totals)


def inclusive_times(spans) -> dict[str, float]:
    """Total wall time per span name, children included."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        totals[name] += end - start
    return dict(totals)


def _size(path) -> int:
    return os.path.getsize(path) if path != "-" else 0


def install(tracer: Tracer):
    """Wrap the functions the CLI reaches; returns a function that undoes it."""
    from pahyper import analysis, cli, io
    from pahyper.analysis import ObservedGraph
    from pahyper.core import Hypergraph
    from pahyper.generator import sum_sizes_trace

    counts = tracer.counts
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def function(name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, after)
            return wrapper
        return make

    def method(name):
        def make(fn):
            def wrapper(self):
                return tracer.call(name, fn, (self,))
            return wrapper
        return make

    # generator (cli imported these names directly)
    def after_evolve(h, config):
        counts["generator.tokens"] += h.total_degree
        counts["generator.edges"] += h.num_edges
        counts["generator.evolve.tokens"] += h.total_degree
        tracer.check(h.total_degree == int(sum_sizes_trace(config)[-1]),
                     "evolve: total degree differs from sum_sizes_trace(cfg)[-1]")

    def after_baseline(g, *_):
        counts["generator.tokens"] += 2 * g.num_edges
        counts["generator.edges"] += g.num_edges

    patch(cli, "evolve", function("generator.evolve", after_evolve))
    patch(cli, "evolve_graph_baseline",
          function("generator.evolve_graph_baseline", after_baseline))

    # io
    def after_read_hypergraph(h, source):
        n = _size(source)
        counts["io.bytes_read"] += n
        counts["io.read_hypergraph.bytes"] += n
        if source in tracer._written:
            tracer.check(tracer._written.pop(source) == h,
                         f"read(write(h)) != h for {os.path.basename(source)}")

    def after_write_hypergraph(_, h, destination):
        n = _size(destination)
        counts["io.bytes_written"] += n
        counts["io.write_hypergraph.bytes"] += n
        tracer._written[destination] = h

    def after_write(_, obj, destination):
        counts["io.bytes_written"] += _size(destination)

    def after_read(_, source):
        counts["io.bytes_read"] += _size(source)

    patch(io, "read_hypergraph", function("io.read_hypergraph", after_read_hypergraph))
    patch(io, "write_hypergraph", function("io.write_hypergraph", after_write_hypergraph))
    patch(io, "write_observed_graph", function("io.write_observed_graph", after_write))
    for name in ("write_histogram_csv", "write_ccdf_csv", "write_fit_report"):
        patch(io, name, function(f"io.{name}", after_write))
    patch(io, "read_histogram_csv", function("io.read_histogram_csv", after_read))

    # core
    patch(Hypergraph, "from_edges", lambda original: classmethod(
        lambda cls, edges: tracer.call("core.from_edges", original.__func__, (cls, edges))))
    patch(Hypergraph, "degrees", method("core.Hypergraph.degrees"))

    # analysis
    def after_project(g, h, simple=False):
        pairs = sum(len(e) * (len(e) - 1) // 2 for e in h.hyperedges)
        if not simple:
            counts["analysis.project.pairs"] += g.num_edges
            tracer.check(g.num_edges == pairs,
                         "project: multigraph pairs differ from sum c(c-1)/2")
            return
        edges = g.edges
        counts["analysis.project_simple.pairs_in"] += pairs
        counts["analysis.project_simple.edges"] += len(edges)
        tracer.check(all(a < b for a, b in edges), "project --simple: a loop or unsorted pair")
        tracer.check(all(x < y for x, y in zip(edges, edges[1:])),
                     "project --simple: edges unsorted or duplicated")

    def project(fn):
        def wrapper(h, simple=False):
            name = "analysis.project_simple" if simple else "analysis.project"
            return tracer.call(name, fn, (h,), {"simple": simple}, after_project)
        return wrapper

    def after_fit(_, hist, k_min=5):
        if k_min != "auto":
            counts["analysis.fit_power_law.cutoffs"] += 1
            return
        remaining = hist.total_vertices
        for _, c in hist.items_sorted():
            if remaining < MIN_TAIL:
                break
            counts["analysis.fit_power_law.cutoffs"] += 1
            remaining -= c

    patch(ObservedGraph, "degrees", method("analysis.ObservedGraph.degrees"))
    patch(analysis, "degree_histogram", function("analysis.degree_histogram"))
    patch(analysis, "project", project)
    patch(analysis, "edge_size_histogram", function("analysis.edge_size_histogram"))
    patch(analysis, "ccdf", function("analysis.ccdf"))
    patch(analysis, "fit_power_law", function("analysis.fit_power_law", after_fit))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore
