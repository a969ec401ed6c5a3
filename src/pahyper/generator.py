"""Evolution processes: preferential-attachment hypergraphs and, as their
2-uniform case, the classic preferential-attachment graph used as a baseline.

Each time step is one of two events.  With probability p a new vertex arrives
together with a new hyperedge containing it plus Y_t - 1 preferentially drawn
existing vertices; otherwise a hyperedge of Y_t preferential draws is added.
Draws are independent, with repetition, and always use degrees as of the end
of the previous step.  Y_t comes from a configurable edge-size distribution.

The implementation is vectorized and works on the token array of core.py.
For a fixed seed it first materializes the whole event/size/draw-index
stream with numpy, then resolves the drawn vertex values in one pass (each
draw references an earlier token slot, so the slots form a forest that
pointer doubling collapses in O(log depth) sweeps).  The result is the token
array itself, its edge offsets and a per-size-class sort of the members; no
per-edge Python object is built.  Random numbers are consumed array-at-a-time
in a fixed order (event bits, edge sizes, member draws), so identical configs
give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ObservedGraph
from .core import Hypergraph, sort_members

__all__ = [
    "EdgeSizeDistribution",
    "Constant",
    "UniformInt",
    "TruncatedZipf",
    "GeneratorConfig",
    "evolve",
    "sum_sizes_trace",
    "evolve_graph_baseline",
]


class EdgeSizeDistribution:
    """Distribution of hyperedge cardinalities Y_t; drawable values are >= 2."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(EdgeSizeDistribution):
    """Every hyperedge has cardinality d (d-uniform process)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"constant edge size must be >= 2, got {self.d}")

    def sample(self, rng, n):
        return np.full(n, self.d, dtype=np.int64)

    def mean(self):
        return float(self.d)


@dataclass(frozen=True)
class UniformInt(EdgeSizeDistribution):
    """Uniform integer cardinality on [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 2:
            raise ValueError(f"edge sizes must be >= 2, got lo={self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng, n):
        return rng.integers(self.lo, self.hi + 1, size=n, dtype=np.int64)

    def mean(self):
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class TruncatedZipf(EdgeSizeDistribution):
    """P(Y = k) proportional to k^-exponent on [lo, hi]."""

    exponent: float
    lo: int
    hi: int

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ValueError(f"zipf exponent must be > 1, got {self.exponent}")
        if self.lo < 2:
            raise ValueError(f"edge sizes must be >= 2, got lo={self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    def _weights(self):
        k = np.arange(self.lo, self.hi + 1, dtype=np.float64)
        w = k ** -self.exponent
        return k, w / w.sum()

    def sample(self, rng, n):
        values, probs = self._weights()
        return rng.choice(values.astype(np.int64), size=n, p=probs)

    def mean(self):
        values, probs = self._weights()
        return float((values * probs).sum())


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one hypergraph evolution run.

    enforce_cap clamps each Y_t into [2, max(2, floor(t**cap_exponent))],
    keeping edge sizes below the slowly growing bound the degree analysis
    assumes; with the default exponent 1/3 the cap only binds on the first
    few dozen steps for small mean sizes.
    """

    p: float
    steps: int
    size_dist: EdgeSizeDistribution
    y0: int = 3
    seed: int = 0
    enforce_cap: bool = True
    cap_exponent: float = 1.0 / 3.0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.y0 < 1:
            raise ValueError(f"y0 must be >= 1, got {self.y0}")
        if not (0.0 <= self.cap_exponent < 0.5):
            raise ValueError(
                f"cap_exponent must be in [0, 0.5), got {self.cap_exponent}")


def _draw_events(config: GeneratorConfig, rng: np.random.Generator):
    """Consume the event-bit and size portions of the random stream."""
    is_vertex = rng.random(config.steps) < config.p
    sizes = config.size_dist.sample(rng, config.steps)
    if config.enforce_cap:
        t = np.arange(1, config.steps + 1, dtype=np.float64)
        # tiny bump so exact powers (8**(1/3) etc.) do not floor down
        cap = np.floor(t ** config.cap_exponent + 1e-9).astype(np.int64)
        np.maximum(cap, 2, out=cap)
        sizes = np.clip(sizes, 2, cap)
    return is_vertex, sizes


def _fill_stream(rng: np.random.Generator, y0: int, sizes: np.ndarray,
                 is_vertex: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids of a token stream, and the first slot of each step.

    The stream holds `y0` slots of vertex 0, then one block of sizes[t]
    slots per step t.  In a vertex-arrival step the block's first slot holds
    the new vertex; every other slot copies a uniform draw among the slots
    before its block, drawn in slot order.
    """
    starts = y0 + np.cumsum(sizes) - sizes
    total = y0 + int(sizes.sum())
    source_slots = starts[is_vertex]
    is_draw = np.ones(total, dtype=bool)
    is_draw[:y0] = False
    is_draw[source_slots] = False
    draw_pos = np.flatnonzero(is_draw)
    step = np.repeat(np.arange(len(sizes)), sizes)[draw_pos - y0]

    parent = np.arange(total, dtype=np.int64)
    parent[draw_pos] = rng.integers(0, starts[step])
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand

    values = np.zeros(total, dtype=np.int64)
    values[source_slots] = np.arange(1, len(source_slots) + 1)
    return values[parent], starts


def evolve(config: GeneratorConfig) -> Hypergraph:
    """Run the evolution for config.steps steps from the seed hypergraph."""
    rng = np.random.default_rng(config.seed)
    is_vertex, sizes = _draw_events(config, rng)
    tokens, starts = _fill_stream(rng, config.y0, sizes, is_vertex)
    offsets = np.concatenate(([0], starts, [len(tokens)]))
    sort_members(tokens, offsets)
    return Hypergraph(1 + int(is_vertex.sum()), tokens, offsets)


def sum_sizes_trace(config: GeneratorConfig) -> np.ndarray:
    """Total degree S_t after each step of one run, starting at S_0 = y0.

    Uses the same random stream prefix as evolve(), so the trace matches the
    hypergraph an equal-seed evolve() call produces.
    """
    rng = np.random.default_rng(config.seed)
    _, sizes = _draw_events(config, rng)
    out = np.empty(config.steps + 1, dtype=np.int64)
    out[0] = config.y0
    np.cumsum(sizes, out=out[1:])
    out[1:] += config.y0
    return out


def evolve_graph_baseline(p: float, steps: int, seed: int = 0) -> ObservedGraph:
    """Classic preferential-attachment graph process, for comparison runs.

    This is the 2-uniform case of the hypergraph process, started from a
    single vertex with a self loop.  Each step, with probability p a new
    vertex arrives with one edge to a preferentially drawn endpoint;
    otherwise one edge arrives with both endpoints preferential.  Endpoint
    draws use degrees as of the end of the previous step; self loops add 2
    to their vertex's degree.  Returns the multigraph, seed loop first.
    """
    h = evolve(GeneratorConfig(p, steps, Constant(2), y0=2, seed=seed))
    # in a 2-uniform hypergraph every edge is one sorted pair
    return ObservedGraph(h.num_vertices, h.tokens.reshape(-1, 2))
