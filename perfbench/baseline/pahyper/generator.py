"""Evolution processes: preferential-attachment hypergraphs and the classic
preferential-attachment graph used as a baseline.

Each time step is one of two events.  With probability p a new vertex arrives
together with a new hyperedge containing it plus Y_t - 1 preferentially drawn
existing vertices; otherwise a hyperedge of Y_t preferential draws is added.
Draws are independent, with repetition, and always use degrees as of the end
of the previous step.  Y_t comes from a configurable edge-size distribution.

The implementation is vectorized: for a fixed seed it first materializes the
whole event/size/draw-index stream with numpy, then resolves the drawn vertex
values in one pass (each draw references an earlier token slot, so the slots
form a forest that pointer doubling collapses in O(log depth) sweeps).  A run
of 10^5 steps takes milliseconds.  Random numbers are consumed array-at-a-time
in a fixed order (event bits, edge sizes, member draws), so identical configs
give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ObservedGraph
from .core import Hyperedge, Hypergraph

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
                f"cap exponent must be in [0, 0.5), got {self.cap_exponent}")


def _draw_events(config: GeneratorConfig, rng: np.random.Generator):
    """Consume the event-bit and size portions of the random stream."""
    is_vertex = rng.random(config.steps) < config.p
    sizes = config.size_dist.sample(rng, config.steps)
    if config.enforce_cap and config.steps:
        t = np.arange(1, config.steps + 1, dtype=np.float64)
        # tiny bump so exact powers (8**(1/3) etc.) do not floor down
        cap = np.floor(t ** config.cap_exponent + 1e-9).astype(np.int64)
        np.maximum(cap, 2, out=cap)
        sizes = np.clip(sizes, 2, cap)
    return is_vertex, sizes


def _resolve_pointers(parent: np.ndarray) -> np.ndarray:
    """Collapse parent chains (parent[i] <= i) to their roots by doubling."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def evolve(config: GeneratorConfig) -> Hypergraph:
    """Run the evolution for config.steps steps from the seed hypergraph."""
    if config.steps == 0:
        return Hypergraph.initial(config.y0)
    rng = np.random.default_rng(config.seed)
    y0 = config.y0
    is_vertex, sizes = _draw_events(config, rng)

    csum = np.cumsum(sizes)
    starts = y0 + np.concatenate(([0], csum[:-1]))  # token slots before step t
    total = int(y0 + csum[-1])

    # every non-source slot holds a preferential draw from the earlier slots
    n_draws = sizes - is_vertex
    total_draws = int(n_draws.sum())
    cum_draws = np.cumsum(n_draws)
    offsets = np.arange(total_draws) - np.repeat(cum_draws - n_draws, n_draws)
    draw_pos = np.repeat(starts + is_vertex, n_draws) + offsets
    draw_idx = rng.integers(0, np.repeat(starts, n_draws))

    parent = np.arange(total, dtype=np.int64)
    parent[draw_pos] = draw_idx
    roots = _resolve_pointers(parent)

    values = np.zeros(total, dtype=np.int64)
    vertex_ids = np.cumsum(is_vertex)  # id of the vertex added at step t
    values[starts[is_vertex]] = vertex_ids[is_vertex]
    tokens = values[roots]

    # canonicalize: sort members within each edge, per size class
    edges: list[Hyperedge] = [(0,) * y0] * (config.steps + 1)
    flat = np.empty(total, dtype=np.int64)
    flat[:y0] = 0
    for s in np.unique(sizes):
        step_idx = np.nonzero(sizes == s)[0]
        slots = starts[step_idx][:, None] + np.arange(s)
        rows = np.sort(tokens[slots], axis=1)
        flat[slots] = rows
        for i, row in zip(step_idx.tolist(), rows.tolist()):
            edges[i + 1] = tuple(row)

    num_vertices = 1 + int(vertex_ids[-1])
    return Hypergraph._from_parts(num_vertices, edges, flat.tolist())


def sum_sizes_trace(config: GeneratorConfig) -> np.ndarray:
    """Total degree S_t after each step of one run, starting at S_0 = y0.

    Uses the same random stream prefix as evolve(), so the trace matches the
    hypergraph an equal-seed evolve() call produces.
    """
    rng = np.random.default_rng(config.seed)
    if config.steps == 0:
        return np.array([config.y0], dtype=np.int64)
    _, sizes = _draw_events(config, rng)
    out = np.empty(config.steps + 1, dtype=np.int64)
    out[0] = config.y0
    np.cumsum(sizes, out=out[1:])
    out[1:] += config.y0
    return out


def evolve_graph_baseline(p: float, edges_per_step: int, steps: int,
                          seed: int = 0) -> ObservedGraph:
    """Classic preferential-attachment graph process, for comparison runs.

    Starts from a single vertex with a self loop.  Each step, with
    probability p a new vertex arrives and attaches edges_per_step edges to
    preferentially drawn endpoints; otherwise edges_per_step edges arrive
    with both endpoints preferential.  Endpoint draws use degrees as of the
    end of the previous step; self loops add 2 to their vertex's degree.
    Returns the multigraph.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if edges_per_step < 1:
        raise ValueError(f"edges_per_step must be >= 1, got {edges_per_step}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    if steps == 0:
        return ObservedGraph(num_vertices=1, edges=[(0, 0)], simple=False)

    rng = np.random.default_rng(seed)
    is_vertex = rng.random(steps) < p

    m = edges_per_step
    block = 2 * m
    starts = 2 + block * np.arange(steps, dtype=np.int64)
    total = 2 + block * steps

    # in a vertex-arrival step the first endpoint of every edge is the newcomer
    is_source = np.zeros(total, dtype=bool)
    is_source[:2] = True
    vertex_steps = np.nonzero(is_vertex)[0]
    source_slots = (starts[vertex_steps][:, None] + 2 * np.arange(m)).ravel()
    is_source[source_slots] = True

    draw_pos = np.nonzero(~is_source)[0]
    bounds = starts[(draw_pos - 2) // block]
    draw_idx = rng.integers(0, bounds)

    parent = np.arange(total, dtype=np.int64)
    parent[draw_pos] = draw_idx
    roots = _resolve_pointers(parent)

    values = np.zeros(total, dtype=np.int64)
    vertex_ids = np.cumsum(is_vertex)
    values[source_slots] = np.repeat(vertex_ids[vertex_steps], m)
    tokens = values[roots]

    pairs = np.sort(tokens[2:].reshape(-1, 2), axis=1)
    edges = [(0, 0)] + [tuple(row) for row in pairs.tolist()]
    return ObservedGraph(num_vertices=1 + int(vertex_ids[-1]),
                         edges=edges, simple=False)
