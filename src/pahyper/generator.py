"""Evolution processes: preferential-attachment hypergraphs and, as their
2-uniform case, the classic preferential-attachment graph used as a baseline.
A graph is a Hypergraph of one pair per edge, so the baseline is evolve's
2-uniform result as it is.

Each time step is one of two events.  With probability p a new vertex arrives
together with a new hyperedge containing it plus Y_t - 1 preferentially drawn
existing vertices; otherwise a hyperedge of Y_t preferential draws is added.
Draws are independent, with repetition, and always use degrees as of the end
of the previous step.  Y_t comes from a configurable edge-size distribution.

The implementation is vectorized and works on the token array of core.py.
The event bits are the first `steps` draws of the seed's stream, one
double each.  For a fixed seed, evolve skips them on its main generator
(PCG64's advance), draws every edge size, turns the sizes into the edge
offsets and frees them; then it fills the token array in arrival-ordered
chunks of at most core.PIECE_IDS slots (core.spans), so each chunk's
arrays stay in cache whatever the edge sizes.  Each chunk draws its own
event bits from a second generator of the same seed, which stands at the
stream's start, and its slot indices in one call; since every draw
references a slot before its own step's block, a draw that lands before
the chunk is a direct lookup in the finished prefix (the back-pointer
resolution of Sanders & Schulz, IPL 2016), and only the few that land
inside it chain, which pointer doubling over those draws alone resolves in
O(log depth) sweeps.
No array of the stream's full length is built besides the tokens, and the
only per-step array held through the fill is the edge offsets, in the
tokens' dtype: at int32 tokens, 4 bytes per token and 4 per step.  Members
are sorted once every chunk is filled, since later draws index the slots
in arrival order.  No per-edge Python object is built.  Random numbers are
consumed in a fixed order of the one stream (event bits, edge sizes,
member draws in slot order), and splitting the event and member draws into
chunks does not change them, so identical configs give bit-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy would load it inside the first evolve)

from . import core
from .core import Hypergraph, index_dtype, sort_members, spans

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
        if not 2 <= self.d < 2**63:
            raise ValueError(f"d must be in [2, 2**63), got {self.d}")

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
        if not self.lo <= self.hi < 2**63 - 1:     # hi + 1 fits int64
            raise ValueError(f"need lo <= hi < 2**63 - 1, got [{self.lo}, {self.hi}]")

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
        UniformInt(self.lo, self.hi)    # the one check of lo and hi
        # nan fails the first test; the largest weight must not underflow
        if not (self.exponent > 1.0 and self.lo ** -self.exponent > 0.0):
            raise ValueError(f"zipf exponent must be > 1 with lo**-exponent > 0, "
                             f"got {self.exponent}")

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
        if not 0 <= self.steps < 2**63:
            raise ValueError(f"steps must be in [0, 2**63), got {self.steps}")
        if not 1 <= self.y0 < 2**63:
            raise ValueError(f"y0 must be in [1, 2**63), got {self.y0}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.cap_exponent < 0.5):
            raise ValueError(
                f"cap_exponent must be in [0, 0.5), got {self.cap_exponent}")


def _capped_prefix(steps: int, exponent: float, top: int) -> np.ndarray:
    """floor(t**exponent) for t = 1..n, where n is the first power of two at
    which it reaches top, or steps.  The cap never decreases, so it cannot
    bind after step n."""
    n = min(1, steps)
    while True:
        t = np.arange(1, n + 1, dtype=np.float64)
        # tiny bump so exact powers (8**(1/3) etc.) do not floor down
        cap = np.floor(t ** exponent + 1e-9).astype(np.int64)
        if n == steps or cap[-1] >= top:
            return cap
        n = min(2 * n, steps)


def _size_rng(config: GeneratorConfig) -> np.random.Generator:
    """The run's generator past the event bits, its first config.steps
    outputs (one per double of rng.random), where the sizes start."""
    rng = np.random.default_rng(config.seed)
    rng.bit_generator.advance(config.steps)
    return rng


def _draw_sizes(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Consume the size portion of the random stream from rng.

    The sizes come back in int64, clamped in place when the cap is on: the
    distribution's sample itself when it is a fresh int64 array, else a
    copy of it.  evolve frees them before the fill allocates the tokens, two
    or more per step, so 8 bytes per step do not raise its peak."""
    sample = config.size_dist.sample(rng, config.steps)
    sizes = sample.astype(np.int64, copy=not sample.flags.owndata)
    if config.enforce_cap:
        cap = _capped_prefix(config.steps, config.cap_exponent,
                             int(sizes.max(initial=2)))
        head = sizes[:len(cap)]
        np.minimum(head, cap, out=head)
        np.maximum(sizes, 2, out=sizes)     # after the cap, which starts at 1
    return sizes


def _stream_offsets(y0: int, sizes: np.ndarray, dtype=None) -> np.ndarray:
    """0, y0, then y0 + the running sum of sizes: the bounds of the seed
    edge and of each step's block in the token stream, in dtype, or in
    index_dtype of the stream length if None.  Raises ValueError when the
    stream length does not fit int64."""
    # an int64 sum of the sizes could wrap past 2**63 - 1: add in Python then
    wraps = y0 + int(sizes.max(initial=0)) * len(sizes) >= 2**63
    total = y0 + (sum(sizes.tolist()) if wraps else int(sizes.sum()))
    if total >= 2**63:
        raise ValueError(f"token count {total} does not fit int64")
    offsets = np.zeros(len(sizes) + 2, dtype=dtype or index_dtype(total))
    np.cumsum(sizes, dtype=offsets.dtype, out=offsets[2:])  # no int64 temporary
    offsets[1:] += y0
    return offsets


def _fill_stream(rng: np.random.Generator, events: np.random.Generator, p: float,
                 offsets: np.ndarray) -> tuple[np.ndarray, int]:
    """Vertex ids of the token stream bounded by offsets (_stream_offsets),
    in their dtype, and its number of vertices.

    The stream holds offsets[1] slots of vertex 0, then one block per step
    t, offsets[t + 1]:offsets[t + 2].  Step t is a vertex arrival when the
    t-th uniform of events is below p; the block's first slot then holds
    the new vertex.  Every other slot copies a uniform draw of rng among the
    slots before its block, drawn in slot order.

    Steps are filled in chunks of at most core.PIECE_IDS slots (a larger
    step is one chunk), with one event draw and one member draw call per chunk;
    a chunk's sizes are its slice of the offsets' differences.  New vertex
    ids, and draws that land before the chunk, go straight into its slice
    of tokens.  A draw that lands inside marks its slot with -1 - its index
    among such draws, and pointer doubling over those draws alone moves
    each one's target along its chain to the first slot that holds an id.
    """
    starts, ends = offsets[1:-1], offsets[2:]   # each step's block
    tokens = np.zeros(offsets[-1], dtype=offsets.dtype)
    next_id = 1
    for t0, t1 in spans(offsets[1:], core.PIECE_IDS):
        base, block_starts = starts[t0], starts[t0:t1]
        vertex = events.random(t1 - t0) < p
        sizes = ends[t0:t1] - block_starts
        chunk = tokens[base:ends[t1 - 1]]
        drawn = rng.integers(0, np.repeat(block_starts, sizes - vertex))
        sources = block_starts[vertex] - base
        is_draw = np.ones(len(chunk), dtype=bool)
        is_draw[sources] = False
        draws = np.flatnonzero(is_draw)
        chunk[draws] = tokens[drawn]        # only draws before base are final
        chunk[sources] = np.arange(next_id, next_id + len(sources), dtype=chunk.dtype)
        next_id += len(sources)
        inside = np.flatnonzero(drawn >= base)
        slots, target = draws[inside], drawn[inside] - base
        chunk[slots] = -1 - np.arange(len(inside), dtype=chunk.dtype)  # marks each such draw
        while len(hops := np.flatnonzero(chunk[target] < 0)):
            target[hops] = target[-1 - chunk[target[hops]]]
        chunk[slots] = chunk[target]
    return tokens, next_id


def evolve(config: GeneratorConfig) -> Hypergraph:
    """Run the evolution for config.steps steps from the seed hypergraph.

    The event bits come from a second generator of the same seed, at the
    stream's start, and the sizes are freed once the offsets hold them, so
    the fill holds no per-step array besides the offsets.  Raises
    ValueError when the token count does not fit int64."""
    rng = _size_rng(config)
    offsets = _stream_offsets(config.y0, _draw_sizes(config, rng))
    tokens, num_vertices = _fill_stream(rng, np.random.default_rng(config.seed),
                                        config.p, offsets)
    sort_members(tokens, offsets)
    return Hypergraph(num_vertices, tokens, offsets)


def sum_sizes_trace(config: GeneratorConfig) -> np.ndarray:
    """Total degree S_t after each step of one run, starting at S_0 = y0.

    Uses the same random stream prefix as evolve(): it skips the event bits
    with no draw, then draws the sizes, so the trace matches the hypergraph
    an equal-seed evolve() call produces.  Raises ValueError when the token
    count does not fit int64, as evolve() does.
    """
    sizes = _draw_sizes(config, _size_rng(config))
    return _stream_offsets(config.y0, sizes, np.int64)[1:]


def evolve_graph_baseline(p: float, steps: int, seed: int = 0) -> Hypergraph:
    """Classic preferential-attachment graph process, for comparison runs.

    This is the 2-uniform case of the hypergraph process, started from a
    single vertex with a self loop.  Each step, with probability p a new
    vertex arrives with one edge to a preferentially drawn endpoint;
    otherwise one edge arrives with both endpoints preferential.  Endpoint
    draws use degrees as of the end of the previous step; self loops add 2
    to their vertex's degree.  Returns the multigraph as that process's
    2-uniform Hypergraph, one sorted pair per edge, seed loop first.
    """
    return evolve(GeneratorConfig(p, steps, Constant(2), y0=2, seed=seed))
