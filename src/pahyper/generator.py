"""Evolution processes: preferential-attachment hypergraphs and, as their
2-uniform case, the classic preferential-attachment graph used as a baseline.

Each time step is one of two events.  With probability p a new vertex arrives
together with a new hyperedge containing it plus Y_t - 1 preferentially drawn
existing vertices; otherwise a hyperedge of Y_t preferential draws is added.
Draws are independent, with repetition, and always use degrees as of the end
of the previous step.  Y_t comes from a configurable edge-size distribution.

The implementation is vectorized and works on the token array of core.py.
For a fixed seed it first draws every event bit (EVENT_PIECE uniforms at a
time, into one buffer, so no float array of the stream's length is built)
and every edge size, then fills the token array in arrival-ordered chunks
of at most CHUNK_SLOTS slots, so each chunk's arrays stay in cache whatever
the edge sizes.  Each chunk
draws its slot indices in one call; since every draw references a slot
before its own step's block, a draw that lands before the chunk is a direct
lookup in the finished prefix (the back-pointer resolution of Sanders &
Schulz, IPL 2016), and only the few that land inside it chain, which
pointer doubling over those draws alone resolves in O(log depth) sweeps.
No array of the stream's full length is built besides the tokens.  The
per-step arrays held through the fill are the edge offsets (in the tokens'
dtype), the event bits and the sizes, in the smallest unsigned dtype that
holds the largest size: at int32 tokens and sizes up to 255, 4 bytes per
token and 6 per step.  Members are sorted once every chunk is filled, since
later draws index the slots in arrival order.  No per-edge Python object is
built.  Random numbers are consumed in a fixed order (event bits, edge
sizes, member draws in slot order), and splitting the member draws into
chunks does not change them, so identical configs give bit-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy would load it inside the first evolve)

from .analysis import ObservedGraph
from .core import Hypergraph, index_dtype, sort_members

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
        return np.full(n, self.d, dtype=_size_dtype(self.d))

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


def _size_dtype(top: int) -> type:
    """The smallest unsigned dtype that holds sizes up to top, else int64:
    np.repeat and a cumsum into signed offsets do not take uint64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


EVENT_PIECE = 1 << 15


def _event_bits(rng: np.random.Generator, steps: int, p: float) -> np.ndarray:
    """rng.random(steps) < p, drawn EVENT_PIECE uniforms at a time into one
    buffer: the same draws, with no float array of the stream's length."""
    is_vertex = np.empty(steps, dtype=bool)
    uniforms = np.empty(min(steps, EVENT_PIECE))
    for i in range(0, steps, EVENT_PIECE):
        piece = uniforms[:min(EVENT_PIECE, steps - i)]
        np.less(rng.random(out=piece), p, out=is_vertex[i:i + len(piece)])
    return is_vertex


def _draw_events(config: GeneratorConfig, rng: np.random.Generator):
    """Consume the event-bit and size portions of the random stream.

    The sizes come back in _size_dtype of the sample's largest value,
    clamped in place when the cap is on: the distribution's sample itself
    when it is a fresh array in that dtype, else a copy of it."""
    is_vertex = _event_bits(rng, config.steps, config.p)
    sample = config.size_dist.sample(rng, config.steps)
    top = int(sample.max(initial=2))
    sizes = sample.astype(_size_dtype(top), copy=not sample.flags.owndata)
    if config.enforce_cap:
        cap = _capped_prefix(config.steps, config.cap_exponent, top)
        np.clip(cap, 2, top, out=cap)       # so that the cast below holds it
        np.maximum(sizes, 2, out=sizes)
        head = sizes[:len(cap)]
        np.minimum(head, cap.astype(sizes.dtype), out=head)
    return is_vertex, sizes


CHUNK_SLOTS = 1 << 15


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


def _fill_stream(rng: np.random.Generator, y0: int, sizes: np.ndarray,
                 is_vertex: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids of a token stream and its edge offsets, of index_dtype.

    The stream holds `y0` slots of vertex 0, then one block of sizes[t]
    slots per step t.  In a vertex-arrival step the block's first slot holds
    the new vertex; every other slot copies a uniform draw among the slots
    before its block, drawn in slot order.

    Steps are filled in chunks of at most CHUNK_SLOTS slots (a larger step
    is one chunk), with one draw call per chunk.  New vertex ids, and draws
    that land before the chunk, go straight into its slice of tokens.  A
    draw that lands inside marks its slot with -1 - its index among such
    draws, and pointer doubling over those draws alone moves each one's
    target along its chain to the first slot that holds an id.
    """
    offsets = _stream_offsets(y0, sizes)
    starts, ends = offsets[1:-1], offsets[2:]   # each step's block
    tokens = np.zeros(offsets[-1], dtype=offsets.dtype)
    next_id = 1
    t0 = 0
    while t0 < len(sizes):
        base = starts[t0]
        # a needle in the offsets' dtype: searchsorted would copy them to int64
        limit = offsets.dtype.type(min(int(base) + CHUNK_SLOTS, int(offsets[-1])))
        t1 = max(int(np.searchsorted(ends, limit, side="right")), t0 + 1)
        block_starts, vertex = starts[t0:t1], is_vertex[t0:t1]
        chunk = tokens[base:ends[t1 - 1]]
        drawn = rng.integers(0, np.repeat(block_starts, sizes[t0:t1] - vertex))
        sources = block_starts[vertex] - base
        is_draw = np.ones(len(chunk), dtype=bool)
        is_draw[sources] = False
        chunk[is_draw] = tokens[drawn]      # only draws before base are final
        chunk[sources] = np.arange(next_id, next_id + len(sources))
        next_id += len(sources)
        inside = np.flatnonzero(drawn >= base)
        slots, target = np.flatnonzero(is_draw)[inside], drawn[inside] - base
        chunk[slots] = -1 - np.arange(len(inside))     # marks each such draw
        while len(hops := np.flatnonzero(chunk[target] < 0)):
            target[hops] = target[-1 - chunk[target[hops]]]
        chunk[slots] = chunk[target]
        t0 = t1
    return tokens, offsets


def evolve(config: GeneratorConfig) -> Hypergraph:
    """Run the evolution for config.steps steps from the seed hypergraph.

    Raises ValueError when the token count does not fit int64."""
    rng = np.random.default_rng(config.seed)
    is_vertex, sizes = _draw_events(config, rng)
    tokens, offsets = _fill_stream(rng, config.y0, sizes, is_vertex)
    num_vertices = 1 + int(is_vertex.sum())
    del is_vertex, sizes        # not beside the member sort
    sort_members(tokens, offsets)
    return Hypergraph(num_vertices, tokens, offsets)


def sum_sizes_trace(config: GeneratorConfig) -> np.ndarray:
    """Total degree S_t after each step of one run, starting at S_0 = y0.

    Uses the same random stream prefix as evolve(), so the trace matches the
    hypergraph an equal-seed evolve() call produces.  Raises ValueError when
    the token count does not fit int64, as evolve() does.
    """
    rng = np.random.default_rng(config.seed)
    _, sizes = _draw_events(config, rng)
    return _stream_offsets(config.y0, sizes, np.int64)[1:]


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
