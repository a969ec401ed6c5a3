"""Naive reference code the tests compare the library against.

EdgeList is a growing list-of-tuples hypergraph with per-edge validation;
reference_evolve runs the evolution process one step at a time on it;
reference_rows formats the hypergraph line format with Python's % operator.
"""

import math

import numpy as np

from pahyper import Hypergraph


class EdgeList:
    """Growing multiset hypergraph kept as a list of sorted tuples."""

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self.num_vertices = num_vertices
        self.hyperedges: list[tuple[int, ...]] = []

    @classmethod
    def initial(cls, y0: int) -> "EdgeList":
        h = cls(1)
        h.hyperedges.append((0,) * y0)
        return h

    def add_hyperedge(self, members, new_vertex: bool = False) -> None:
        """Append one hyperedge.

        With new_vertex=True the edge must contain the next unassigned id
        (== num_vertices) exactly once; the vertex is allocated as part of
        the append.  All other ids must already exist.
        """
        edge = tuple(sorted(int(v) for v in members))
        if not edge:
            raise ValueError("hyperedge must contain at least one vertex")
        if edge[0] < 0:
            raise ValueError(f"invalid vertex id {edge[0]}")
        if new_vertex:
            fresh = self.num_vertices
            if edge.count(fresh) != 1:
                raise ValueError(
                    f"new-vertex edge must contain id {fresh} exactly once")
            if edge[-1] > fresh:
                raise ValueError(f"vertex id {edge[-1]} out of range")
        elif edge[-1] >= self.num_vertices:
            raise ValueError(
                f"vertex id {edge[-1]} out of range (num_vertices={self.num_vertices})")
        self.hyperedges.append(edge)
        if new_vertex:
            self.num_vertices += 1

    def freeze(self) -> Hypergraph:
        """The library's array form of the same hypergraph."""
        tokens = np.array([v for e in self.hyperedges for v in e], dtype=np.int64)
        offsets = np.cumsum([0] + [len(e) for e in self.hyperedges], dtype=np.int64)
        return Hypergraph(self.num_vertices, tokens, offsets)


def reference_evolve(config) -> Hypergraph:
    """evolve(config), one step at a time.

    Draws the event bits, then the sizes, then per step the non-source
    slots, each uniform over the token slots (in arrival order, members
    unsorted) as they stood at the end of the previous step.
    """
    h = EdgeList.initial(config.y0)
    slots = [0] * config.y0
    rng = np.random.default_rng(config.seed)
    if config.steps:
        is_vertex = rng.random(config.steps) < config.p
        sizes = config.size_dist.sample(rng, config.steps)
        for t in range(1, config.steps + 1):
            size = int(sizes[t - 1])
            if config.enforce_cap:
                cap = max(2, math.floor(t ** config.cap_exponent + 1e-9))
                size = min(max(size, 2), cap)
            new = [h.num_vertices] if is_vertex[t - 1] else []
            drawn = rng.integers(0, len(slots), size=size - len(new))
            members = new + [slots[i] for i in drawn]
            h.add_hyperedge(members, new_vertex=bool(new))
            slots += members
    return h.freeze()


def reference_rows(tokens: np.ndarray, offsets: np.ndarray) -> str:
    """The lines write_hypergraph writes: one "%d %d ..." template per edge,
    filled with every token at once."""
    sizes = np.diff(offsets).tolist()
    line = {s: " ".join(["%d"] * s) + "\n" for s in set(sizes)}
    return "".join([line[s] for s in sizes]) % tuple(tokens.tolist())
