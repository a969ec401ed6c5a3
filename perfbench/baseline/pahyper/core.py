"""Hypergraph data model with degree-proportional vertex sampling.

Hyperedges are unordered multisets of vertex ids, stored as sorted tuples in
arrival order.  The structure also keeps a flat list of degree tokens, one
entry per vertex occurrence, so that drawing a vertex with probability
proportional to its degree is a single uniform index draw and appending an
edge stays O(1) amortized.  The token list is always the concatenation of the
stored hyperedges.

Degrees count occurrences: a vertex appearing twice in one hyperedge gains
degree 2, and a self loop contributes 1 per occurrence.  Consequently the sum
of all vertex degrees equals the sum of all hyperedge cardinalities.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

# A hyperedge is an unordered multiset of vertex ids, canonically sorted.
Hyperedge = tuple[int, ...]


class Hypergraph:
    """Growing multiset hypergraph over dense integer vertex ids.

    Invariants:
      - vertex ids are 0..num_vertices-1, assigned in arrival order
      - every stored hyperedge is a sorted tuple of in-range ids
      - degree_tokens == concatenation of all hyperedges, so vertex v
        appears exactly deg(v) times
      - total_degree == len(degree_tokens) == sum of edge cardinalities
    """

    __slots__ = ("num_vertices", "hyperedges", "degree_tokens")

    def __init__(self) -> None:
        self.num_vertices: int = 0
        self.hyperedges: list[Hyperedge] = []
        self.degree_tokens: list[int] = []

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def initial(cls, y0: int) -> "Hypergraph":
        """Seed hypergraph: one vertex carrying a single self-loop hyperedge
        of cardinality y0, so deg(0) = y0."""
        if y0 < 1:
            raise ValueError(f"initial hyperedge cardinality must be >= 1, got {y0}")
        h = cls()
        h.num_vertices = 1
        h.hyperedges.append((0,) * y0)
        h.degree_tokens.extend([0] * y0)
        return h

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "Hypergraph":
        """Edge-free hypergraph over a fixed vertex set (all degrees 0)."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        h = cls()
        h.num_vertices = num_vertices
        return h

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from an edge sequence; ids must cover 0..max contiguously."""
        h = cls()
        seen: set[int] = set()
        for e in edges:
            members = tuple(sorted(int(v) for v in e))
            if not members:
                raise ValueError("empty hyperedge")
            if members[0] < 0:
                raise ValueError(f"invalid vertex id {members[0]}")
            h.hyperedges.append(members)
            h.degree_tokens.extend(members)
            seen.update(members)
        if seen:
            top = max(seen)
            if len(seen) != top + 1:
                missing = next(i for i in range(top + 1) if i not in seen)
                raise ValueError(f"vertex id gap: id {missing} never appears")
            h.num_vertices = top + 1
        return h

    @classmethod
    def _from_parts(cls, num_vertices: int, hyperedges: list[Hyperedge],
                    degree_tokens: list[int]) -> "Hypergraph":
        # trusted bulk constructor for the generator; no validation
        h = cls()
        h.num_vertices = num_vertices
        h.hyperedges = hyperedges
        h.degree_tokens = degree_tokens
        return h

    # ------------------------------------------------------------------
    # mutation

    def add_hyperedge(self, members: Iterable[int], new_vertex: bool = False) -> None:
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
        self.degree_tokens.extend(edge)
        if new_vertex:
            self.num_vertices += 1

    # ------------------------------------------------------------------
    # queries

    @property
    def total_degree(self) -> int:
        """Sum of all vertex degrees == sum of all edge cardinalities."""
        return len(self.degree_tokens)

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)

    def rank(self) -> int:
        """Maximum hyperedge cardinality (0 for an edge-free hypergraph)."""
        return max((len(e) for e in self.hyperedges), default=0)

    def degrees(self) -> np.ndarray:
        """Per-vertex occurrence degrees, indexed by vertex id."""
        return np.bincount(self.degree_tokens, minlength=self.num_vertices)

    def incident_edge_counts(self) -> np.ndarray:
        """Number of distinct hyperedges containing each vertex.

        Secondary statistic: unlike degrees(), repeated occurrences within
        one edge count once.
        """
        counts = np.zeros(self.num_vertices, dtype=np.int64)
        for e in self.hyperedges:
            for v in set(e):
                counts[v] += 1
        return counts

    def sample_preferential(self, rng: np.random.Generator, size: int | None = None):
        """Draw vertices with probability deg(v) / total_degree.

        Returns a single id, or an ndarray of ids when size is given.
        """
        if not self.degree_tokens:
            raise ValueError("cannot sample from a hypergraph with total degree 0")
        if size is None:
            return self.degree_tokens[rng.integers(0, len(self.degree_tokens))]
        idx = rng.integers(0, len(self.degree_tokens), size=size)
        return np.asarray(self.degree_tokens, dtype=np.int64)[idx]

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and self.hyperedges == other.hyperedges)

    def __repr__(self) -> str:
        return (f"Hypergraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges}, total_degree={self.total_degree})")
