"""Hypergraph data model: a flat token array plus edge offsets.

A hypergraph is stored as two index arrays, int32 while their values fit
and int64 above (index_dtype).  A count per vertex takes the same rule,
from the largest count it can hold: count_ids and counted count ids with
no int64 copy of them, into int32 counts while their total fits.
`tokens` lists every vertex occurrence, edge after edge in arrival order,
with the members of each edge sorted; edge i is
tokens[offsets[i]:offsets[i + 1]].  The token array is the repeated-token
list of Batagelj & Brandes (Phys. Rev. E 71, 036113, 2005): vertex v appears
deg(v) times, so drawing a vertex with probability proportional to its
degree is a single uniform index draw.

Degrees count occurrences: a vertex appearing twice in one hyperedge gains
degree 2, and a self loop contributes 1 per occurrence.  Consequently the sum
of all vertex degrees equals the sum of all hyperedge cardinalities.

The gap rule, that ids cover 0..max, is one function, counted: checked
applies it to a token array, io's counting readers to a file's id pieces.
One rule, grow, sizes every array filled piece by piece.

One walk, spans, cuts runs of whole edges: evolve's fill and io's writers
take runs of PIECE_IDS ids, read when each runs, so one patch of it moves
them all, and analysis' KS distances take runs of KS_PIECE tail points.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import pairwise

import numpy as np

__all__ = ["Hypergraph"]

SORT_PIECE = 1 << 14    # edges per pass, so that a piece stays in cache
PIECE_IDS = 1 << 14     # ids per run of spans in the fill and the writers
NETWORK_MAX = 4
INDEX_LIMIT = 2**31     # values below it fit int32


def index_dtype(top: int) -> type:
    """The dtype of an array of ids, positions or counts whose largest
    value is top."""
    return np.int32 if top < INDEX_LIMIT else np.int64


def add_at(counts: np.ndarray, ids: np.ndarray, w: int) -> None:
    """np.add.at(counts, ids, w), with w as a scalar of counts' dtype: given
    a Python int, numpy (2.4) adds into int32 counts by its generic ufunc.at
    loop, about 30 times slower than the typed one."""
    np.add.at(counts, ids, counts.dtype.type(w))


def count_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """Occurrences of each id 0..n-1, in index_dtype of len(ids), the most
    any id can occur, with no int64 copy of the ids."""
    counts = np.zeros(n, dtype=index_dtype(len(ids)))
    add_at(counts, ids, 1)
    return counts


def spans(offsets: np.ndarray, budget: int):
    """(e0, e1) for consecutive runs of the edges of offsets, in order, each
    of at most budget ids or of one larger edge."""
    ends = offsets[1:]
    e0 = 0
    while e0 < len(ends):
        # a needle in the offsets' dtype: searchsorted would copy them to int64
        limit = offsets.dtype.type(min(int(offsets[e0]) + budget, int(ends[-1])))
        e1 = max(int(np.searchsorted(ends, limit, side="right")), e0 + 1)
        yield e0, e1
        e0 = e1


def size_classes(tokens: np.ndarray, offsets: np.ndarray):
    """(e0, which, slots, rows) per size s >= 2 of each piece of SORT_PIECE
    edges, in order: rows holds the members of the piece's edges of size s,
    e0 is its first edge.  If all have size s, rows is a view of tokens and
    which and slots are None; else which holds their indices in the piece,
    slots their token positions and rows is the copy tokens[slots].  A piece
    of one size (its smallest size is its largest) is known without counting
    its sizes; a piece of edges of size 1 yields nothing."""
    for e0 in range(0, len(offsets) - 1, SORT_PIECE):
        bounds = offsets[e0:e0 + SORT_PIECE + 1]
        sizes = np.diff(bounds)
        lo, hi = int(sizes.min()), int(sizes.max())
        if lo == hi:
            if lo >= 2:
                yield e0, None, None, tokens[bounds[0]:bounds[-1]].reshape(-1, lo)
            continue
        counts = np.bincount(sizes)
        for s in (np.flatnonzero(counts[2:]) + 2).tolist():
            which = np.flatnonzero(sizes == s)
            slots = bounds[which][:, None] + np.arange(s, dtype=bounds.dtype)
            yield e0, which, slots, tokens[slots]


def sort_members(tokens: np.ndarray, offsets: np.ndarray) -> None:
    """Sort the members of every edge in place, per size class of a piece
    (size_classes): an odd-even transposition network of min/max over the
    member columns for sizes up to NETWORK_MAX, np.sort for larger edges.
    """
    for _, _, slots, rows in size_classes(tokens, offsets):
        s = rows.shape[1]
        if s > NETWORK_MAX:
            rows.sort(axis=1)
        else:
            for r in range(s):
                for j in range(r % 2, s - 1, 2):
                    low = np.minimum(rows[:, j], rows[:, j + 1])
                    np.maximum(rows[:, j], rows[:, j + 1], out=rows[:, j + 1])
                    rows[:, j] = low
        if slots is not None:
            tokens[slots] = rows


def grow(a: np.ndarray, top: int, cap: int) -> None:
    """Resize a in place to hold at least top <= cap entries, if it holds
    fewer: to top, or by at least a quarter, but never past cap.  An array
    filled piece by piece takes this one rule."""
    if top > len(a):
        a.resize(min(max(top, (5 * len(a) + 3) // 4), cap), refcheck=False)


def counted(pieces: Iterable[np.ndarray], n: int) -> np.ndarray:
    """The occurrences of each id 0..max of arrays of non-negative ids, at
    most n ids in all, in index_dtype of their number; raises ValueError
    naming the smallest missing id unless the ids cover 0..max.  Among at
    most n ids, one past n leaves a gap below n either way, so it is
    clipped to n: the count, in index_dtype(n) and grown as the pieces
    come (grow), never takes more than n + 1 entries."""
    counts, size, total = np.zeros(0, dtype=index_dtype(n)), 0, 0
    for ids in pieces:
        total += len(ids)
        top = int(ids.max(initial=-1))
        if top > n:
            ids, top = np.minimum(ids, n), n
        size = max(size, top + 1)
        grow(counts, size, n + 1)
        add_at(counts, ids, 1)
        del ids                     # before the next piece is made
    counts.resize(size, refcheck=False)
    if not counts.all():
        raise ValueError(f"vertex id gap: id {counts.argmin()} never appears")
    return counts.astype(index_dtype(total), copy=False)


def checked(tokens: np.ndarray, offsets: np.ndarray) -> "Hypergraph":
    """The Hypergraph of tokens and offsets, members sorted in place.

    Trusts that every id is >= 0 and every edge has a member; a gap in the
    ids raises counted's ValueError.
    """
    seen = counted([tokens], len(tokens))
    descents = tokens[1:] < tokens[:-1]
    descents[offsets[1:-1] - 1] = False         # a new edge may start lower
    if descents.any():
        sort_members(tokens, offsets)
    return Hypergraph(len(seen), tokens, offsets)


class Hypergraph:
    """Multiset hypergraph over dense integer vertex ids.

    Invariants:
      - vertex ids are 0..num_vertices-1
      - offsets[0] == 0, offsets is strictly increasing (every edge has at
        least one member), offsets[-1] == len(tokens)
      - every edge's slice of tokens is sorted and holds in-range ids
      - total_degree == len(tokens) == sum of edge cardinalities

    The constructor trusts its arguments; from_edges and checked() validate.
    """

    __slots__ = ("num_vertices", "tokens", "offsets")

    def __init__(self, num_vertices: int, tokens: np.ndarray,
                 offsets: np.ndarray) -> None:
        self.num_vertices = num_vertices
        self.tokens = tokens
        self.offsets = offsets

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from an edge sequence, members in any order.

        The first empty edge, or edge with a negative id (named by its
        smallest member), raises ValueError; then checked() requires the
        ids to cover 0..max.
        """
        flat: list[int] = []
        sizes = [0]
        for e in edges:
            members = [int(v) for v in e]
            if not members:
                raise ValueError("empty hyperedge")
            if min(members) < 0:
                raise ValueError(f"invalid vertex id {min(members)}")
            flat += members
            sizes.append(len(members))
        if max(flat, default=0) >= 2**63:   # never covered, so still a gap
            flat = [min(v, 2**63 - 1) for v in flat]
        dtype = index_dtype(max(max(flat, default=0), len(flat)))
        return checked(np.array(flat, dtype=dtype), np.cumsum(sizes, dtype=dtype))

    # ------------------------------------------------------------------
    # queries

    @property
    def hyperedges(self) -> list[tuple[int, ...]]:
        """The edges as sorted tuples in arrival order, built on each access."""
        flat = self.tokens.tolist()
        return [tuple(flat[a:b]) for a, b in pairwise(self.offsets.tolist())]

    @property
    def total_degree(self) -> int:
        """Sum of all vertex degrees == sum of all edge cardinalities."""
        return len(self.tokens)

    @property
    def num_edges(self) -> int:
        return len(self.offsets) - 1

    def degrees(self) -> np.ndarray:
        """Per-vertex occurrence degrees, indexed by vertex id."""
        return count_ids(self.tokens, self.num_vertices)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.tokens, other.tokens))
