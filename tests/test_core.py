"""Tests for the hypergraph data model and the test-side degree-token sampler."""

from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pahyper import (Constant, GeneratorConfig, Hypergraph, UniformInt, evolve,
                     evolve_graph_baseline, project, projected_degrees, read_degrees,
                     read_hypergraph, write_hypergraph)
from pahyper import core, generator, io
from pahyper.core import NETWORK_MAX, SORT_PIECE, sort_members
from reference import (EdgeList, reference_from_edges, reference_size_classes,
                       sample_preferential)


class TestInitial:
    """The reference seed hypergraph that zero-step evolve() must equal."""

    def test_y0_three(self):
        h = EdgeList.initial(3).freeze()
        assert h.num_vertices == 1
        assert h.hyperedges == [(0, 0, 0)]
        assert h.degrees().tolist() == [3]
        assert h.total_degree == 3

    def test_y0_one(self):
        h = EdgeList.initial(1).freeze()
        assert h.degrees().tolist() == [1]
        assert h.total_degree == 1

    def test_y0_two(self):
        h = EdgeList.initial(2).freeze()
        assert h.degrees().tolist() == [2]
        assert h.total_degree == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            EdgeList.initial(0)


class TestAddHyperedge:
    """The reference EdgeList's validation, and its array form."""

    def test_bookkeeping(self):
        h = EdgeList.initial(3)
        h.add_hyperedge((0, 0))
        g = h.freeze()
        assert g.total_degree == 5
        assert g.degrees().tolist() == [5]
        assert g.hyperedges[-1] == (0, 0)

    def test_new_vertex(self):
        h = EdgeList.initial(3)
        h.add_hyperedge((1, 0, 0), new_vertex=True)
        assert h.num_vertices == 2
        assert h.freeze().degrees().tolist() == [5, 1]

    def test_out_of_range(self):
        h = EdgeList.initial(2)
        h.add_hyperedge((1, 0), new_vertex=True)
        h.add_hyperedge((2, 0), new_vertex=True)
        with pytest.raises(ValueError, match="out of range"):
            h.add_hyperedge((7,))

    def test_new_vertex_id_missing(self):
        h = EdgeList.initial(2)
        with pytest.raises(ValueError, match="exactly once"):
            h.add_hyperedge((0, 0), new_vertex=True)

    def test_new_vertex_id_twice(self):
        h = EdgeList.initial(2)
        with pytest.raises(ValueError, match="exactly once"):
            h.add_hyperedge((1, 1), new_vertex=True)

    def test_empty_edge(self):
        h = EdgeList.initial(2)
        with pytest.raises(ValueError, match="at least one"):
            h.add_hyperedge(())

    def test_negative_id(self):
        h = EdgeList.initial(2)
        with pytest.raises(ValueError, match="invalid vertex id"):
            h.add_hyperedge((-1, 0))

    def test_members_stored_sorted(self):
        h = EdgeList.initial(2)
        h.add_hyperedge((1, 0, 0), new_vertex=True)
        assert h.freeze().hyperedges[-1] == (0, 0, 1)


class TestFromEdges:
    def test_round_structure(self):
        h = Hypergraph.from_edges([(0, 1), (2, 1, 0)])
        assert h.num_vertices == 3
        assert h.hyperedges == [(0, 1), (0, 1, 2)]
        assert h.total_degree == 5

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            Hypergraph.from_edges([(0, 0), (2, 2)])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Hypergraph.from_edges([(0,), ()])

    def test_id_beyond_int64_is_a_gap(self):
        with pytest.raises(ValueError, match="id 1 never appears"):
            Hypergraph.from_edges([(0,), (10 ** 30,)])


def _from_edges_outcome(build, edges):
    try:
        h = build(edges)
    except ValueError as e:
        return f"error: {e}"
    return h.num_vertices, h.tokens.tolist(), h.offsets.tolist()


FROM_EDGES_IDS = st.sampled_from([-7, -1, *range(7), 2**63 - 1, 2**63, 10**30])
# the second list draws valid members only, so that many lists are accepted
FROM_EDGES = (st.lists(st.lists(FROM_EDGES_IDS, max_size=5), max_size=8)
              | st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), max_size=8))


@settings(max_examples=300, deadline=None)
@given(FROM_EDGES)
@example([])
@example([[0], [10**30]])
@example([[2, 0, 1], [1, 1]])
@example([[0, 1], [3, -1, -7], []])
@example([[0], [], [-1]])
def test_from_edges_matches_reference(edges):
    assert (_from_edges_outcome(Hypergraph.from_edges, edges)
            == _from_edges_outcome(reference_from_edges, edges))


class _Sized(np.ndarray):
    """An array that records each length it is resized to."""
    lengths: list[int] = []

    def resize(self, length, refcheck=True):
        _Sized.lengths.append(length)
        super().resize(length, refcheck=refcheck)


@st.composite
def _ids_and_cuts(draw):
    """Ids, some of them past their count and up to 10**18, and the points
    at which to cut them into pieces."""
    ids = draw(st.lists(st.integers(0, 6) | st.integers(0, 10**18), max_size=40))
    return ids, draw(st.lists(st.integers(0, len(ids)), max_size=5))


@settings(max_examples=300, deadline=None)
@given(_ids_and_cuts())
@example(([], []))
@example(([0, 10**18], [1]))
@example(([1, 0, 2, 2], [0, 2, 2, 4]))
@example(([0, 3, 3, 1], [3]))
def test_counted_matches_bincount(ids_and_cuts):
    """core.counted over ids cut into pieces anywhere gives np.bincount of
    them, or the error naming the smallest missing id, and never sizes its
    count past n + 1 entries."""
    ids, cuts = ids_and_cuts
    cuts = [0, *sorted(cuts), len(ids)]
    dtype = core.index_dtype(max(ids, default=0))
    pieces = [np.array(ids[a:b], dtype=dtype) for a, b in zip(cuts, cuts[1:])]
    missing = min(set(range(len(ids) + 1)) - set(ids))
    _Sized.lengths = []
    with mock.patch.object(np, "zeros", lambda length, dtype: _Sized(length, dtype)):
        try:
            outcome = core.counted(pieces, len(ids)).tolist()
        except ValueError as e:
            outcome = str(e)
    if missing < max(ids, default=-1):
        assert outcome == f"vertex id gap: id {missing} never appears"
    else:
        assert outcome == np.bincount(np.array(ids, dtype=np.int64)).tolist()
    assert max(_Sized.lengths, default=0) <= len(ids) + 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=30), st.integers(0, 50))
@example([1, 2, 3, 4, 5, 6, 7, 8], 0)
@example([4, 5, 6, 100], 1000)
@example([3, 3, 2, 0], 0)
def test_growth_rule(tops, spare):
    """core.grow resizes only an array too short for top, to top or by at
    least a quarter, never past the cap (so to the cap where a quarter
    would pass it), and keeps what the array held."""
    cap = max(tops, default=0) + spare
    a = _Sized(0, np.int64)
    for top in tops:
        held = a.tolist()
        _Sized.lengths = []
        core.grow(a, top, cap)
        if top <= len(held):
            assert _Sized.lengths == []
        else:
            (length,) = _Sized.lengths
            assert length in (top, cap) or 4 * length >= 5 * len(held)
            assert top <= length <= cap
        assert a[:len(held)].tolist() == held
        a[:] = np.arange(len(a))


def _sorted_per_edge(edges):
    tokens = np.array([v for e in edges for v in e], dtype=np.int64)
    offsets = np.cumsum([0] + [len(e) for e in edges], dtype=np.int64)
    sort_members(tokens, offsets)
    return tokens.tolist(), [v for e in edges for v in sorted(e)]


IDS = st.integers(0, 5) | st.integers(0, 2 ** 63 - 1)
MIXED_EDGES = st.lists(st.lists(IDS, min_size=1, max_size=8), max_size=40)
ONE_SIZE_EDGES = st.integers(1, 8).flatmap(
    lambda s: st.lists(st.lists(IDS, min_size=s, max_size=s), max_size=40))


@settings(max_examples=200, deadline=None)
@given(MIXED_EDGES | ONE_SIZE_EDGES)
def test_sort_members_matches_sorted(edges):
    got, want = _sorted_per_edge(edges)
    assert got == want


@pytest.mark.parametrize("lo, hi", [(1, 8), (3, 3), (NETWORK_MAX + 1,) * 2])
def test_sort_members_across_pieces(lo, hi):
    rng = np.random.default_rng(hi)
    sizes = rng.integers(lo, hi + 1, size=2 * SORT_PIECE + 5)
    flat = rng.integers(0, 50, size=int(sizes.sum()))
    edges = [e.tolist() for e in np.split(flat, np.cumsum(sizes)[:-1])]
    got, want = _sorted_per_edge(edges)
    assert got == want


@pytest.mark.parametrize("choices", [(1,), (3,), (1, 5), (1, 2, 3, 6)],
                         ids=["all-1", "all-3", "1-and-5", "several"])
@pytest.mark.parametrize("piece", [1, 7, SORT_PIECE])
def test_size_classes_match_bincount_reference(choices, piece):
    """core.size_classes yields what a bincount of each piece's sizes
    gives, in pieces of 1, 7 and SORT_PIECE edges: a run of edges of the
    smallest size, one of mixed sizes and one of the largest size, so that
    uniform and mixed pieces both occur, with a view of tokens exactly for a
    piece of one size >= 2."""
    rng = np.random.default_rng(len(choices))
    sizes = np.concatenate([np.full(piece + 3, choices[0]), rng.choice(choices, piece + 3),
                            np.full(piece + 3, choices[-1])])
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int32)
    tokens = rng.integers(0, 50, size=int(offsets[-1])).astype(np.int32)
    with mock.patch.object(core, "SORT_PIECE", piece):
        got = list(core.size_classes(tokens, offsets))
    want = list(reference_size_classes(tokens, offsets, piece))
    assert len(got) == len(want)
    for (e0, which, slots, rows), (e0_, which_, slots_, rows_) in zip(got, want):
        assert e0 == e0_ and (which is None) == (which_ is None) == (slots is None)
        assert np.shares_memory(rows, tokens) == (which is None)
        assert rows.dtype == rows_.dtype and np.array_equal(rows, rows_)
        if which is not None:
            assert np.array_equal(which, which_) and np.array_equal(slots, slots_)


def _reference_spans(sizes, budget):
    """The runs of core.spans by a plain walk: each run takes edges while
    its ids stay within budget, and always its first edge."""
    runs, e0 = [], 0
    while e0 < len(sizes):
        e1, ids = e0 + 1, sizes[e0]
        while e1 < len(sizes) and ids + sizes[e1] <= budget:
            ids, e1 = ids + sizes[e1], e1 + 1
        runs.append((e0, e1))
        e0 = e1
    return runs


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 20), max_size=40), budget=st.integers(1, 64),
       at_int32_top=st.booleans())
@example(sizes=[], budget=5, at_int32_top=False)                # no edges
@example(sizes=[3, 1, 2], budget=1, at_int32_top=False)         # budget 1
@example(sizes=[2, 9, 1, 1], budget=4, at_int32_top=False)      # an edge past it
@example(sizes=[4, 4, 4], budget=64, at_int32_top=True)         # the needle clamps
def test_spans_match_a_plain_walk(sizes, budget, at_int32_top):
    """core.spans over offsets from 0 in int64, or in int32 ending at
    2**31 - 1, where offsets[e0] + budget passes int32 and the needle is
    clamped: whole edges, each run within budget or one larger edge,
    covering every edge in order."""
    base = 2**31 - 1 - sum(sizes) if at_int32_top else 0
    offsets = base + np.cumsum([0] + sizes, dtype=np.int64)
    offsets = offsets.astype(np.int32 if at_int32_top else np.int64)
    runs = list(core.spans(offsets, budget))
    assert runs == _reference_spans(sizes, budget)
    assert [e for e0, e1 in runs for e in range(e0, e1)] == list(range(len(sizes)))
    for e0, e1 in runs:
        assert e1 == e0 + 1 or sum(sizes[e0:e1]) <= budget


def test_one_piece_budget_for_the_fill_and_the_writers(tmp_path):
    """One patch of core.PIECE_IDS sets the chunks of evolve's fill, the
    runs of the hypergraph writer and the PIECE_IDS // 2 pairs of each
    piece of a graph's file."""
    config = GeneratorConfig(p=0.5, steps=300, size_dist=Constant(3), seed=1)
    h = evolve(config)
    g = project(h)
    with (mock.patch.object(core, "PIECE_IDS", 8),
          mock.patch.object(generator, "spans", wraps=core.spans) as fill,
          mock.patch.object(io, "spans", wraps=core.spans) as rows):
        assert evolve(config) == h
        write_hypergraph(h, str(tmp_path / "h.txt"))
        with mock.patch.object(io, "_encode_rows", wraps=io._encode_rows) as pieces:
            write_hypergraph(g, str(tmp_path / "g.txt"))
    assert fill.call_args.args[1] == rows.call_args.args[1] == 8
    assert pieces.call_count == -(-g.num_edges // 4)


class TestSamplePreferential:
    def test_single_vertex_always_drawn(self):
        h = EdgeList.initial(5).freeze()
        rng = np.random.default_rng(1)
        assert (sample_preferential(h, rng, size=50) == 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="total degree 0"):
            sample_preferential(EdgeList(3).freeze(), np.random.default_rng(0), size=1)

    def test_proportions_chi_square(self):
        # degrees 1, 2, 3 over three vertices
        h = Hypergraph.from_edges([(0, 1, 2), (1, 2), (2,)])
        assert h.degrees().tolist() == [1, 2, 3]
        rng = np.random.default_rng(7)
        draws = sample_preferential(h, rng, size=120_000)
        observed = np.bincount(draws, minlength=3)
        expected = h.degrees() / h.total_degree * 120_000
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_symmetric_degrees(self):
        h = Hypergraph.from_edges([(0, 0), (1, 1)])
        rng = np.random.default_rng(11)
        draws = sample_preferential(h, rng, size=20_000)
        frac = (draws == 0).mean()
        assert 0.45 < frac < 0.55


class TestDegreeAccounting:
    def test_tokens_match_brute_force(self):
        # generated instances up to 1e4 edges plus a handmade one
        configs = [
            GeneratorConfig(p=0.4, steps=2_000, size_dist=UniformInt(2, 5), seed=3),
            GeneratorConfig(p=1.0, steps=10_000, size_dist=Constant(3), seed=4),
        ]
        graphs = [evolve(c) for c in configs]
        graphs.append(Hypergraph.from_edges([(0, 0, 1), (1, 2), (2, 2, 2, 0)]))
        for h in graphs:
            brute = Counter(chain.from_iterable(h.hyperedges))
            tokens = Counter(h.tokens.tolist())
            assert brute == tokens
            deg = h.degrees()
            for v in range(h.num_vertices):
                assert deg[v] == brute.get(v, 0)

    def test_degree_sum_identity(self):
        h = evolve(GeneratorConfig(p=0.6, steps=500, size_dist=UniformInt(2, 4), seed=9))
        assert h.total_degree == sum(len(e) for e in h.hyperedges)
        assert h.degrees().sum() == h.total_degree


def test_structural_equality():
    a = Hypergraph.from_edges([(0, 1), (1, 2)])
    b = Hypergraph.from_edges([(1, 0), (2, 1)])
    assert a == b
    assert a != Hypergraph.from_edges([(1, 0), (2, 1), (0,)])


def test_int64_index_arrays_equal_int32(monkeypatch, tmp_path):
    """Past core.INDEX_LIMIT, evolve, the reader, from_edges and the graph
    side hold int64 arrays with the values of their int32 results."""
    path = tmp_path / "h.txt"

    def index_arrays():
        h = evolve(GeneratorConfig(p=0.5, steps=5_000, size_dist=UniformInt(2, 6), seed=3))
        write_hypergraph(h, str(path))
        read = read_hypergraph(str(path))
        built = Hypergraph.from_edges(h.hyperedges)
        graph = evolve_graph_baseline(0.5, 5_000, seed=3)
        return [h.tokens, h.offsets, read.tokens, read.offsets, built.tokens,
                built.offsets, project(h).tokens, project(h).offsets,
                project(h, simple=True).tokens, graph.tokens, graph.offsets,
                h.degrees(), read_degrees(str(path)), projected_degrees(h),
                project(h).degrees(), graph.degrees()]

    narrow = index_arrays()
    monkeypatch.setattr(core, "INDEX_LIMIT", 0)
    for a, b in zip(narrow, index_arrays(), strict=True):
        assert (a.dtype, b.dtype) == (np.int32, np.int64)
        assert np.array_equal(a, b)


def test_count_dtype_follows_the_count_bound(monkeypatch, tmp_path):
    """A count per vertex takes index_dtype of the most it can reach, not of
    the ids: with core.INDEX_LIMIT below one vertex's degree, that degree
    is counted exactly, in int64, from int32 ids."""
    h = Hypergraph.from_edges([(0, 1)] * 150 + [(2,)])
    path = tmp_path / "h.txt"
    write_hypergraph(h, str(path))
    monkeypatch.setattr(core, "INDEX_LIMIT", 100)
    assert h.tokens.dtype == np.int32
    for counts, want in [(h.degrees(), [150, 150, 1]),
                         (read_degrees(str(path)), [150, 150, 1]),
                         (projected_degrees(h), [150, 150, 0]),
                         (project(h).degrees(), [150, 150, 0])]:
        assert counts.dtype == np.int64
        assert counts.tolist() == want
