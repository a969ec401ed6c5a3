"""Tests for the hypergraph data model and the degree-token sampler."""

from collections import Counter
from itertools import chain

import numpy as np
import pytest
from scipy import stats

from pahyper import Constant, GeneratorConfig, Hypergraph, UniformInt, evolve
from reference import EdgeList


class TestInitial:
    def test_y0_three(self):
        h = Hypergraph.initial(3)
        assert h.num_vertices == 1
        assert h.hyperedges == [(0, 0, 0)]
        assert h.degrees().tolist() == [3]
        assert h.total_degree == 3

    def test_y0_one(self):
        h = Hypergraph.initial(1)
        assert h.degrees().tolist() == [1]
        assert h.total_degree == 1

    def test_y0_two(self):
        h = Hypergraph.initial(2)
        assert h.degrees().tolist() == [2]
        assert h.total_degree == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Hypergraph.initial(0)


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


class TestSamplePreferential:
    def test_single_vertex_always_drawn(self):
        h = Hypergraph.initial(5)
        rng = np.random.default_rng(1)
        assert (h.sample_preferential(rng, size=50) == 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="total degree 0"):
            EdgeList(3).freeze().sample_preferential(np.random.default_rng(0), size=1)

    def test_proportions_chi_square(self):
        # degrees 1, 2, 3 over three vertices
        h = Hypergraph.from_edges([(0, 1, 2), (1, 2), (2,)])
        assert h.degrees().tolist() == [1, 2, 3]
        rng = np.random.default_rng(7)
        draws = h.sample_preferential(rng, size=120_000)
        observed = np.bincount(draws, minlength=3)
        expected = h.degrees() / h.total_degree * 120_000
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_symmetric_degrees(self):
        h = Hypergraph.from_edges([(0, 0), (1, 1)])
        rng = np.random.default_rng(11)
        draws = h.sample_preferential(rng, size=20_000)
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
            incident = Counter(chain.from_iterable(set(e) for e in h.hyperedges))
            assert h.incident_edge_counts().tolist() == [
                incident.get(v, 0) for v in range(h.num_vertices)]
            deg = h.degrees()
            for v in range(h.num_vertices):
                assert deg[v] == brute.get(v, 0)

    def test_degree_sum_identity(self):
        h = evolve(GeneratorConfig(p=0.6, steps=500, size_dist=UniformInt(2, 4), seed=9))
        assert h.total_degree == sum(len(e) for e in h.hyperedges)
        assert h.degrees().sum() == h.total_degree

    def test_incident_edge_counts(self):
        h = Hypergraph.from_edges([(0, 0, 1), (0, 1), (1,)])
        # occurrence degrees differ from incident-edge counts under repetition
        assert h.degrees().tolist() == [3, 3]
        assert h.incident_edge_counts().tolist() == [2, 3]


def test_rank():
    h = Hypergraph.from_edges([(0, 1), (0, 1, 1, 1)])
    assert h.rank() == 4
    assert EdgeList(2).freeze().rank() == 0


def test_structural_equality():
    a = Hypergraph.from_edges([(0, 1), (1, 2)])
    b = Hypergraph.from_edges([(1, 0), (2, 1)])
    assert a == b
    assert a != Hypergraph.from_edges([(1, 0), (2, 1), (0,)])
