"""Tests for histograms, projection, analytic oracles, and power-law fitting."""

from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from pahyper import (Constant, DegreeHistogram, FitReport, GeneratorConfig,
                     Hypergraph, TruncatedZipf, UniformInt, analytic_beta, analytic_mk,
                     ccdf, degree_histogram, edge_size_histogram, evolve, fit_power_law,
                     evolve_graph_baseline, project, projected_degrees)
from pahyper import analysis, core
from pahyper.analysis import MIN_TAIL, _mle_betas
from memory import traced_peak
from reference import (EdgeList, cephes_zeta, histogram, reference_ccdf,
                       reference_fit_power_law, reference_mle_beta, reference_tail,
                       sample_power_law)


class TestDegreeHistogram:
    def test_from_degrees(self):
        hist = DegreeHistogram.from_degrees([2, 3, 3])
        assert dict(hist.items_sorted()) == {2: 1, 3: 2}
        assert hist.total_vertices == 3
        assert hist.values @ hist.counts == 8

    def test_zero_degrees_dropped(self):
        hist = DegreeHistogram.from_degrees([0, 1, 1, 0])
        assert dict(hist.items_sorted()) == {1: 2}

    def test_initial_hypergraph(self):
        hist = degree_histogram(EdgeList.initial(3).freeze())
        assert dict(hist.items_sorted()) == {3: 1}

    def test_two_degree_one_vertices(self):
        hist = DegreeHistogram.from_degrees([1, 1])
        assert dict(hist.items_sorted()) == {1: 2}

    def test_identities_on_generated(self):
        from pahyper import GeneratorConfig, UniformInt, evolve
        h = evolve(GeneratorConfig(p=0.5, steps=400, size_dist=UniformInt(2, 4), seed=1))
        hist = degree_histogram(h)
        assert hist.total_vertices == h.num_vertices
        assert hist.values @ hist.counts == h.total_degree

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            histogram({0: 3})
        with pytest.raises(ValueError):
            histogram({2: 0})
        with pytest.raises(ValueError):
            DegreeHistogram(np.array([3, 2]), np.array([1, 1]))
        with pytest.raises(ValueError):
            DegreeHistogram(np.array([2, 2]), np.array([1, 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=80))
    def test_from_degrees_matches_counter(self, degrees):
        hist = DegreeHistogram.from_degrees(np.array(degrees, dtype=np.int64))
        assert dict(hist.items_sorted()) == {
            k: c for k, c in Counter(degrees).items() if k > 0}
        assert hist.values.dtype == hist.counts.dtype == np.int64

    def test_from_degrees_refuses_a_negative_value(self):
        with pytest.raises(ValueError, match="non-negative"):
            DegreeHistogram.from_degrees(np.array([3, -2]))

    def test_from_degrees_memory(self):
        """int32 input is counted with no int64 copy: the traced peak is the
        count array, far below the 4 bytes per input value."""
        sizes = np.random.default_rng(3).integers(1, 30, 10**6).astype(np.int32)
        hist, peak = traced_peak(DegreeHistogram.from_degrees, sizes)
        assert hist.total_vertices == len(sizes)
        assert peak < sizes.nbytes // 10

    def test_restrict(self):
        hist = histogram({2: 1, 3: 4, 7: 2})
        assert dict(hist.restrict(3).items_sorted()) == {3: 4, 7: 2}


def _pairs(result) -> list[tuple[int, float]]:
    """ccdf's two arrays as (degree, probability) pairs."""
    degrees, probs = result
    assert degrees.dtype == np.int64 and probs.dtype == np.float64
    return list(zip(degrees.tolist(), probs.tolist()))


class TestCCDF:
    def test_gap_histogram(self):
        assert _pairs(ccdf(histogram({1: 2, 3: 2}))) == [(1, 1.0), (2, 0.5), (3, 0.5)]

    def test_single_value(self):
        assert _pairs(ccdf(histogram({5: 10}))) == [(5, 1.0)]

    def test_uniform_four(self):
        assert _pairs(ccdf(histogram({1: 1, 2: 1, 3: 1, 4: 1}))) == [
            (1, 1.0), (2, 0.75), (3, 0.5), (4, 0.25)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf(histogram({}))

    def test_monotone_and_normalized(self):
        hist = DegreeHistogram.from_degrees(np.random.default_rng(3).integers(1, 40, 500))
        pairs = _pairs(ccdf(hist))
        probs = [p for _, p in pairs]
        assert probs[0] == 1.0
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(1, 300), st.integers(1, 10**9),
                           min_size=1, max_size=40))
    @example({7: 10**9})
    @example({1: 10**9 - 1, 300: 10**9, 2: 1})
    def test_matches_reference(self, counts):
        # gaps, a single value, and counts up to 10^9
        hist = histogram(counts)
        assert _pairs(ccdf(hist)) == reference_ccdf(hist)


class TestProjection:
    def test_triangle(self):
        h = Hypergraph.from_edges([(0, 1, 2)])
        g = project(h)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_repeated_member_multigraph(self):
        h = Hypergraph.from_edges([(0, 0, 1)])
        g = project(h)
        assert sorted(g.edges.tolist()) == [[0, 0], [0, 1], [0, 1]]
        assert g.degrees().tolist() == [4, 2]  # the loop counts twice

    def test_simple_collapses(self):
        h = Hypergraph.from_edges([(0, 1), (0, 0, 1, 2)])
        g = project(h, simple=True)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_matches_pairwise_reference(self):
        # mixed sizes and repeated members against itertools.combinations
        rng = np.random.default_rng(13)
        for _ in range(30):
            nv = int(rng.integers(1, 10))
            edges = [rng.integers(0, nv, size=rng.integers(1, 7)).tolist()
                     for _ in range(int(rng.integers(1, 15)))]
            h = Hypergraph.from_edges(edges + [list(range(nv))])
            pairs = [p for e in h.hyperedges for p in combinations(e, 2)]
            assert list(map(tuple, project(h).edges.tolist())) == pairs
            assert list(map(tuple, project(h, simple=True).edges.tolist())) == sorted(
                {(a, b) for a, b in pairs if a != b})

    def test_degree_scaling_identity(self):
        # multigraph projection of no-repeat d-uniform edges: deg_G = (d-1) deg_H
        rng = np.random.default_rng(12)
        for trial in range(30):
            d = int(rng.choice([2, 3, 5]))
            nv = int(rng.integers(d, 25))
            edges = EdgeList(nv)
            for _ in range(int(rng.integers(5, 60))):
                edges.add_hyperedge(rng.choice(nv, size=d, replace=False))
            h = edges.freeze()
            g = project(h)
            assert np.array_equal(g.degrees(), (d - 1) * h.degrees())
            # brute-force recount of graph degrees from the edge list
            brute = np.zeros(nv, dtype=int)
            for a, b in g.edges:
                brute[a] += 1
                brute[b] += 1
            assert np.array_equal(brute, g.degrees())


def _assert_pairs_by_combinations(h):
    """project(h) in pieces of 1, 7 and SORT_PIECE edges against
    itertools.combinations over each edge, multigraph and simple."""
    pairs = [p for e in h.hyperedges for p in combinations(e, 2)]
    simple = sorted({(a, b) for a, b in pairs if a != b})
    for piece in (1, 7, core.SORT_PIECE):
        with mock.patch.object(core, "SORT_PIECE", piece):
            g, s = project(h), project(h, simple=True)
        assert g.edges.shape == (len(pairs), 2) and s.edges.shape == (len(simple), 2)
        assert list(map(tuple, g.edges.tolist())) == pairs
        assert list(map(tuple, s.edges.tolist())) == simple


MEMBERS = st.lists(st.integers(0, 6), min_size=1, max_size=6)
ONE_SIZE = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(0, 6), min_size=c, max_size=c), max_size=30))


@settings(max_examples=200, deadline=None)
@given(st.lists(MEMBERS, max_size=30) | ONE_SIZE)
@example([])                            # no edges
@example([[0], [1], [2]])               # no pairs
@example([[0, 1, 2]] * 7 + [[2]] + [[1, 2, 3]] * 7)
def test_project_matches_combinations(edges):
    """One-size pieces (views), mixed pieces (gather) and size-1 edges."""
    tokens = np.array([v for e in edges for v in sorted(e)], dtype=np.int64)
    offsets = np.cumsum([0] + [len(e) for e in edges], dtype=np.int64)
    num_vertices = int(tokens.max(initial=-1)) + 1
    _assert_pairs_by_combinations(Hypergraph(num_vertices, tokens, offsets))


@pytest.mark.parametrize("size_dist", [Constant(3), TruncatedZipf(2.5, 2, 8)])
def test_project_of_capped_head(size_dist):
    # the cap holds steps 1-26 at size 2, so pieces of 7 edges end inside it
    _assert_pairs_by_combinations(evolve(GeneratorConfig(1.0, 300, size_dist, seed=4)))


def _assert_projected_degrees(h):
    """projected_degrees(h) equals project(h).degrees() in dtype and value,
    in pieces of 4 and 16 edges (mixing sizes) and of SORT_PIECE edges."""
    for piece in (4, 16, core.SORT_PIECE):
        with mock.patch.object(core, "SORT_PIECE", piece):
            got, want = projected_degrees(h), project(h).degrees()
        assert got.dtype == want.dtype and len(got) == len(want) == h.num_vertices
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(MEMBERS, max_size=30) | ONE_SIZE)
@example([])                            # no edges
@example([[0], [1], [2]])               # size-1 edges add nothing
@example([[0, 0], [0, 0, 0, 1]] * 5)    # self loops add 2 per pair
def test_projected_degrees_match_project(edges):
    ids = sorted({v for e in edges for v in e})     # dense ids for from_edges
    _assert_projected_degrees(Hypergraph.from_edges([[ids.index(v) for v in e]
                                                     for e in edges]))


@pytest.mark.parametrize("size_dist", [Constant(3), UniformInt(2, 6),
                                       TruncatedZipf(2.5, 2, 20)],
                         ids=["const:3", "uniform:2:6", "zipf:2.5:2:20"])
def test_projected_degrees_of_evolve(size_dist):
    # capped, so const:3 starts with edges of size 2
    _assert_projected_degrees(evolve(GeneratorConfig(0.5, 10_000, size_dist, seed=5)))


def test_project_memory():
    """Beside its edges, project holds a pair offset per edge and arrays the
    size of one piece, not pair-length temporaries.  The bound is in bytes
    per pair: int64 pairs alone are 16."""
    h = evolve(GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7))
    g, peak = traced_peak(project, h)
    assert peak <= 18 * g.num_edges


def test_projected_degrees_memory():
    """projected_degrees holds 4 bytes per vertex (int32 degrees) beside the
    arrays of one piece: at most 48 bytes per edge of a piece that mixes
    sizes 2 and 3, as the first of a capped const:3 run does."""
    h = evolve(GeneratorConfig(p=1.0, steps=200_000, size_dist=Constant(3), seed=7))
    degrees, peak = traced_peak(projected_degrees, h)
    assert degrees.dtype == np.int32
    assert peak <= 4 * h.num_vertices + 48 * core.SORT_PIECE


def test_simple_projection_key_passes_int32():
    """With int32 ids and over 46,341 vertices, a * n + b passes 2**31."""
    n = 50_000
    edges = [[v] for v in range(n)] + [[n - 1, 0, n - 2], [n - 2, n - 1, n - 1], [3, n - 1]]
    g = project(Hypergraph.from_edges(edges), simple=True)
    pairs = {(a, b) for e in edges for a, b in combinations(sorted(e), 2) if a != b}
    assert g.edges.dtype == np.int32
    assert g.edges.tolist() == [list(pair) for pair in sorted(pairs)]


@pytest.mark.parametrize("build", [lambda h: h, project], ids=["Hypergraph", "ObservedGraph"])
def test_degrees_make_no_int64_copy_of_int32_ids(build):
    """Counting int32 ids needs the counts, in the index dtype, not an int64
    copy of the ids as np.bincount makes."""
    structure = build(evolve(GeneratorConfig(p=0.5, steps=200_000,
                                             size_dist=Constant(3), seed=7)))
    ids = structure.tokens if isinstance(structure, Hypergraph) else structure.edges
    assert ids.dtype == np.int32
    degrees, peak = traced_peak(structure.degrees)
    assert degrees.dtype == core.index_dtype(ids.size)
    assert peak < degrees.nbytes + ids.nbytes


class TestAnalyticBeta:
    def test_graph_case(self):
        assert analytic_beta(1.0, 2.0) == pytest.approx(3.0)

    def test_three_uniform(self):
        assert analytic_beta(1.0, 3.0) == pytest.approx(2.5)

    def test_small_p_limit(self):
        assert analytic_beta(1e-9, 3.0) == pytest.approx(2.0, abs=1e-8)

    def test_half_graph(self):
        assert analytic_beta(0.5, 2.0) == pytest.approx(7.0 / 3.0)

    def test_undefined(self):
        with pytest.raises(ValueError):
            analytic_beta(1.0, 1.0)
        with pytest.raises(ValueError):
            analytic_beta(1.5, 3.0)
        with pytest.raises(ValueError):
            analytic_beta(0.5, float("inf"))


class TestAnalyticMk:
    def test_graph_closed_form_head(self):
        m = analytic_mk(1.0, 2.0, 3)
        assert m == pytest.approx([2 / 3, 1 / 6, 1 / 15], rel=1e-14)

    def test_m1_half_three(self):
        assert analytic_mk(0.5, 3.0, 1).tolist() == [pytest.approx(3 / 11, rel=1e-15)]

    def test_kmax_one_shape(self):
        assert analytic_mk(0.8, 4.0, 1).shape == (1,)

    def test_ratio_recurrence_exact(self):
        for p, mu in [(1.0, 2.0), (1.0, 3.0), (0.5, 3.0), (0.25, 4.0)]:
            m = analytic_mk(p, mu, 50)
            k = np.arange(2, 51)
            np.testing.assert_allclose(m[1:] / m[:-1], (k - 1) / (k + mu / (mu - p)),
                                       rtol=1e-13)

    def test_asymptotic_exponent(self):
        # k (1 - M_k/M_{k-1}) = (1 + mu/(mu-p)) / (1 + a/k) -> beta; within 1% at k=1000
        for p, mu in [(1.0, 2.0), (1.0, 3.0), (0.5, 3.0), (0.25, 4.0)]:
            m = analytic_mk(p, mu, 1000)
            value = 1000 * (1 - m[999] / m[998])
            assert value == pytest.approx(analytic_beta(p, mu), rel=0.01)

    def test_undefined(self):
        with pytest.raises(ValueError):
            analytic_mk(1.0, 0.9, 5)
        with pytest.raises(ValueError):
            analytic_mk(0.5, 3.0, 0)
        with pytest.raises(ValueError):
            analytic_mk(0.5, float("inf"), 3)


class TestEdgeSizeHistogram:
    def test_mixed(self):
        h = Hypergraph.from_edges([(0, 0, 0), (1, 0)])
        assert dict(edge_size_histogram(h).items_sorted()) == {3: 1, 2: 1}

    def test_d_uniform(self):
        from pahyper import Constant, GeneratorConfig, evolve
        h = evolve(GeneratorConfig(p=0.5, steps=40, size_dist=Constant(3), y0=3,
                                   seed=2, enforce_cap=False))
        assert dict(edge_size_histogram(h).items_sorted()) == {3: 41}

    def test_initial_only(self):
        hist = edge_size_histogram(EdgeList.initial(2).freeze())
        assert dict(hist.items_sorted()) == {2: 1}


class TestFitPowerLaw:
    def test_recovery(self):
        rng = np.random.default_rng(21)
        sample = sample_power_law(2.5, 5, 40_000, rng)
        report = fit_power_law(DegreeHistogram.from_degrees(sample), 5)
        assert report.beta_hat == pytest.approx(2.5, abs=0.05)
        assert report.k_min == 5
        assert report.n_tail == 40_000

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError, match="all equal"):
            fit_power_law(histogram({4: 100}), 4)

    def test_tail_too_small(self):
        with pytest.raises(ValueError, match="tail too small"):
            fit_power_law(histogram({1: 50, 2: 4, 3: 5}), 2)

    def test_empty_histogram(self):
        with pytest.raises(ValueError):
            fit_power_law(histogram({}), 5)

    def test_scale_consistency(self):
        rng = np.random.default_rng(22)
        sample = sample_power_law(2.8, 3, 5_000, rng)
        hist = DegreeHistogram.from_degrees(sample)
        doubled = histogram({k: 2 * c for k, c in hist.items_sorted()})
        a = fit_power_law(hist, 3)
        b = fit_power_law(doubled, 3)
        assert a.beta_hat == pytest.approx(b.beta_hat, abs=1e-9)

    def test_auto_never_worse_than_smallest_cutoff(self):
        rng = np.random.default_rng(23)
        # contaminated head: power law only holds beyond ~5
        head = rng.integers(1, 5, size=3_000)
        tail = sample_power_law(2.4, 5, 8_000, rng)
        hist = DegreeHistogram.from_degrees(np.concatenate([head, tail]))
        auto = fit_power_law(hist, "auto")
        fixed = fit_power_law(hist, 1)
        assert auto.ks_stat <= fixed.ks_stat
        assert auto.k_min >= 1
        assert abs(auto.beta_hat - 2.4) < abs(fixed.beta_hat - 2.4)

    def test_auto_requires_viable_cutoff(self):
        with pytest.raises(ValueError, match="tail too small"):
            fit_power_law(histogram({3: 4, 5: 4}), "auto")

    def test_auto_single_value_tail_is_all_equal(self):
        # the one cutoff keeps 100 items, so the tail is not too small
        with pytest.raises(ValueError, match="^degrees in tail are all equal"):
            fit_power_law(histogram({5: 100}), "auto")
        with pytest.raises(ValueError, match="^degrees in tail are all equal"):
            fit_power_law(histogram({5: 100}), 5)

    def test_auto_keeps_first_cutoff_on_ks_tie(self):
        hist = histogram({1: 30, 2: 20, 3: 10, 4: 10})
        def tie(hist, first, cuts, n, betas, head=None):
            return np.full(len(cuts), 0.25)     # every bound and distance ties
        for batch in (1, analysis.KS_BATCH):
            with (mock.patch.object(analysis, "_ks_stats", side_effect=tie),
                  mock.patch.object(analysis, "KS_BATCH", batch)):
                assert fit_power_law(hist, "auto").k_min == 1

    @pytest.mark.parametrize("batch", [1, analysis.KS_BATCH])
    def test_auto_keeps_first_cutoff_when_a_later_tie_bounds_lower(self, batch):
        """Cutoff 2 is scored first, on its smaller bound, and ties cutoff
        1's distance; cutoff 1's bound equals that best, so it is scored
        too and wins the tie, and cutoff 3's larger bound prunes it."""
        hist = histogram({1: 30, 2: 20, 3: 10, 4: 10})
        bound, full = {1: 0.25, 2: 0.1, 3: 0.3}, {1: 0.25, 2: 0.25, 3: 0.4}
        scored = []
        def ks(hist, first, cuts, n, betas, head=None):
            if head is None:
                scored.extend(cuts.tolist())
            return np.array([(full if head is None else bound)[c] for c in cuts.tolist()])
        with (mock.patch.object(analysis, "_ks_stats", side_effect=ks),
              mock.patch.object(analysis, "KS_BATCH", batch)):
            report = fit_power_law(hist, "auto")
        assert (report.k_min, report.ks_stat) == (1, 0.25)
        assert scored == ([2, 1] if batch == 1 else [2, 1, 3])

    def test_auto_with_every_distance_nan_is_refused(self):
        # the one cutoff's zeta(beta, 10^18) underflows to 0, with no warning
        with pytest.raises(ValueError, match="^KS statistic out of range: nan$"):
            fit_power_law(histogram({10**18: 6, 10**18 + 1: 6}), "auto")

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            FitReport(beta_hat=0.9, k_min=2, n_tail=100, ks_stat=0.1)
        with pytest.raises(ValueError):
            FitReport(beta_hat=2.0, k_min=2, n_tail=5, ks_stat=0.1)
        with pytest.raises(ValueError):
            FitReport(beta_hat=2.0, k_min=2, n_tail=100, ks_stat=1.5)


# (x, q) where Cephes' zeta stops its direct sum after the term (q + i)^-x
# for i = 9, 8, ..., 3, or its Euler-Maclaurin sum after term 0, 1, ..., 8
# (for q >= 1 and x <= 30 no later stop occurs); then q = 1e8, the last
# before the asymptotic form, and two past it
ZETA_EXAMPLES = [(16.0, 1), (17.0, 1), (18.0, 1), (19.0, 1), (21.0, 1), (23.0, 1),
                 (27.0, 1),
                 (1 + 1e-6, 10**6), (1 + 1e-6, 100), (1 + 1e-6, 10), (1 + 1e-6, 1),
                 (5.0, 100), (1.001, 1), (1.01, 1), (2.0, 1), (11.0, 6),
                 (2.5, 10**8), (2.5, 10**8 + 1), (30.0, 2 * 10**8)]


def test_zeta_examples_cover_every_stop():
    assert {cephes_zeta(x, q)[1:] for x, q in ZETA_EXAMPLES} == (
        {("direct", i) for i in range(3, 10)}
        | {("euler-maclaurin", i) for i in range(9)} | {("asymptotic", 0)})
    assert [cephes_zeta(x, q)[0] for x, q in ZETA_EXAMPLES] == [
        zeta(x, q) for x, q in ZETA_EXAMPLES]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1.0, 30.0, exclude_min=True),
                          st.integers(1, 100) | st.integers(1, 2 * 10**8)),
                min_size=1, max_size=40))
@example(ZETA_EXAMPLES)
@example([(1 + 1e-6, q) for q in (1, 2, 10**8, 10**8 + 1, 2 * 10**8)])
def test_zeta_equals_scipy(pairs):
    """The numpy zeta is scipy's (Cephes') bit for bit, lanes that stop in
    different places side by side.  It relies on np.float_power calling
    libm's pow, as Cephes does: a SIMD float_power would fail it."""
    x, q = (np.array(v, dtype=np.float64) for v in zip(*pairs))
    assert analysis._zeta(x, q).tolist() == zeta(x, q).tolist()


def _lanes(counts: dict[int, int]):
    """(k_min, n, sum_log) of every tail of a {value: count} histogram that
    holds two or more values."""
    hist = histogram(counts)
    lanes = [reference_tail(hist, cut) for cut in hist.values.tolist()]
    return [(cut, n, s) for cut, (tk, _, n, s) in zip(hist.values.tolist(), lanes)
            if len(tk) > 1]


TAILS = st.dictionaries(st.integers(1, 10**6), st.integers(1, 10**6),
                        min_size=2, max_size=25)


@settings(max_examples=150, deadline=None)
@given(TAILS.map(_lanes))
@example([(2, 100, 100 * np.log(2)),            # all at k_min: optimum at 25
          (999_983, 10, 10 * np.log(999_983)),
          (1, 10, 1e9)])                         # optimum at 1 + 1e-6
@example(_lanes({2: 9, 3: 1}))                  # n = MIN_TAIL
@example(_lanes({2: 999, 3: 1}))    # two parabolic steps land within tol2 of a bound
@example(_lanes({999_983: 7, 10**6 + 3: 2, 5 * 10**6: 1}))       # k_min near 10^6
def test_mle_betas_equal_scipy_bounded_search(lanes):
    """Each lane of the batched search is the scalar fminbound, bit for bit."""
    k_min, n, sum_log = zip(*lanes)
    got = _mle_betas(k_min, n, sum_log).tolist()
    assert got == [reference_mle_beta(*lane) for lane in lanes]


@settings(max_examples=40, deadline=None)
@given(st.floats(1.5, 4.0), st.integers(1, 12), st.integers(MIN_TAIL - 2, 3_000),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(2.5, 1, MIN_TAIL, 1, 0)
def test_fit_power_law_equals_per_cutoff_reference(beta, k_min, size, spacing, seed):
    """Auto and fixed fits of sampled histograms, on the lattice deg*(d-1)
    of a projected graph when spacing = d - 1 > 1, match the per-cutoff
    scipy search: the same FitReport or the same error."""
    sample = sample_power_law(beta, k_min, size, np.random.default_rng(seed),
                              table_max=10**4)
    hist = DegreeHistogram.from_degrees(sample * spacing)
    for cut in ("auto", 1, 2, 5, 20):
        try:
            want = reference_fit_power_law(hist, cut)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                fit_power_law(hist, cut)
            assert str(got.value) == str(err)
        else:
            assert fit_power_law(hist, cut) == want


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 40) | st.integers(1, 10**9), st.integers(1, 60),
                       min_size=1, max_size=30))
@example({1: 30, 2: 20, 3: 10, 4: 10})
@example({2: 9, 3: 1})                  # n = MIN_TAIL at the only cutoff
@example({1: 50, 3: 20, 10**9: 5})
def test_auto_fit_is_fixed_fit_at_its_cutoff(counts):
    """Whenever the auto fit succeeds, the fixed fit at the cutoff it chose
    returns the same report, field for field."""
    hist = histogram(counts)
    try:
        report = fit_power_law(hist, "auto")
    except ValueError:
        return
    assert fit_power_law(hist, report.k_min) == report


def _fit_bits(report):
    """A FitReport's fields, the floats as their exact hex."""
    return (report.beta_hat.hex(), report.k_min, report.n_tail, report.ks_stat.hex())


def _compare_histogram(side: str) -> DegreeHistogram:
    """One degree histogram of a 10^5-step compare run (p=1, d=3, seed 7)."""
    if side == "hypergraph":
        degrees = projected_degrees(evolve(GeneratorConfig(1.0, 100_000, Constant(3),
                                                           seed=7)))
    else:
        degrees = evolve_graph_baseline(1.0, 100_000, seed=7).degrees()
    return DegreeHistogram.from_degrees(degrees)


@pytest.mark.parametrize("side", ["hypergraph", "graph"])
def test_ks_pieces_do_not_change_the_fit(side):
    """The KS distances walk their lanes in runs of KS_PIECE tail points
    (core.spans): runs of 1 and 7 points, one lane each or a few, give the
    default's auto and fixed-cutoff reports bit for bit, on either
    histogram of a 10^5-step compare run."""
    hist = _compare_histogram(side)
    reports = {}
    for piece in (1, 7, analysis.KS_PIECE):
        with mock.patch.object(analysis, "KS_PIECE", piece):
            reports[piece] = [_fit_bits(fit_power_law(hist, k)) for k in ("auto", 5)]
    assert reports[1] == reports[7] == reports[analysis.KS_PIECE]


@pytest.mark.parametrize("side", ["hypergraph", "graph"])
def test_pruned_scan_is_the_full_scan(side):
    """On either histogram of a 10^5-step compare run, the auto fit is the
    argmin of the unpruned KS distances of every lane, bit for bit, and the
    bound prunes at least three quarters of the lanes."""
    hist = _compare_histogram(side)
    n = np.cumsum(hist.counts[::-1])[::-1]
    first = np.arange(min(int(np.count_nonzero(n >= MIN_TAIL)), len(hist.values) - 1))
    cuts, ns = hist.values[first], n[first]
    sum_logs = [float((hist.counts[i:] * np.log(hist.values[i:])).sum()) for i in first]
    betas = _mle_betas(cuts, ns, sum_logs)
    full = analysis._ks_stats(hist, first, cuts, ns, betas)
    j = int(np.argmin(full))
    want = FitReport(float(betas[j]), int(cuts[j]), int(ns[j]), float(full[j]))
    with mock.patch.object(analysis, "_ks_stats", wraps=analysis._ks_stats) as ks:
        assert _fit_bits(fit_power_law(hist, "auto")) == _fit_bits(want)
    scored = sum(len(c.args[2]) for c in ks.call_args_list if c.kwargs.get("head") is None)
    assert 1 <= scored <= len(cuts) // 4


# histograms where the fitted zeta(beta, cut) of their top cutoff underflows
# to 0, so that cutoff's KS distance is NaN
NAN_CUTOFF = [{1: 50, 10**18: 6, 10**18 + 1: 6}, {1: 50, 2**62: 5, 2**62 + 1: 5}]


@pytest.mark.parametrize("counts", [
    {1: 50, 3: 20, 10**9: 5},
    {1: 30, 10**8 - 1: 5, 10**8: 6, 10**8 + 1: 7, 10**8 + 9: 3},
    {5: 3, 6: 4, 7: 5, 10**8 - 10: 2, 10**8 + 20: 3},
    {1: 50, 2: 3, 2**53 + 1: 5, 2**53 + 2: 4},
    {1: 50, 2: 7, 2**62: 5},
    *NAN_CUTOFF,
])
def test_fit_of_values_past_1e8_equals_reference(counts):
    """Degrees where zeta takes its asymptotic form (q > 1e8), beside ones
    where it sums, and past exact float64 integers, fit as scipy fits them.
    A cutoff with a NaN KS distance is never chosen: on NAN_CUTOFF the auto
    fit is the fit at 1 (scipy's own search warns at that cutoff, so here
    the fixed fit is the judge)."""
    hist = histogram(counts)
    for cut in ("auto", 1, 2, 6):
        if cut == "auto" and counts in NAN_CUTOFF:
            assert fit_power_law(hist, "auto") == fit_power_law(hist, 1)
            continue
        try:
            want = reference_fit_power_law(hist, cut)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                fit_power_law(hist, cut)
            assert str(got.value) == str(err)
        else:
            assert fit_power_law(hist, cut) == want


class TestSamplePowerLaw:
    def test_support(self):
        rng = np.random.default_rng(31)
        s = sample_power_law(3.0, 4, 10_000, rng)
        assert s.min() >= 4

    def test_tail_mass_reasonable(self):
        rng = np.random.default_rng(32)
        s = sample_power_law(2.0, 1, 50_000, rng)
        # P[K >= 2] = 1 - 1/zeta(2) ~ 0.392
        assert (s >= 2).mean() == pytest.approx(0.392, abs=0.01)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_power_law(1.0, 3, 10, rng)
        with pytest.raises(ValueError):
            sample_power_law(2.5, 0, 10, rng)

    def test_table_below_k_min_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="table_max"):
            sample_power_law(2.5, 10, 5, rng, table_max=5)
        with pytest.raises(ValueError, match="table_max"):
            sample_power_law(2.5, 5, 3, rng, table_max=4)
        assert sample_power_law(2.5, 5, 3, rng, table_max=5).tolist() == [5, 5, 5]
