"""Tests for the evolution processes and edge-size distributions."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pahyper import (Constant, EdgeSizeDistribution, GeneratorConfig,
                     Hypergraph, TruncatedZipf, UniformInt, evolve,
                     evolve_graph_baseline, project, sum_sizes_trace)
from pahyper import core
from pahyper.generator import _draw_sizes, _size_rng
from pahyper.io import write_hypergraph
from memory import traced_peak
from oracles import arrival_events
from reference import EdgeList, graph_pairs, reference_evolve


class TestSizeDistributions:
    def test_constant(self):
        d = Constant(3)
        assert d.mean() == 3.0
        assert d.sample(np.random.default_rng(0), 5).tolist() == [3] * 5

    def test_constant_below_two_rejected(self):
        with pytest.raises(ValueError):
            Constant(1)

    def test_uniform_range_and_mean(self):
        d = UniformInt(2, 4)
        assert d.mean() == 3.0
        s = d.sample(np.random.default_rng(1), 10_000)
        assert s.min() == 2 and s.max() == 4

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformInt(1, 4)
        with pytest.raises(ValueError):
            UniformInt(5, 4)

    def test_zipf_proportions(self):
        d = TruncatedZipf(2.0, 2, 8)
        s = d.sample(np.random.default_rng(2), 200_000)
        assert s.min() >= 2 and s.max() <= 8
        freq2 = (s == 2).mean()
        freq4 = (s == 4).mean()
        # P(2)/P(4) = (2/4)^-2 = 4
        assert freq2 / freq4 == pytest.approx(4.0, rel=0.1)
        norm = sum(k ** -2.0 for k in range(2, 9))
        assert d.mean() == pytest.approx(sum(k * k ** -2.0 for k in range(2, 9)) / norm)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            TruncatedZipf(1.0, 2, 8)
        with pytest.raises(ValueError):
            TruncatedZipf(2.5, 1, 8)


class TestConfigValidation:
    def test_p_range(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                GeneratorConfig(p=bad, steps=1, size_dist=Constant(2))

    def test_steps_nonnegative(self):
        with pytest.raises(ValueError):
            GeneratorConfig(p=0.5, steps=-1, size_dist=Constant(2))

    def test_y0_positive(self):
        with pytest.raises(ValueError):
            GeneratorConfig(p=0.5, steps=1, size_dist=Constant(2), y0=0)

    def test_cap_exponent_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(p=0.5, steps=1, size_dist=Constant(2), cap_exponent=0.5)


class TestEvolve:
    def test_zero_steps_identity(self):
        h = evolve(GeneratorConfig(p=0.5, steps=0, size_dist=Constant(3), y0=4))
        assert h == EdgeList.initial(4).freeze()

    def test_p_one_constant_two_structure(self):
        # every step adds one vertex and one 2-member edge
        t = 400
        h = evolve(GeneratorConfig(p=1.0, steps=t, size_dist=Constant(2), y0=3, seed=5))
        assert h.num_vertices == t + 1
        assert h.num_edges == t + 1
        assert h.total_degree == 3 + 2 * t
        for i, e in enumerate(h.hyperedges[1:], start=1):
            assert len(e) == 2
            assert max(e) == i          # arrival step's vertex is in its edge
            assert min(e) < i           # partner predates the newcomer

    def test_d_uniform_without_cap(self):
        cfg = GeneratorConfig(p=0.5, steps=300, size_dist=Constant(4), y0=4,
                              seed=8, enforce_cap=False)
        h = evolve(cfg)
        assert all(len(e) == 4 for e in h.hyperedges)

    def test_cap_clamps_early_sizes(self):
        cfg = GeneratorConfig(p=0.5, steps=100, size_dist=Constant(5), y0=5, seed=8)
        h = evolve(cfg)
        for t, e in enumerate(h.hyperedges[1:], start=1):
            expected = min(5, max(2, int(t ** (1.0 / 3.0) + 1e-9)))
            assert len(e) == expected

    def test_determinism(self):
        cfg = GeneratorConfig(p=0.7, steps=2_000, size_dist=UniformInt(2, 6), seed=42)
        a = evolve(cfg)
        b = evolve(cfg)
        assert a == b
        assert np.array_equal(a.tokens, b.tokens)
        other = evolve(GeneratorConfig(p=0.7, steps=2_000,
                                       size_dist=UniformInt(2, 6), seed=43))
        assert a != other

    def test_byte_identical_output(self, tmp_path):
        cfg = GeneratorConfig(p=0.3, steps=500, size_dist=UniformInt(2, 4), seed=17)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_hypergraph(evolve(cfg), str(p1))
        write_hypergraph(evolve(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_vertex_count_concentration(self):
        # 1 + Binomial(steps, p) arrivals, within 4 sigma in >= 99/100 runs
        p, steps = 0.3, 5_000
        bound = 4 * np.sqrt(p * (1 - p) * steps)
        hits = 0
        for s in range(100):
            cfg = GeneratorConfig(p=p, steps=steps, size_dist=Constant(2), seed=600 + s)
            h = evolve(cfg)
            hits += abs((h.num_vertices - 1) - p * steps) <= bound
        assert hits >= 99

    def test_total_degree_matches_sizes_drawn(self):
        cfg = GeneratorConfig(p=0.5, steps=800, size_dist=UniformInt(2, 4), seed=23)
        h = evolve(cfg)
        assert h.total_degree == sum(len(e) for e in h.hyperedges)
        assert h.total_degree == int(sum_sizes_trace(cfg)[-1])

    def test_fitted_exponent_three_uniform(self):
        # p=1, mu=3: limiting exponent 2.5; a single medium run lands nearby
        from pahyper import degree_histogram, fit_power_law
        cfg = GeneratorConfig(p=1.0, steps=30_000, size_dist=Constant(3), y0=3, seed=2)
        beta = fit_power_law(degree_histogram(evolve(cfg)), 5).beta_hat
        assert 2.2 < beta < 2.7


SIZE_DISTS = st.one_of(
    st.builds(Constant, st.integers(2, 6)),
    st.builds(lambda lo, width: UniformInt(lo, lo + width),
              st.integers(2, 5), st.integers(0, 5)),
    st.builds(lambda exponent, lo, width: TruncatedZipf(exponent, lo, lo + width),
              st.floats(1.1, 4.0), st.integers(2, 5), st.integers(0, 20)),
)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.01, 1.0), steps=st.integers(0, 2000), size_dist=SIZE_DISTS,
       y0=st.integers(1, 5), cap=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_evolve_matches_step_by_step_reference(p, steps, size_dist, y0, cap, seed):
    cfg = GeneratorConfig(p=p, steps=steps, size_dist=size_dist, y0=y0,
                          seed=seed, enforce_cap=cap)
    assert evolve(cfg) == reference_evolve(cfg)


@pytest.mark.parametrize("p", [0.3, 1.0])
@pytest.mark.parametrize("size_dist", [Constant(3), UniformInt(2, 6),
                                       TruncatedZipf(2.5, 2, 20)], ids=repr)
def test_evolve_matches_reference_across_chunks(p, size_dist):
    cfg = GeneratorConfig(p=p, steps=70_000, size_dist=size_dist, seed=23)
    h = evolve(cfg)
    assert h.total_degree > 2 * core.PIECE_IDS
    assert h == reference_evolve(cfg)


@pytest.mark.parametrize("budget", [1, 7, 64, 192])
@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 1.0), steps=st.integers(0, 600), size_dist=SIZE_DISTS,
       y0=st.integers(1, 5), cap=st.booleans(), seed=st.integers(0, 2 ** 32))
@example(p=0.5, steps=0, size_dist=Constant(3), y0=3, cap=True, seed=1)
@example(p=0.5, steps=1, size_dist=Constant(3), y0=3, cap=True, seed=2)
# the first draws have bound 1, and numpy takes no output for them
@example(p=0.5, steps=400, size_dist=Constant(3), y0=1, cap=True, seed=3)
@example(p=0.4, steps=400, size_dist=UniformInt(2, 4), y0=1, cap=True, seed=4)
@example(p=1.0, steps=3_000, size_dist=Constant(3), y0=3, cap=True, seed=5)
@example(p=0.3, steps=3_000, size_dist=UniformInt(2, 4), y0=3, cap=True, seed=6)
@example(p=0.6, steps=3_000, size_dist=TruncatedZipf(2.5, 2, 20), y0=3, cap=True,
         seed=7)
def test_evolve_matches_reference_in_small_chunks(budget, p, steps, size_dist, y0,
                                                  cap, seed):
    """With a small slot budget a run crosses many chunks, steps larger than
    the budget are chunks of their own, and draws chain inside a chunk: the
    event bits from a second generator at the stream's start, the sizes
    past them and the member draws in slot order are the reference's one
    stream, whatever the chunks."""
    cfg = GeneratorConfig(p=p, steps=steps, size_dist=size_dist, y0=y0,
                          seed=seed, enforce_cap=cap)
    with mock.patch.object(core, "PIECE_IDS", budget):
        h = evolve(cfg)
    assert h == reference_evolve(cfg)


class Cached(EdgeSizeDistribution):
    """Hands out one array it keeps, as a caching distribution might."""

    def __init__(self, sizes):
        self.sizes = sizes

    def sample(self, rng, n):
        return self.sizes[:n]


@pytest.mark.parametrize("exponent", [0.0, 0.1, 1 / 3, 0.49])
@pytest.mark.parametrize("size_dist", [Constant(2), Constant(3), UniformInt(2, 12),
                                       TruncatedZipf(2.5, 2, 40)], ids=repr)
def test_cap_clamps_like_the_whole_array(exponent, size_dist):
    steps = 70_000
    raw = size_dist.sample(np.random.default_rng(4), steps)
    cfg = GeneratorConfig(p=0.5, steps=steps, size_dist=Cached(raw.copy()),
                          cap_exponent=exponent)
    sizes = _draw_sizes(cfg, np.random.default_rng(0))
    t = np.arange(1, steps + 1, dtype=np.float64)
    cap = np.maximum(np.floor(t ** exponent + 1e-9).astype(np.int64), 2)
    assert np.array_equal(sizes, np.clip(raw, 2, cap))
    assert np.array_equal(cfg.size_dist.sizes, raw)     # the sample is not written


@pytest.mark.parametrize("steps", [0, 1, 1 << 15, (1 << 16) + 5])   # several chunks
def test_event_bits_in_pieces_are_one_draw(steps):
    """The event bits drawn chunk by chunk in the fill are rng.random(steps)
    < p, and the size generator skips them to the same state, so the sizes
    draw the same."""
    cfg = GeneratorConfig(p=0.3, steps=steps, size_dist=Constant(2), seed=11)
    whole = np.random.default_rng(11)
    arrival, _, _ = arrival_events(evolve(cfg))
    assert np.array_equal(arrival, whole.random(steps) < 0.3)
    assert _size_rng(cfg).bit_generator.state == whole.bit_generator.state


def test_draw_sizes_memory():
    """const:3 sizes take 8 bytes per step, the int64 sample clamped in
    place, and no event bit is drawn beside them: the traced peak stays
    under 9 bytes per step, where a float64 array of the event uniforms
    would add 8."""
    cfg = GeneratorConfig(p=0.5, steps=1_000_000, size_dist=Constant(3), seed=7)
    sizes, peak = traced_peak(_draw_sizes, cfg, _size_rng(cfg))
    assert sizes.dtype == np.int64
    assert peak <= 9 * cfg.steps


@pytest.mark.parametrize("size_dist, exponent", [
    (Constant(2), 1 / 3),
    (UniformInt(2, 300), 1 / 3),
    (TruncatedZipf(2.5, 2, 20), 1 / 3),
    (UniformInt(2, 2**33), 1 / 3),
    # the cap's prefix runs past the largest size here
    (Constant(255), 0.49),
    (Constant(256), 0.49),
    (Constant(2**32 - 1), 0.49),
    (Constant(2**32), 0.49),
], ids=repr)
def test_sizes_clipped_to_the_cap(size_dist, exponent):
    steps = 140_000
    cfg = GeneratorConfig(p=0.5, steps=steps, size_dist=size_dist, seed=3,
                          cap_exponent=exponent)
    sizes = _draw_sizes(cfg, _size_rng(cfg))
    rng = np.random.default_rng(cfg.seed)
    rng.random(steps)
    raw = size_dist.sample(rng, steps)
    t = np.arange(1, steps + 1, dtype=np.float64)
    cap = np.maximum(np.floor(t ** exponent + 1e-9).astype(np.int64), 2)
    assert np.array_equal(sizes, np.clip(raw, 2, cap))
    trace = sum_sizes_trace(cfg)
    assert trace.dtype == np.int64
    assert np.array_equal(trace[1:], cfg.y0 + np.cumsum(np.clip(raw, 2, cap)))


class TestSumSizesTrace:
    def test_zero_steps(self):
        cfg = GeneratorConfig(p=0.5, steps=0, size_dist=Constant(3), y0=4)
        assert sum_sizes_trace(cfg).tolist() == [4]

    def test_constant_sizes_exact(self):
        cfg = GeneratorConfig(p=0.5, steps=50, size_dist=Constant(3), y0=3,
                              enforce_cap=False)
        trace = sum_sizes_trace(cfg)
        assert trace.tolist() == [3 + 3 * t for t in range(51)]

    def test_matches_evolve_stream(self):
        cfg = GeneratorConfig(p=0.4, steps=300, size_dist=UniformInt(2, 5), seed=31)
        assert int(sum_sizes_trace(cfg)[-1]) == evolve(cfg).total_degree

    def test_token_count_past_int64_raises_like_evolve(self):
        cfg = GeneratorConfig(1.0, 3, Constant(2**63 - 1), enforce_cap=False)
        messages = []
        for run in (sum_sizes_trace, evolve):
            with pytest.raises(ValueError, match="does not fit int64") as err:
                run(cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestGraphBaseline:
    def test_zero_steps_seed_loop(self):
        g = evolve_graph_baseline(1.0, 0)
        assert g.num_vertices == 1
        assert graph_pairs(g).tolist() == [[0, 0]]

    def test_p_one_tree_structure(self):
        t = 500
        g = evolve_graph_baseline(1.0, t, seed=3)
        assert g.num_vertices == t + 1
        assert g.num_edges == t + 1
        assert g.degrees().sum() == 2 * g.num_edges
        for i, e in enumerate(graph_pairs(g)[1:], start=1):
            assert max(e) == i

    def test_determinism(self):
        a = evolve_graph_baseline(0.5, 300, seed=9)
        b = evolve_graph_baseline(0.5, 300, seed=9)
        assert np.array_equal(graph_pairs(a), graph_pairs(b))

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve_graph_baseline(0.0, 10)
        with pytest.raises(ValueError):
            evolve_graph_baseline(0.5, -1)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 20_000])
    @pytest.mark.parametrize("seed", [0, 8, 1234])
    def test_is_projected_two_uniform_process(self, p, steps, seed):
        g = evolve_graph_baseline(p, steps, seed)
        ref = project(evolve(GeneratorConfig(p, steps, Constant(2), y0=2, seed=seed)))
        assert g.num_vertices == ref.num_vertices
        assert np.array_equal(graph_pairs(g), graph_pairs(ref))


def _evolve_peak_per_token(config):
    """evolve's peak traced memory over its token count."""
    h, peak = traced_peak(evolve, config)
    return peak / h.total_degree


def test_evolve_memory():
    """Under 2**31 tokens, evolve holds int32 tokens and offsets (5.33
    bytes per token at const:3) beside one chunk's arrays, and no event bit
    or size per step through the fill; the bound is in bytes per token."""
    config = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    assert _evolve_peak_per_token(config) <= 7


def test_evolve_memory_at_large_edge_sizes():
    """A chunk is a number of slots, not of steps, so its arrays do not grow
    with the edge sizes: 2*10^4 steps of up to 200 slots hold 4.04 bytes
    per token of tokens and offsets, and the chunk's arrays stay within
    about a megabyte beside them."""
    config = GeneratorConfig(p=0.5, steps=20_000, size_dist=UniformInt(2, 200),
                             seed=7, enforce_cap=False)
    assert _evolve_peak_per_token(config) <= 4.75
