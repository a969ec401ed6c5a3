"""Tests for the exact oracles of tests/oracles.py: the events read off a
hypergraph, each vertex's degree mean and variance given them, and the law
of the degree vector at a tiny number of steps."""

from collections import Counter, defaultdict
from itertools import product

import numpy as np
import pytest

from pahyper import (Constant, GeneratorConfig, Hypergraph, TruncatedZipf, UniformInt,
                     evolve, generator, ingest_labeled)
from oracles import (arrival_cell_z, arrival_events, capped_size_law, degree_moments,
                     exact_law)


@pytest.mark.parametrize("size_dist", [Constant(3), UniformInt(2, 4)],
                         ids=["const:3", "uniform:2:4"])
def test_means_sum_to_total_degree(size_dist):
    h = evolve(GeneratorConfig(0.5, 10_000, size_dist, seed=5))
    _, mean, _ = degree_moments(h)
    assert mean.sum() == pytest.approx(h.total_degree, rel=1e-12, abs=0)


@pytest.mark.parametrize("config", [
    GeneratorConfig(0.5, 2_000, Constant(3), seed=1),
    GeneratorConfig(0.5, 2_000, TruncatedZipf(2.5, 2, 20), seed=2),
    GeneratorConfig(1.0, 2_000, UniformInt(2, 4), y0=1, seed=3),
    GeneratorConfig(0.05, 2_000, Constant(2), y0=2, seed=4, enforce_cap=False),
], ids=["const:3", "zipf-cap", "uniform-p1", "const:2-nocap"])
def test_events_read_off_the_file_are_the_drawn_ones(config):
    is_vertex = np.random.default_rng(config.seed).random(config.steps) < config.p
    sizes = generator._draw_sizes(config, generator._size_rng(config))
    arrival, got_sizes, before = arrival_events(evolve(config))
    assert np.array_equal(arrival, is_vertex)
    assert np.array_equal(got_sizes, sizes)
    assert np.array_equal(before, config.y0 + np.cumsum(sizes, dtype=np.int64) - sizes)


def _hypergraph(y0: int, steps) -> Hypergraph:
    """A hypergraph with the given seed and (arrival, size) steps; the
    members drawn are all vertex 0, since only the events matter."""
    edges, next_id = [(0,) * y0], 1
    for arrival, size in steps:
        edges.append((next_id,) * arrival + (0,) * (size - arrival))
        next_id += arrival
    return Hypergraph.from_edges(edges)


def _enumerated_moments(y0: int, steps):
    """Mean and variance of every degree over all equally likely draw
    outcomes: each draw of a step is one of the slots before the step."""
    before = np.cumsum([y0] + [size for _, size in steps])[:-1].tolist()
    draws = [range(s) for s, (arrival, size) in zip(before, steps)
             for _ in range(size - arrival)]
    n = 1 + sum(arrival for arrival, _ in steps)
    outcomes = []
    for choice in product(*draws):
        slots, picks, next_id = [0] * y0, iter(choice), 1
        for arrival, size in steps:
            members = [next_id] * arrival + [slots[next(picks)]
                                             for _ in range(size - arrival)]
            slots += members
            next_id += arrival
        outcomes.append(np.bincount(slots, minlength=n))
    degrees = np.array(outcomes, dtype=np.float64)
    return degrees.mean(axis=0), degrees.var(axis=0)


@pytest.mark.parametrize("y0, steps", [
    (3, [(True, 2), (False, 3)]),
    (2, [(True, 2), (False, 2), (True, 3)]),
    (1, [(True, 3), (True, 2), (False, 2)]),
], ids=["y0=3", "y0=2", "y0=1"])
def test_moments_equal_enumeration(y0, steps):
    born, mean, var = degree_moments(_hypergraph(y0, steps))
    want_mean, want_var = _enumerated_moments(y0, steps)
    assert born.tolist() == [0] + [t for t, (arrival, _) in enumerate(steps, 1) if arrival]
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(var, want_var, rtol=1e-12, atol=1e-14)


def _slot_law(p: float, pmf: dict, y0: int, steps: int) -> dict:
    """{degree vector: probability} over every event, size and slot choice:
    a token stream of y0 slots of vertex 0 grows by one block per step, and
    each draw copies one of the slots before its block, each with
    probability 1 / (their number)."""
    law: dict = defaultdict(float)

    def walk(slots, next_id, t, mass):
        if t == steps:
            count = Counter(slots)
            law[tuple(count[v] for v in range(next_id))] += mass
            return
        for (arrival, w), (y, q) in product(((1, p), (0, 1 - p)), pmf.items()):
            if w:
                for choice in product(range(len(slots)), repeat=y - arrival):
                    walk(slots + [next_id] * arrival + [slots[i] for i in choice],
                         next_id + arrival, t + 1, mass * w * q / len(slots) ** len(choice))

    walk([0] * y0, 1, 0, 1.0)
    return law


@pytest.mark.parametrize("steps", [0, 1, 2])
@pytest.mark.parametrize("p, size, pmf, y0", [
    (0.5, Constant(3), {3: 1.0}, 3),
    (0.5, UniformInt(2, 3), {2: 0.5, 3: 0.5}, 3),
    (1.0, UniformInt(2, 3), {2: 0.5, 3: 0.5}, 1),
], ids=["const:3", "uniform:2:3", "uniform-p1-y0=1"])
def test_exact_law_equals_every_slot_choice(p, size, pmf, y0, steps):
    law, want = exact_law(p, size, y0, steps), _slot_law(p, pmf, y0, steps)
    assert law.keys() == want.keys()
    for vector, mass in want.items():
        assert law[vector] == pytest.approx(mass, rel=1e-12, abs=0)
    assert sum(law.values()) == pytest.approx(1.0, rel=0, abs=1e-15)


def test_two_new_ids_in_one_record_rejected(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text("a;b\nc;d\n")
    h, _ = ingest_labeled(str(path))
    with pytest.raises(ValueError, match="edge 1 is not in arrival order"):
        arrival_events(h)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (0, 1, 1)], "edge 0 is not y0 copies of vertex 0"),
    ([(0, 0), (0, 1), (0, 3), (2, 2)], "edge 2 is not in arrival order: .* id 2 once"),
    ([(0, 0), (0, 1, 1)], "edge 1 is not in arrival order: .* id 1 once"),
])
def test_input_not_in_arrival_order_rejected(edges, message):
    with pytest.raises(ValueError, match=message):
        degree_moments(Hypergraph.from_edges(edges))


@pytest.mark.parametrize("config", [
    GeneratorConfig(0.5, 0, Constant(3)),
    GeneratorConfig(0.5, 1, Constant(3), y0=1),
    GeneratorConfig(1.0, 500, Constant(2), y0=1),
    GeneratorConfig(0.01, 500, UniformInt(2, 4)),
], ids=["zero-steps", "one-step", "every-step-arrives", "few-arrivals"])
def test_no_floating_point_warning(config):
    with np.errstate(all="raise"):
        degree_moments(evolve(config))
        z = arrival_cell_z([evolve(config)])
    assert np.isfinite(z).all()


def test_capped_size_law_clamps_the_pmf_at_the_cube_root():
    """capped_size_law clamps each step's size into [2, max(2, c)], c the
    largest integer with c^3 <= t: const:3 has size 2 before step 27."""
    assert capped_size_law(Constant(3), 10_000) == pytest.approx({2: 26e-4, 3: 9974e-4})
    steps, want = 200, Counter()
    for t in range(1, steps + 1):
        cap = max(2, max(c for c in range(1, 7) if c ** 3 <= t))
        for y in range(2, 6):
            want[min(y, cap)] += 0.25 / steps
    assert capped_size_law(UniformInt(2, 5), steps) == pytest.approx(dict(want))
