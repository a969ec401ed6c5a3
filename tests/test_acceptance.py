"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  Fits of
hypergraph degree distributions use the k_min=5 default; the two graph-side
criteria (baseline process and clique-expansion projection) use k_min=20,
calibrated from the exact M_k recurrence: projected multigraph degrees live
on a lattice of spacing d-1 and the baseline's M_k sequence converges slowly,
so at k_min=5 both fits are provably biased below their target windows, while
at k_min=20 the predicted estimates (2.94 and 2.49 at these run lengths) sit
inside them with stable tails.
"""

import time
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from scipy import stats

import pahyper as ph
from reference import EdgeList

STEPS = 100_000


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _hyper_beta(p: float, size_dist, seed: int, k_min) -> float:
    cfg = ph.GeneratorConfig(p=p, steps=STEPS, size_dist=size_dist,
                             y0=3, seed=seed)
    hist = ph.degree_histogram(ph.evolve(cfg))
    return ph.fit_power_law(hist, k_min).beta_hat


@pytest.fixture(scope="module")
def baseline_betas():
    """Criterion 3's per-seed estimates, shared with criterion 4's pairing."""
    return [ph.fit_power_law(
        ph.degree_histogram(ph.evolve_graph_baseline(1.0, STEPS, seed=1200 + s)),
        20).beta_hat for s in range(10)]


def test_criterion_01_exponent_formula_hypergraph():
    start = time.time()
    details = []
    ok = True
    for p, d in [(1.0, 3), (0.5, 3), (1.0, 4)]:
        target = ph.analytic_beta(p, d)
        mean = np.mean([_hyper_beta(p, ph.Constant(d), 1000 + s, 5)
                        for s in range(10)])
        ok &= abs(mean - target) <= 0.15
        details.append(f"(p={p},d={d}): {mean:.3f} vs {target:.3f}")
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    _report(1, "exponent formula (hypergraph)", ok,
            "; ".join(details) + f"; runtime {elapsed:.1f}s < 30s")


def test_criterion_02_random_sizes():
    mean = np.mean([_hyper_beta(0.5, ph.UniformInt(2, 4), 1100 + s, 5)
                    for s in range(10)])
    _report(2, "random edge sizes", abs(mean - 2.2) <= 0.15,
            f"mean beta_hat {mean:.3f} vs 2.2 +- 0.15")


def test_criterion_03_baseline_graph(baseline_betas):
    mean = np.mean(baseline_betas)
    _report(3, "baseline graph exponent", abs(mean - 3.0) <= 0.15,
            f"mean beta_hat {mean:.3f} vs 3.0 +- 0.15")


def test_criterion_04_observed_graph_exponent(baseline_betas):
    proj = []
    for s in range(10):
        cfg = ph.GeneratorConfig(p=1.0, steps=STEPS, size_dist=ph.Constant(3),
                                 y0=3, seed=1200 + s)
        hist = ph.degree_histogram(ph.project(ph.evolve(cfg)))
        proj.append(ph.fit_power_law(hist, 20).beta_hat)
    mean = np.mean(proj)
    wins = sum(a < b for a, b in zip(proj, baseline_betas))
    ok = abs(mean - 2.5) <= 0.15 and wins >= 9
    _report(4, "observed-graph exponent below baseline", ok,
            f"mean beta_hat {mean:.3f} vs 2.5 +- 0.15; lower in {wins}/10 pairs")


def test_criterion_05_mk_oracle_vs_simulation():
    acc = np.zeros(10)
    for s in range(20):
        cfg = ph.GeneratorConfig(p=0.5, steps=STEPS, size_dist=ph.Constant(3),
                                 y0=3, seed=1300 + s)
        degs = ph.evolve(cfg).degrees()
        acc += np.bincount(degs, minlength=11)[1:11] / STEPS
    acc /= 20
    mk = ph.analytic_mk(0.5, 3.0, 10)
    rel = np.abs(acc - mk) / mk
    spot = abs(mk[0] - 3 / 11) < 1e-15
    ok = rel.max() <= 0.15 and spot
    _report(5, "M_k recurrence vs simulation", ok,
            f"max rel err k=1..10: {rel.max():.3f} <= 0.15; M_1={mk[0]:.6f}=3/11 {spot}")


def test_criterion_06_mk_closed_form():
    m = ph.analytic_mk(1.0, 2.0, 100)
    k = np.arange(1, 101, dtype=np.float64)
    closed = 4.0 / (k * (k + 1) * (k + 2))
    rel = np.abs(m - closed) / closed
    _report(6, "M_k closed-form cross-check", rel.max() < 1e-12,
            f"max rel diff {rel.max():.2e} < 1e-12 for k <= 100")


def test_criterion_07_concentration():
    t = 10_000
    bound = t ** (2 / 3) * np.sqrt(2 * np.log(t))
    hits = 0
    for s in range(100):
        cfg = ph.GeneratorConfig(p=0.5, steps=t, size_dist=ph.UniformInt(2, 4),
                                 y0=3, seed=1400 + s)
        s_final = int(ph.sum_sizes_trace(cfg)[-1])
        hits += abs(s_final - 3 * t) <= bound
    _report(7, "total-size concentration", hits >= 99,
            f"{hits}/100 runs within bound {bound:.0f}")


def test_criterion_08_sampler_proportionality():
    h = ph.Hypergraph.from_edges([(0, 1, 2), (1, 2, 3, 4), (2, 4, 4), (0, 3)])
    brute = Counter(chain.from_iterable(h.hyperedges))
    expected_prop = np.array([brute[v] for v in range(5)], dtype=float)
    expected_prop /= expected_prop.sum()
    draws = h.sample_preferential(np.random.default_rng(99), size=1_000_000)
    observed = np.bincount(draws, minlength=5)
    pvalue = stats.chisquare(observed, expected_prop * 1_000_000).pvalue
    _report(8, "preferential sampler proportionality", pvalue > 0.001,
            f"chi-square p={pvalue:.4f} > 0.001 on 1e6 draws")


def test_criterion_09_fit_recovery():
    details = []
    ok = True
    for beta in (2.2, 2.5, 3.0, 4.66):
        rng = np.random.default_rng(int(beta * 100))
        sample = ph.sample_power_law(beta, 3, 100_000, rng)
        est = ph.fit_power_law(ph.DegreeHistogram.from_degrees(sample), 3).beta_hat
        ok &= abs(est - beta) <= 0.05
        details.append(f"{beta}->{est:.3f}")
    _report(9, "synthetic fit recovery", ok, "; ".join(details) + " (+-0.05)")


def test_criterion_10_projection_identity():
    rng = np.random.default_rng(1500)
    checked = 0
    for trial in range(100):
        d = [2, 3, 5][trial % 3]
        nv = int(rng.integers(d, 40))
        edges = EdgeList(nv)
        for _ in range(int(rng.integers(5, 80))):
            edges.add_hyperedge(rng.choice(nv, size=d, replace=False))
        h = edges.freeze()
        g = ph.project(h)
        assert np.array_equal(g.degrees(), (d - 1) * h.degrees())
        checked += 1
    _report(10, "projection degree identity", checked == 100,
            f"deg_G == (d-1) deg_H exactly on {checked}/100 instances")


def test_criterion_11_round_trip_and_determinism(tmp_path):
    rng = np.random.default_rng(1600)
    path = tmp_path / "h.txt"
    round_trips = 0
    for trial in range(100):
        cfg = ph.GeneratorConfig(
            p=float(rng.uniform(0.05, 1.0)),
            steps=int(rng.integers(0, 150)),
            size_dist=ph.UniformInt(2, int(rng.integers(2, 7))),
            y0=int(rng.integers(1, 5)),
            seed=int(rng.integers(1 << 48)))
        h = ph.evolve(cfg)
        ph.write_hypergraph(h, str(path))
        round_trips += ph.read_hypergraph(str(path)) == h

    cfg = ph.GeneratorConfig(p=0.6, steps=5_000, size_dist=ph.UniformInt(2, 4),
                             y0=3, seed=77)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    ph.write_hypergraph(ph.evolve(cfg), str(a))
    ph.write_hypergraph(ph.evolve(cfg), str(b))
    deterministic = a.read_bytes() == b.read_bytes() and ph.evolve(cfg) == ph.evolve(cfg)
    ok = round_trips == 100 and deterministic
    _report(11, "round-trip and determinism", ok,
            f"{round_trips}/100 round-trips exact; equal-seed regeneration "
            f"byte-identical: {deterministic}")
