"""Exact oracles read off a hypergraph, and the acceptance statistics built
on them.  No command runs these; the tests do.

Given a run's event bits and edge sizes, its member draws are the only
randomness left: step t makes m_t = Y_t - 1{arrival} draws, each landing on
vertex v with probability d_v / S_{t-1}, where S_{t-1} is the total degree
before the step.  So d' = d + Binomial(m_t, d / S_{t-1}) at each step, and

    E[d' | d] = d a_t,         a_t = 1 + m_t / S_{t-1},
    E[d'^2 | d] = d^2 c_t + d e_t,
                               c_t = 1 + 2 m_t / S_{t-1} + m_t (m_t - 1) / S_{t-1}^2,
                               e_t = m_t / S_{t-1}.

With A and C the prefix products of a and c, and G_t the prefix sum of
e_u A_{u-1} / C_u, a vertex born at step b with degree d_b (1, or y0 for
vertex 0 at step 0) has, after step T,

    E[d] = d_b A_T / A_b,
    Var[d] = d_b^2 (C_T / C_b - (A_T / A_b)^2) + d_b C_T / A_b (G_T - G_b).

d(t) A_b / A_t is Móri's martingale (Combin. Probab. Comput. 14, 2005).

Those means cannot see a draw that lands on its own step's block, which is
O(m_t / S_{t-1}) per step.  At a tiny T it is O(1), and the law of the
whole process is small enough to enumerate: exact_law walks every degree
vector step by step, and criterion_13 tests evolve's runs against it.
"""

from collections import Counter, defaultdict
from itertools import product
from math import prod
from statistics import NormalDist

import numpy as np
from scipy import stats

from pahyper import Constant, GeneratorConfig, Hypergraph, TruncatedZipf, UniformInt, evolve

# criterion 12's runs and family level, fixed so that the criterion and its
# mutant rows (tests/test_mutants.py) test the same statistic
STEPS = 10_000
SEEDS = range(1700, 1740)
LEVEL = 0.001

# criterion 13's runs, at p=0.5 with y0 = 3 and no cap; its level is LEVEL
LAW_STEPS = 3
LAW_SEEDS = range(13_000, 17_000)


def arrival_events(h: Hypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arrival, sizes, before) for steps t = 1..T of h, edge t being step
    t: whether step t brought a new vertex (its edge's largest id exceeds
    every earlier id), the size of edge t, and S_{t-1}, the total degree
    before it.

    Raises ValueError unless h is in arrival order: each later edge brings
    no new id or the next one, once, and edge 0 is y0 copies of vertex 0.
    """
    offsets = h.offsets.astype(np.int64)
    top = h.tokens[offsets[1:] - 1].astype(np.int64)   # members are sorted
    seen = np.maximum.accumulate(top)
    new = top[1:] - seen[:-1]                           # 1 at an arrival
    bad = (new > 1) | ((new == 1) & (h.tokens[offsets[2:] - 2] == top[1:]))
    if bad.any():
        t = int(bad.argmax()) + 1
        raise ValueError(f"edge {t} is not in arrival order: it must bring "
                         f"no new id or id {seen[t - 1] + 1} once")
    if not h.num_edges or h.tokens[:offsets[1]].any():
        raise ValueError("edge 0 is not y0 copies of vertex 0")
    return new == 1, np.diff(offsets)[1:], offsets[1:-1]


def degree_moments(h: Hypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(born, mean, var) indexed by vertex id: each vertex's arrival step
    and the exact mean and variance of its degree after the last step of
    h, given h's arrival bits and sizes (arrival_events)."""
    arrival, sizes, before = arrival_events(h)
    m = sizes - arrival
    e = m / before
    a = np.cumprod(np.concatenate(([1.0], 1.0 + e)))
    c = np.cumprod(np.concatenate(([1.0], 1.0 + e * (2.0 + (m - 1) / before))))
    g = np.cumsum(np.concatenate(([0.0], e * a[:-1] / c[1:])))
    born = np.concatenate(([0], np.flatnonzero(arrival) + 1))
    d = np.ones(len(born))
    d[0] = h.offsets[1]                                 # y0
    growth = a[-1] / a[born]
    var = d * (d * (c[-1] / c[born] - growth**2) + c[-1] / a[born] * (g[-1] - g[born]))
    return born, d * growth, var


def arrival_cell_z(hypergraphs) -> np.ndarray:
    """One z per cell of vertices grouped by log2 of their arrival step,
    pooled over the hypergraphs: sum (d - E[d]) / sqrt(sum Var[d]).

    Cell 0 holds vertex 0 and cell k the vertices born at steps
    2^(k-1)..2^k - 1.  Covariances are ignored.  Cells of zero variance,
    where every degree is fixed, are left out."""
    dev, var = np.zeros(64), np.zeros(64)
    for h in hypergraphs:
        born, mean, v = degree_moments(h)
        cell = np.frexp(born)[1]                        # bit length, 0 at 0
        dev += np.bincount(cell, weights=h.degrees() - mean, minlength=64)
        var += np.bincount(cell, weights=v, minlength=64)
    keep = var > 0
    return dev[keep] / np.sqrt(var[keep])


def bonferroni_bound(cells: int) -> float:
    """The two-sided normal bound on max |z| over cells z-scores at family
    level LEVEL."""
    return NormalDist().inv_cdf(1.0 - LEVEL / (2 * cells))


def criterion_12(size_dist) -> tuple[float, int, float]:
    """Criterion 12's statistic on evolve at p=0.5 with the cap on: max |z|
    of arrival_cell_z over one run of STEPS steps per seed in SEEDS, the
    number of cells, and their Bonferroni bound."""
    z = arrival_cell_z(evolve(GeneratorConfig(0.5, STEPS, size_dist, seed=s))
                       for s in SEEDS)
    return float(np.abs(z).max()), len(z), bonferroni_bound(len(z))


def size_pmf(size) -> dict[int, float]:
    """{y: P(Y = y)} of a Constant, UniformInt or TruncatedZipf edge-size
    distribution, from its definition: the Zipf weights are y^-exponent
    on [lo, hi], normalized."""
    if isinstance(size, Constant):
        return {size.d: 1.0}
    if isinstance(size, UniformInt):
        return dict.fromkeys(range(size.lo, size.hi + 1), 1.0 / (size.hi - size.lo + 1))
    if isinstance(size, TruncatedZipf):
        weights = {y: y ** -size.exponent for y in range(size.lo, size.hi + 1)}
        total = sum(weights.values())
        return {y: w / total for y, w in weights.items()}
    raise TypeError(f"no pmf for {size!r}")


def exact_law(p: float, size, y0: int, steps: int) -> dict[tuple[int, ...], float]:
    """{degree vector: probability} after steps steps of evolve with no
    cap, each vector indexed by vertex id and every probability positive.

    The walk starts from (y0,).  Each step draws its size Y from size's
    pmf; with probability p it appends a vertex of degree 1 and makes Y - 1
    draws, else Y draws; each draw picks vertex i with probability d_i / S,
    with repetition, from the degrees d before the step, S their sum.
    Equal vectors add their probabilities."""
    law, pmf = {(y0,): 1.0}, size_pmf(size)
    for _ in range(steps):
        after: dict[tuple[int, ...], float] = defaultdict(float)
        for d, mass in law.items():
            total = sum(d)
            for (y, q), (arrival, w) in product(pmf.items(), ((1, p), (0, 1.0 - p))):
                if not w:
                    continue
                for picks in product(range(len(d)), repeat=y - arrival):
                    hits = Counter(picks)
                    grown = tuple(k + hits[i] for i, k in enumerate(d)) + (1,) * arrival
                    after[grown] += mass * q * w * prod(d[i] for i in picks) / total ** len(picks)
        law = dict(after)
    return law


def law_chi_square(vectors, law: dict[tuple[int, ...], float]) -> tuple[float, int]:
    """(Pearson's chi-square, cells) of observed degree vectors against
    law, the cells whose expected count is below 5 pooled into one; inf if
    a vector has probability 0 under law."""
    observed = Counter(vectors)
    runs = sum(observed.values())
    expected = {v: runs * mass for v, mass in law.items()}
    small = [v for v, e in expected.items() if e < 5]
    cells = [(observed[v], e) for v, e in expected.items() if e >= 5]
    if small:
        cells.append((sum(observed[v] for v in small), sum(expected[v] for v in small)))
    if not observed.keys() <= law.keys():
        return float("inf"), len(cells)
    return sum((o - e) ** 2 / e for o, e in cells), len(cells)


def criterion_13(size_dist) -> tuple[float, int, float]:
    """Criterion 13's statistic on evolve at p=0.5, y0 = 3 and no cap:
    law_chi_square of the degree vectors after LAW_STEPS steps, one run per
    seed in LAW_SEEDS, against exact_law; the number of cells; and the
    chi-square bound at level LEVEL."""
    law = exact_law(0.5, size_dist, 3, LAW_STEPS)
    vectors = (tuple(evolve(GeneratorConfig(0.5, LAW_STEPS, size_dist, seed=s,
                                            enforce_cap=False)).degrees().tolist())
               for s in LAW_SEEDS)
    chi2, cells = law_chi_square(vectors, law)
    return chi2, cells, float(stats.chi2.isf(LEVEL, cells - 1))


def capped_size_law(size, steps: int) -> dict[int, float]:
    """{y: the expected share of steps 1..steps whose edge has size y}
    under the default cap: step t's size is Y (size_pmf) clamped into
    [2, max(2, c)], c the integer cube root of t, found exactly."""
    t = np.arange(1, steps + 1)
    c = np.floor(np.cbrt(t)).astype(np.int64)
    c += (c + 1) ** 3 <= t                      # no floating-point floor error
    c -= c ** 3 > t
    law: dict[int, float] = defaultdict(float)
    pmf = size_pmf(size)
    for cap, count in zip(*np.unique(np.maximum(c, 2), return_counts=True)):
        for y, q in pmf.items():
            law[min(y, int(cap))] += q * int(count) / steps
    return dict(law)


def criterion_14(size_dist) -> tuple[tuple[float, int, float], tuple[float, int, float]]:
    """Criterion 14's two statistics on criterion 12's runs (p=0.5, cap
    on), the arrival bits and sizes that criteria 12 and 13 condition on,
    each as (value, cells, bound) at level LEVEL / 2:

    - the arrivals' distance from their mean under
      Binomial(STEPS * len(SEEDS), 0.5), and the half-width of its central
      interval;
    - law_chi_square of the sizes against capped_size_law, and the
      chi-square bound."""
    arrivals, sizes = 0, Counter()
    for s in SEEDS:
        arrival, size, _ = arrival_events(evolve(GeneratorConfig(0.5, STEPS, size_dist, seed=s)))
        arrivals += int(arrival.sum())
        sizes.update(dict(enumerate(np.bincount(size).tolist())))
    n = STEPS * len(SEEDS)
    lo, hi = stats.binom.interval(1.0 - LEVEL / 2, n, 0.5)
    chi2, cells = law_chi_square(+sizes, capped_size_law(size_dist, STEPS))
    return ((abs(arrivals - n / 2), 1, float(max(hi - n / 2, n / 2 - lo))),
            (chi2, cells, float(stats.chi2.isf(LEVEL / 2, cells - 1))))
