"""Degree statistics, clique-expansion projection, power-law fitting, and the
analytic degree-distribution oracles.  A histogram is two int64 arrays, the
present values in ascending order and their counts, and every statistic of
it is a numpy expression over them.  The clique expansion fills its edge
array per size class of cache-sized pieces of edges (core.size_classes).

The fitting side follows the standard discrete maximum-likelihood recipe:
for a tail cutoff k_min the exponent maximizes the zeta-normalized
likelihood, and the goodness of fit is the Kolmogorov-Smirnov distance
between the empirical tail CDF and the fitted one.  k_min can be fixed or
chosen automatically by scanning the present degrees for the smallest KS
distance.

The analytic side provides the limiting exponent beta = 2 + p/(mu - p) of
the evolution process and the exact limiting fractions M_k of degree-k
vertices per step, via M_1 = mu*p/(2*mu - p) and the ratio recurrence
M_k / M_{k-1} = (k - 1) / (k + mu/(mu - p)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from .core import Hypergraph, size_classes

__all__ = [
    "DegreeHistogram",
    "FitReport",
    "ObservedGraph",
    "degree_histogram",
    "edge_size_histogram",
    "project",
    "ccdf",
    "fit_power_law",
    "fit_loglog",
    "analytic_beta",
    "analytic_mk",
    "sample_power_law",
]

MIN_TAIL = 10  # refuse power-law fits on smaller tails


@dataclass(frozen=True, eq=False)
class DegreeHistogram:
    """Counts of items per positive integer value (degree or edge size).

    Two int64 arrays: values strictly ascending from >= 1, and counts[i] >= 1
    items of value values[i].  An isolated vertex (value 0) does not appear.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if (self.values.shape != self.counts.shape
                or (np.diff(self.values, prepend=0) < 1).any() or (self.counts < 1).any()):
            raise ValueError("histogram needs ascending values >= 1 and counts >= 1")

    @classmethod
    def from_degrees(cls, degrees) -> "DegreeHistogram":
        counts = np.bincount(degrees)
        values = np.flatnonzero(counts[1:]) + 1
        return cls(values, counts[values])

    @property
    def total_vertices(self) -> int:
        return int(self.counts.sum())

    @property
    def total_degree(self) -> int:
        return int(self.values @ self.counts)

    def restrict(self, min_value: int) -> "DegreeHistogram":
        """Sub-histogram over values >= min_value."""
        i = np.searchsorted(self.values, min_value)
        return DegreeHistogram(self.values[i:], self.counts[i:])

    def items_sorted(self) -> list[tuple[int, int]]:
        return list(zip(self.values.tolist(), self.counts.tolist()))


@dataclass(frozen=True)
class FitReport:
    """Result of a discrete power-law tail fit."""

    beta_hat: float
    k_min: int
    n_tail: int
    ks_stat: float

    def __post_init__(self):
        if self.beta_hat <= 1.0:
            raise ValueError(f"fitted exponent must exceed 1, got {self.beta_hat}")
        if self.n_tail < MIN_TAIL:
            raise ValueError(f"tail too small: {self.n_tail} < {MIN_TAIL}")
        if not (0.0 <= self.ks_stat <= 1.0):
            raise ValueError(f"KS statistic out of range: {self.ks_stat}")


@dataclass(frozen=True, eq=False)
class ObservedGraph:
    """Multigraph (or simplified graph) of unordered vertex-id pairs.

    edges is an (m, 2) int64 array; each row holds a pair with a <= b.
    """

    num_vertices: int
    edges: np.ndarray
    simple: bool = False

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Per-vertex degrees; a self loop contributes 2 to its endpoint."""
        return np.bincount(self.edges.ravel(), minlength=self.num_vertices)

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices


# ----------------------------------------------------------------------
# histograms and projection


def degree_histogram(structure) -> DegreeHistogram:
    """Histogram of vertex degrees of a Hypergraph or ObservedGraph."""
    return DegreeHistogram.from_degrees(structure.degrees())


def edge_size_histogram(h: Hypergraph) -> DegreeHistogram:
    """Histogram of hyperedge cardinalities."""
    return DegreeHistogram.from_degrees(np.diff(h.offsets))


def project(h: Hypergraph, simple: bool = False) -> ObservedGraph:
    """Clique-expansion graph of a hypergraph.

    Every hyperedge of cardinality c contributes one edge per unordered pair
    of its c occurrence positions, i.e. c*(c-1)/2 edges; repeated members
    yield self loops and parallel edges.  Edges come in hyperedge order, and
    within a hyperedge in the order of itertools.combinations.  With
    simple=True duplicate pairs are collapsed and self loops dropped across
    the whole graph, and the edges come sorted.

    Pairs are copied into the (m, 2) edge array per size class of a piece of
    edges (core.size_classes), between views where the piece has one size.
    """
    first = np.diff(h.offsets, prepend=0)   # 0, then the size c of each edge
    np.cumsum(first * (first - 1) // 2, out=first)  # first pair of each edge, then m
    edges = np.empty((int(first[-1]), 2), dtype=np.int64)
    for e0, which, _, rows in size_classes(h.tokens, h.offsets):
        a, b = np.triu_indices(rows.shape[1], 1)    # members sorted, so pairs are too
        if which is None:       # pair k of each edge is cells[:, k]
            cells = edges[first[e0]:first[e0 + len(rows)]].reshape(len(rows), len(a), 2)
            for k, (i, j) in enumerate(zip(a, b)):
                cells[:, k, 0] = rows[:, i]
                cells[:, k, 1] = rows[:, j]
        else:
            dest = first[e0 + which][:, None] + np.arange(len(a))
            edges[dest, 0] = rows[:, a]
            edges[dest, 1] = rows[:, b]
    if simple:
        n = h.num_vertices
        a, b = edges[edges[:, 0] != edges[:, 1]].T
        keys = np.sort(a * n + b)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        edges = np.column_stack((keys // n, keys % n))
    return ObservedGraph(num_vertices=h.num_vertices, edges=edges, simple=simple)


def ccdf(hist: DegreeHistogram) -> list[tuple[int, float]]:
    """Tail probabilities P[deg >= k] for k from the smallest to the largest
    present value (dense integer range); non-increasing, starts at 1.0."""
    if not len(hist.values):
        raise ValueError("empty histogram")
    lo, hi = int(hist.values[0]), int(hist.values[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[hist.values - lo] = hist.counts
    remaining = np.cumsum(dense[::-1])[::-1]     # items of value >= k
    return list(zip(range(lo, hi + 1), (remaining / hist.total_vertices).tolist()))


# ----------------------------------------------------------------------
# power-law fitting


def _tail_stats(hist: DegreeHistogram, k_min: int):
    """Tail arrays at cutoff k_min: (values, counts, n, sum of c*ln k)."""
    mask = hist.values >= k_min
    tk = hist.values[mask]
    tc = hist.counts[mask]
    n = int(tc.sum())
    return tk, tc, n, float((tc * np.log(tk)).sum())


def _mle_beta(k_min: int, n: int, sum_log: float) -> float:
    """Exponent maximizing the discrete power-law likelihood on the tail.

    Minimizes n*ln(zeta(beta, k_min)) + beta*sum_log, which is convex in
    beta, so a bounded scalar search finds the global optimum.
    """
    res = minimize_scalar(
        lambda b: n * np.log(zeta(b, k_min)) + b * sum_log,
        bounds=(1.0 + 1e-6, 25.0), method="bounded",
        options={"xatol": 1e-9},
    )
    return float(res.x)


def _ks_stat(tk: np.ndarray, tc: np.ndarray, n: int, k_min: int, beta: float) -> float:
    """Sup distance between empirical and fitted CDFs over k >= k_min.

    Both CDFs are integer step functions, so the supremum is attained either
    at a data value or just before one; evaluating the model CDF on each side
    of every data value covers all integers, including zero-count gaps.
    """
    denom = zeta(beta, k_min)
    model_at = 1.0 - zeta(beta, tk + 1) / denom      # F(k_i)
    model_before = 1.0 - zeta(beta, tk) / denom      # F(k_i - 1)
    emp = np.cumsum(tc) / n
    emp_prev = np.concatenate(([0.0], emp[:-1]))
    return float(max(np.abs(emp - model_at).max(),
                     np.abs(emp_prev - model_before).max()))


def fit_power_law(hist: DegreeHistogram, k_min: int | str = 5) -> FitReport:
    """Discrete MLE power-law fit of the histogram tail.

    k_min is the smallest value included in the fit; pass "auto" to scan the
    present values and keep the cutoff minimizing the KS distance.  Raises
    ValueError when fewer than 10 items survive the cutoff or when the tail
    is a single repeated value (exponent undefined).
    """
    if not len(hist.values):
        raise ValueError("empty histogram")

    if k_min == "auto":
        best: FitReport | None = None
        for cut in hist.values.tolist():
            tk, tc, n, sum_log = _tail_stats(hist, cut)
            if n < MIN_TAIL:
                break  # tails only shrink as the cutoff grows
            if len(tk) < 2:
                continue
            beta = _mle_beta(cut, n, sum_log)
            stat = _ks_stat(tk, tc, n, cut, beta)
            if best is None or stat < best.ks_stat:
                best = FitReport(beta, cut, n, stat)
        if best is None:
            raise ValueError("tail too small: no cutoff leaves >= 10 items")
        return best

    k_min = int(k_min)
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    tk, tc, n, sum_log = _tail_stats(hist, k_min)
    if n < MIN_TAIL:
        raise ValueError(f"tail too small: {n} items with value >= {k_min}")
    if len(tk) < 2:
        raise ValueError("degrees in tail are all equal; exponent undefined")
    beta = _mle_beta(k_min, n, sum_log)
    return FitReport(beta, k_min, n, _ks_stat(tk, tc, n, k_min, beta))


def fit_loglog(hist: DegreeHistogram, k_min: int = 1) -> float:
    """Least-squares slope fit of ln(count) against ln(k) on the tail.

    Returns the implied exponent (negated slope).  This mirrors the usual
    straight-line-on-a-log-log-plot reading; it is statistically biased and
    provided for comparison with the MLE, not for acceptance checks.
    """
    tail = hist.restrict(k_min)
    if len(tail.values) < 2:
        raise ValueError("need at least two distinct values to fit a line")
    slope = np.polyfit(np.log(tail.values), np.log(tail.counts), 1)[0]
    return float(-slope)


# ----------------------------------------------------------------------
# analytic oracles


def analytic_beta(p: float, mu: float) -> float:
    """Limiting power-law exponent 2 + p/(mu - p) of the evolution process."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if mu <= p:
        raise ValueError(f"exponent undefined: need mu > p, got mu={mu}, p={p}")
    return 2.0 + p / (mu - p)


def analytic_mk(p: float, mu: float, k_max: int) -> np.ndarray:
    """Limiting fractions M_1..M_k_max of degree-k vertices per time step.

    M_1 = mu*p/(2*mu - p), then M_k = M_{k-1} * (k-1)/(k + mu/(mu - p)).
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if mu <= p:
        raise ValueError(f"recurrence undefined: need mu > p, got mu={mu}, p={p}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    out = np.empty(k_max, dtype=np.float64)
    out[0] = mu * p / (2.0 * mu - p)
    if k_max > 1:
        k = np.arange(2, k_max + 1, dtype=np.float64)
        ratios = (k - 1.0) / (k + mu / (mu - p))
        out[1:] = out[0] * np.cumprod(ratios)
    return out


# ----------------------------------------------------------------------
# synthetic sampling (oracle for fit recovery, corpus generation)


def sample_power_law(beta: float, k_min: int, size: int,
                     rng: np.random.Generator, table_max: int = 1_000_000) -> np.ndarray:
    """Exact draws from the discrete power law P(K=k) ~ k^-beta, k >= k_min.

    Inverse-CDF sampling over a precomputed table; the probability mass
    beyond table_max (zeta tail, ~1e-7 of the total at the defaults) is
    clamped to table_max.
    """
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if table_max < k_min:
        raise ValueError(f"table_max must be >= k_min, got {table_max} < {k_min}")
    k = np.arange(k_min, table_max + 1, dtype=np.float64)
    w = k ** -beta
    total = w.sum() + zeta(beta, table_max + 1)
    cdf = np.cumsum(w) / total
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    return (k_min + np.minimum(idx, table_max - k_min)).astype(np.int64)
