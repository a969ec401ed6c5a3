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
distance.  The exponents of all candidate cutoffs come from one lane-wise
bounded Brent search over numpy arrays, each lane taking the same steps as
scipy's fminbound would on its own.  Their KS distances come from a branch
and bound: one batched pass bounds each cutoff's distance from below by its
distance over its first KS_HEAD tail points, and cutoffs are scored in full
in increasing bound order, KS_BATCH at a time, until the next bound exceeds
the best distance so far, so the smallest distance and its first cutoff are
those of a full scan.  A cutoff whose distance is NaN (zeta(beta, k_min)
underflowed to 0) is never chosen.  The Hurwitz zeta is Cephes' sum, the code
scipy.special.zeta runs, done step for step in numpy, so every fit equals
the scipy one bit for bit and the library does not import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, add_at, count_ids, index_dtype, size_classes, spans

__all__ = [
    "DegreeHistogram",
    "FitReport",
    "degree_histogram",
    "edge_size_histogram",
    "project",
    "projected_degrees",
    "ccdf",
    "fit_power_law",
    "analytic_beta",
    "analytic_mk",
]

MIN_TAIL = 10  # refuse power-law fits on smaller tails

# perfbench/tracer.py wraps degrees by this name; ROADMAP item 14 deletes it with the tracer
ObservedGraph = Hypergraph


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
        """The histogram of non-negative integers, with no int64 copy of them."""
        degrees = np.asarray(degrees) if len(degrees) else np.zeros(0, dtype=np.int64)
        if degrees.min(initial=0) < 0:
            raise ValueError(f"degrees must be non-negative, got {degrees.min()}")
        counts = count_ids(degrees, int(degrees.max(initial=0)) + 1)
        values = np.flatnonzero(counts[1:]) + 1
        return cls(values, counts[values].astype(np.int64))

    @property
    def total_vertices(self) -> int:
        return int(self.counts.sum())

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


# ----------------------------------------------------------------------
# histograms and projection


def degree_histogram(structure) -> DegreeHistogram:
    """Histogram of vertex degrees of a Hypergraph, a graph among them."""
    return DegreeHistogram.from_degrees(structure.degrees())


def edge_size_histogram(h: Hypergraph) -> DegreeHistogram:
    """Histogram of hyperedge cardinalities."""
    return DegreeHistogram.from_degrees(np.diff(h.offsets))


def project(h: Hypergraph, simple: bool = False) -> Hypergraph:
    """Clique-expansion graph of a hypergraph, as a Hypergraph of one edge
    per pair: edge i is tokens[2i:2i + 2], its ids in ascending order.

    Every hyperedge of cardinality c contributes one edge per unordered pair
    of its c occurrence positions, i.e. c*(c-1)/2 edges; repeated members
    yield self loops and parallel edges.  Edges come in hyperedge order, and
    within a hyperedge in the order of itertools.combinations.  With
    simple=True duplicate pairs are collapsed and self loops dropped across
    the whole graph, and the edges come sorted; num_vertices stays h's, so
    an id whose every pair was a loop is kept with degree 0.

    Pairs are copied into an (m, 2) array per size class of a piece of
    edges (core.size_classes), between views where the piece has one size.
    The per-edge pair offsets, and the simple graph's keys, are freed
    before the graph's offsets are made.
    """
    first = np.diff(h.offsets, prepend=0).astype(np.int64)  # 0, each size c; int64 for c*c
    np.cumsum(first * (first - 1) // 2, out=first)  # first pair of each edge, then m
    edges = np.empty((int(first[-1]), 2), dtype=h.tokens.dtype)
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
    del first
    if simple:
        n = h.num_vertices
        a, b = edges[edges[:, 0] != edges[:, 1]].T
        keys = _distinct(a.astype(np.int64) * n + b)   # n * n can pass int32
        edges = np.empty((len(keys), 2), dtype=h.tokens.dtype)
        np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
        del keys
    m = len(edges)
    return Hypergraph(h.num_vertices, edges.ravel(),
                      np.arange(0, 2 * m + 1, 2, dtype=index_dtype(2 * m)))


def projected_degrees(h: Hypergraph) -> np.ndarray:
    """project(h).degrees() without the pair array: each occurrence of v in
    an edge of size c adds c - 1 (so a self loop adds 2), per size class of
    a piece of edges (core.size_classes).  The degrees take index_dtype of
    their sum, sum c(c - 1), as project(h).degrees() does."""
    sizes = np.diff(h.offsets)
    # the sum of c * c in int64, with no int64 copy of the sizes
    total = int(np.einsum("i,i->", sizes, sizes, dtype=np.int64)) - h.total_degree
    del sizes                   # not beside the counts
    deg = np.zeros(h.num_vertices, dtype=index_dtype(total))
    for _, _, _, rows in size_classes(h.tokens, h.offsets):
        add_at(deg, rows.ravel(), rows.shape[1] - 1)
    return deg


def ccdf(hist: DegreeHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Tail probabilities P[deg >= k] for k from the smallest to the largest
    present value (dense integer range), as the int64 degrees k and their
    float64 probabilities; non-increasing, starts at 1.0."""
    if not len(hist.values):
        raise ValueError("empty histogram")
    lo, hi = int(hist.values[0]), int(hist.values[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[hist.values - lo] = hist.counts
    remaining = np.cumsum(dense[::-1])[::-1]     # items of value >= k
    return np.arange(lo, hi + 1, dtype=np.int64), remaining / hist.total_vertices


# ----------------------------------------------------------------------
# Hurwitz zeta: Cephes' zeta(x, q), the code scipy.special.zeta runs, in numpy

# (2i + 2)! / B_{2i+2}, the Euler-Maclaurin coefficients, and both sums' stop
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17,
           -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def _zeta(x, q) -> np.ndarray:
    """Hurwitz zeta, the sum over k >= 0 of (q + k)^-x, element-wise for
    x > 1 and integer q >= 1; equal to scipy.special.zeta bit for bit."""
    x, q = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                               np.asarray(q, dtype=np.float64))
    xs, qs = x.ravel(), q.ravel()
    powers = np.float_power(qs[:, None] + np.arange(10.0), -xs[:, None])
    return _zeta_from(xs, qs, powers.ravel(), np.arange(0, powers.size, 10)).reshape(x.shape)


def _zeta_from(x: np.ndarray, q: np.ndarray, powers: np.ndarray,
               first: np.ndarray) -> np.ndarray:
    """Cephes' zeta(x, q), step for step, for lanes of x > 1 and integer
    q >= 1 whose direct-sum terms (q + i)^-x, i = 0..9, are
    powers[first + i] (from np.float_power, which calls libm's pow as
    Cephes does; np.power's SIMD loop does not).

    The direct sum stops at the first term below MACHEP of the sum; else the
    Euler-Maclaurin tail from w = q + 9 adds up to 12 terms, up to the first
    below MACHEP.  q > 1e8 takes Cephes' asymptotic form instead.  Under- and
    overflow are as silent as in C.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = powers[first]
        out = np.empty(len(s))                  # each lane's sum at its stop
        done = np.zeros(len(s), dtype=bool)
        for i in range(1, 10):
            b = powers[first + i]
            s += b
            stop = np.abs(b / s) < _MACHEP
            if stop.any():
                stop &= ~done
                np.copyto(out, s, where=stop)
                done |= stop
        w = q + 9.0
        s += b * w / (x - 1.0)
        s -= 0.5 * b
        a = np.ones(len(s))
        for i, coeff in enumerate(_ZETA_A):
            a *= x + 2 * i
            b /= w
            t = a * b / coeff
            s += t
            t /= s
            stop = np.abs(t, out=t) < _MACHEP
            stop &= ~done
            np.copyto(out, s, where=stop)
            done |= stop
            if done.all():
                break
            b /= w
            a *= x + (2 * i + 1)
        np.copyto(out, s, where=~done)
        big = np.flatnonzero(q > 1e8)
        out[big] = (1 / (x[big] - 1) + 1 / (2 * q[big])) * np.float_power(q[big], 1 - x[big])
    return out


# ----------------------------------------------------------------------
# power-law fitting


def _bounded_min(objective, params: list[np.ndarray], lo: float, hi: float) -> np.ndarray:
    """Minimizers on [lo, hi] of objective(x, *params), one per lane.

    objective maps one point per lane and the lanes' parameter arrays to
    one value per lane.  Every lane takes the floating-point steps of
    fminbound (scipy's bounded minimize_scalar, xatol 1e-9, at most 500
    evaluations): the same golden or parabolic choice, the same points x, w,
    v and the same stop, so each result equals that call bit for bit.  All
    lanes step together as arrays, and a lane leaves the active set, with
    its parameters, once it has converged.
    """
    out = np.empty(len(params[0]))
    idx = np.arange(len(out))
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    sqrt_eps = np.sqrt(2.2e-16)
    a, b = np.full(len(out), lo), np.full(len(out), hi)
    xf = np.full(len(out), lo + golden_mean * (hi - lo))   # x, the best point
    nfc, fulc = xf, xf                                     # w and v
    e = rat = np.zeros(len(out))

    fx = fnfc = ffulc = objective(xf, *params)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + 1e-9 / 3.0
        tol2 = 2.0 * tol1
        done = ~(np.abs(xf - xm) > (tol2 - 0.5 * (b - a))) | (num >= 500)
        if done.any():
            out[idx[done]] = xf[done]
            idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2 = (
                v[~done] for v in (idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc,
                                   e, rat, xm, tol1, tol2))
            params = [v[~done] for v in params]
        if not len(idx):
            return out

        # parabola through x, w, v; taken where it lands inside the bracket
        # and moves less than half the step before last
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        para = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                & (p > q * (a - xf)) & (p < q * (b - xf)))
        step = (p + 0.0) / np.where(para, q, 1.0)       # + 0.0 as fminbound: no -0.0
        x = xf + step
        near = ((x - a) < tol2) | ((b - x) < tol2)     # too close to the bracket
        d = xm - xf
        step = np.where(near, tol1 * (np.sign(d) + (d == 0)), step)
        gold = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(para, rat, gold)
        rat = np.where(para, step, golden_mean * gold)

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = objective(x, *params)
        num += 1

        better = fu <= fx
        a = np.where(better, np.where(x >= xf, xf, a), np.where(x < xf, x, a))
        b = np.where(better, np.where(x >= xf, b, xf), np.where(x < xf, b, x))
        shift = better | (fu <= fnfc) | (nfc == xf)     # v <- w
        to_v = ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc = np.where(shift, nfc, np.where(to_v, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(to_v, fu, ffulc))
        nfc = np.where(better, xf, np.where(shift, x, nfc))
        fnfc = np.where(better, fx, np.where(shift, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)


def _mle_betas(k_min, n, sum_log) -> np.ndarray:
    """Exponents maximizing the discrete power-law likelihood, one per tail:
    lane i minimizes n[i]*ln(zeta(beta, k_min[i])) + beta*sum_log[i], which
    is convex in beta, on [1 + 1e-6, 25] (_bounded_min)."""
    def nll(beta, k, n, sum_log):
        return n * np.log(_zeta(beta, k)) + beta * sum_log
    return _bounded_min(nll, [np.asarray(v, dtype=np.float64) for v in (k_min, n, sum_log)],
                        1.0 + 1e-6, 25.0)


KS_PIECE = 1 << 13      # tail points per piece of _ks_stats, or one whole tail


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending (np.unique would load numpy.ma)."""
    a = np.sort(a, axis=None)
    return a[np.concatenate((a[:1] == a[:1], a[1:] != a[:-1]))]


def _segments(lengths: np.ndarray):
    """Consecutive segments of the given lengths: the segment of each
    element, its place within the segment, and where each segment starts."""
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return seg, np.arange(len(seg)) - starts[seg], starts


def _ks_stats(hist: DegreeHistogram, first: np.ndarray, cuts: np.ndarray,
              n: np.ndarray, betas: np.ndarray, head: int | None = None) -> np.ndarray:
    """KS distance of each lane's fit: lane j fits the tail of values >=
    cuts[j], the values from index first[j] on, holding n[j] items, with
    exponent betas[j].  With head, the distance is taken over the lane's
    first head tail points only: a lower bound of the full distance, bit
    for bit, since every term is the full pass's own.

    The distance is the sup over k >= cuts[j] between the empirical and the
    fitted CDF.  Both are integer step functions, so the supremum is attained
    either at a data value or just before one; evaluating the model CDF on
    each side of every data value covers all integers, including zero-count
    gaps.  So a lane needs zeta(beta, q) at q = t and t + 1 for each tail
    value t, and at q = cut for the denominator; zeta(beta, q) sums the
    powers (q + i)^-beta for i = 0..9.  A lane takes its powers once, over
    its range of one grid (the union of {k..k+10} over the values and cuts
    k) from its cut to its last point's t + 10, evaluates zeta once per q
    from them, and its distances at all its points then come from array
    operations.
    Lanes go in runs of whole lanes of at most KS_PIECE tail points, or of
    one larger lane (core.spans).
    """
    values = hist.values
    cum = np.cumsum(hist.counts)                # items of value <= t
    before = cum - hist.counts                  # items of value < t
    # zeta is taken at each cut (the CDFs' base) and at each t and t + 1
    keys = _distinct(np.concatenate((values, cuts)).astype(np.uint64))    # k + 11 fits
    qs = _distinct(np.concatenate((keys, values.astype(np.uint64) + 1)))
    qi, ci = np.searchsorted(qs, values), np.searchsorted(qs, cuts)
    grid = _distinct(keys[:, None] + np.arange(11, dtype=np.uint64))
    gi = np.searchsorted(grid, qs)              # (q + i)^-beta is at grid[gi + i]
    qs, grid = qs.astype(np.float64), grid.astype(np.float64)
    points = len(values) - first
    if head is not None:
        points = np.minimum(points, head)
    qend = qi[first + points - 1] + 2           # past the last point's t + 1
    gend = gi[qend - 1] + 10                    # past its t + 10
    bounds = np.cumsum(np.concatenate(([0], points)))   # each lane's points
    out = np.empty(len(cuts))
    for j, stop in spans(bounds, KS_PIECE):
        f, q0, x = first[j:stop], ci[j:stop], betas[j:stop]
        g0 = gi[q0]
        # each lane's powers over its grid range, then its zetas at every q
        # of its range, from those powers
        lane, i, gstart = _segments(gend[j:stop] - g0)
        powers = np.float_power(grid[g0[lane] + i], -x[lane])
        lane, i, zstart = _segments(qend[j:stop] - q0)
        at = q0[lane] + i
        z = _zeta_from(x[lane], qs[at], powers, gstart[lane] + gi[at] - g0[lane])
        # then both CDFs at each tail point
        lane, i, pstart = _segments(points[j:stop])
        m = f[lane] + i                         # the value of each tail point
        zm = zstart[lane] + qi[m] - q0[lane]    # z at t; z at t + 1 is next
        denom = z[zstart][lane]                 # zeta(beta, cut)
        nl, low = n[j:stop][lane], before[f][lane]
        dist = np.maximum(np.abs((cum[m] - low) / nl - (1.0 - z[zm + 1] / denom)),
                          np.abs((before[m] - low) / nl - (1.0 - z[zm] / denom)))
        out[j:stop] = np.maximum.reduceat(dist, pstart)
    return out


KS_HEAD = 32    # tail points per lane of the auto scan's bound pass
KS_BATCH = 8    # lanes the auto scan scores in full at a time


def _scanned_ks_stats(hist: DegreeHistogram, first: np.ndarray, cuts: np.ndarray,
                      n: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """_ks_stats of every lane that can hold the smallest distance, by
    branch and bound; inf for the lanes it prunes.

    Each lane's bound is its distance over its first KS_HEAD tail points,
    at most its full distance.  Lanes are scored in full in increasing
    bound order, KS_BATCH at a time, until the next bound exceeds the best
    distance so far: every lane left has a larger distance than the
    smallest, and every lane whose bound ties the best is scored, so the
    first cutoff still wins a tie.  A NaN bound (a NaN distance) sorts
    last and stops nothing: its lane is scored only if the scan reaches it.
    """
    bound = _ks_stats(hist, first, cuts, n, betas, head=KS_HEAD)
    stats = np.full(len(cuts), np.inf)
    order = np.argsort(bound, kind="stable")
    best = np.inf
    for i in range(0, len(order), KS_BATCH):
        if bound[order[i]] > best:
            break
        lanes = order[i:i + KS_BATCH]
        stats[lanes] = _ks_stats(hist, first[lanes], cuts[lanes], n[lanes], betas[lanes])
        best = np.fmin.reduce(stats[lanes], initial=best)
    return stats


def fit_power_law(hist: DegreeHistogram, k_min: int | str = 5) -> FitReport:
    """Discrete MLE power-law fit of the histogram tail.

    k_min is the smallest value included in the fit; pass "auto" to scan the
    present values whose tail holds >= MIN_TAIL items and two or more
    distinct values, and keep the cutoff minimizing the KS distance (the
    first such cutoff on a tie, and never one whose distance is NaN; if all
    are NaN, FitReport refuses the first).  Raises ValueError when fewer
    than 10 items survive the cutoff or when the tail is a single repeated
    value (exponent undefined).  Every cutoff, fixed or scanned, is a lane
    of one table over the histogram: its first index, n from the suffix
    sums of the counts, and its sum of c*ln k as a slice sum.
    """
    if not len(hist.values):
        raise ValueError("empty histogram")
    all_equal = "degrees in tail are all equal; exponent undefined"
    values = hist.values
    n = np.cumsum(hist.counts[::-1])[::-1]      # items of value >= values[i]
    last = len(values) - 1                      # the tail from here holds one value

    if k_min == "auto":     # tails only shrink as the cutoff grows
        first = np.arange(min(int(np.count_nonzero(n >= MIN_TAIL)), last))
        if not len(first):  # the first cutoff keeps every item
            raise ValueError(all_equal if n[0] >= MIN_TAIL else
                             f"tail too small: no cutoff leaves >= {MIN_TAIL} items")
        cuts = values[first]
    else:
        k_min = int(k_min)
        if k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {k_min}")
        first = np.searchsorted(values, [k_min])
        n_tail = int(n[first[0]]) if first[0] <= last else 0
        if n_tail < MIN_TAIL:
            raise ValueError(f"tail too small: {n_tail} items with value >= {k_min}")
        if first[0] == last:
            raise ValueError(all_equal)
        cuts = np.array([k_min])

    terms = hist.counts * np.log(values)
    sum_logs = np.array([terms[i:].sum() for i in first.tolist()])
    ns = n[first]
    # IEEE arithmetic as in C: past zeta's underflow, log(0) is -inf and the
    # CDFs 0/0 are NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        betas = _mle_betas(cuts, ns, sum_logs)
        stats = (_scanned_ks_stats if k_min == "auto" else _ks_stats)(
            hist, first, cuts, ns, betas)
    # the first cutoff on a tie; a NaN distance loses, unless all are NaN
    j = int(np.argmin(np.where(np.isnan(stats), np.inf, stats)))
    return FitReport(float(betas[j]), int(cuts[j]), int(ns[j]), float(stats[j]))


# ----------------------------------------------------------------------
# analytic oracles


def analytic_beta(p: float, mu: float) -> float:
    """Limiting power-law exponent 2 + p/(mu - p) of the evolution process."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not p < mu < np.inf:
        raise ValueError(f"mu must be in (p, inf), got mu={mu}, p={p}")
    return 2.0 + p / (mu - p)


def analytic_mk(p: float, mu: float, kmax: int) -> np.ndarray:
    """Limiting fractions M_1..M_kmax of degree-k vertices per time step.

    M_1 = mu*p/(2*mu - p), then M_k = M_{k-1} * (k-1)/(k + mu/(mu - p)).
    Raises MemoryError for a table too large for memory.
    """
    analytic_beta(p, mu)        # the one check of p and mu
    if not 1 <= kmax < 2**63:
        raise ValueError(f"kmax must be in [1, 2**63), got {kmax}")
    try:
        out = np.empty(kmax, dtype=np.float64)
    except ValueError as e:     # numpy cannot size it: too large for memory
        raise MemoryError(str(e)) from None
    out[0] = mu * p / (2.0 * mu - p)
    if kmax > 1:
        k = np.arange(2, kmax + 1, dtype=np.float64)
        ratios = (k - 1.0) / (k + mu / (mu - p))
        out[1:] = out[0] * np.cumprod(ratios)
    return out
