"""Naive reference code the tests compare the library against.

EdgeList is a growing list-of-tuples hypergraph with per-edge validation;
reference_evolve runs the evolution process one step at a time on it;
reference_from_edges checks an edge list with a set of its ids;
reference_read reads a hypergraph file's bytes by the format's grammar, one
regular expression per rule; reference_rows formats the hypergraph line
format with Python's % operator; graph_pairs and pair_graph turn a graph,
a Hypergraph of one pair per edge, into an (m, 2) array and back;
histogram builds a DegreeHistogram from a {value: count} dict,
reference_ccdf walks its tail one value at a time, and reference_ccdf_csv
and reference_histogram_csv format every row of a CCDF and of a histogram
with an f-string; reference_tail masks one
cutoff's tail out of a histogram, reference_mle_beta runs scipy's bounded
minimize_scalar on one tail, reference_ks_stat takes one tail's KS distance
with scipy's zeta, and reference_fit_power_law fits one cutoff at a time
with all three; cephes_zeta is Cephes' Hurwitz zeta on Python
floats, which also tells where its sums stopped; reference_size_classes
groups each piece's edges by a bincount of its sizes.

Two samplers that no command runs feed the tests: sample_power_law draws
from a discrete power law (criterion 9 and the fit tests), and
sample_preferential draws vertices in proportion to degree (criterion 8).
"""

import math
import re

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from pahyper import DegreeHistogram, FitReport, Hypergraph
from pahyper.analysis import MIN_TAIL


class EdgeList:
    """Growing multiset hypergraph kept as a list of sorted tuples."""

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self.num_vertices = num_vertices
        self.hyperedges: list[tuple[int, ...]] = []

    @classmethod
    def initial(cls, y0: int) -> "EdgeList":
        """Seed hypergraph: one vertex carrying a single self-loop hyperedge
        of cardinality y0, so deg(0) = y0."""
        h = cls(1)
        h.add_hyperedge((0,) * y0)
        return h

    def add_hyperedge(self, members, new_vertex: bool = False) -> None:
        """Append one hyperedge.

        With new_vertex=True the edge must contain the next unassigned id
        (== num_vertices) exactly once; the vertex is allocated as part of
        the append.  All other ids must already exist.
        """
        edge = tuple(sorted(int(v) for v in members))
        if not edge:
            raise ValueError("hyperedge must contain at least one vertex")
        if edge[0] < 0:
            raise ValueError(f"invalid vertex id {edge[0]}")
        if new_vertex:
            fresh = self.num_vertices
            if edge.count(fresh) != 1:
                raise ValueError(
                    f"new-vertex edge must contain id {fresh} exactly once")
            if edge[-1] > fresh:
                raise ValueError(f"vertex id {edge[-1]} out of range")
        elif edge[-1] >= self.num_vertices:
            raise ValueError(
                f"vertex id {edge[-1]} out of range (num_vertices={self.num_vertices})")
        self.hyperedges.append(edge)
        if new_vertex:
            self.num_vertices += 1

    def freeze(self) -> Hypergraph:
        """The library's array form of the same hypergraph."""
        tokens = np.array([v for e in self.hyperedges for v in e], dtype=np.int64)
        offsets = np.cumsum([0] + [len(e) for e in self.hyperedges], dtype=np.int64)
        return Hypergraph(self.num_vertices, tokens, offsets)


def reference_evolve(config) -> Hypergraph:
    """evolve(config), one step at a time.

    Draws the event bits, then the sizes, then per step the non-source
    slots, each uniform over the token slots (in arrival order, members
    unsorted) as they stood at the end of the previous step.
    """
    h = EdgeList.initial(config.y0)
    slots = [0] * config.y0
    rng = np.random.default_rng(config.seed)
    if config.steps:
        is_vertex = rng.random(config.steps) < config.p
        sizes = config.size_dist.sample(rng, config.steps)
        for t in range(1, config.steps + 1):
            size = int(sizes[t - 1])
            if config.enforce_cap:
                cap = max(2, math.floor(t ** config.cap_exponent + 1e-9))
                size = min(max(size, 2), cap)
            new = [h.num_vertices] if is_vertex[t - 1] else []
            drawn = rng.integers(0, len(slots), size=size - len(new))
            members = new + [slots[i] for i in drawn]
            h.add_hyperedge(members, new_vertex=bool(new))
            slots += members
    return h.freeze()


def sample_preferential(h: Hypergraph, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size vertices of h, each with probability deg(v) / total_degree."""
    if not len(h.tokens):
        raise ValueError("cannot sample from a hypergraph with total degree 0")
    return h.tokens[rng.integers(0, len(h.tokens), size=size)]


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


def reference_from_edges(edges) -> Hypergraph:
    """Hypergraph.from_edges with a per-edge sort, a set of the ids and a
    search for the smallest id the set lacks."""
    rows: list[list[int]] = []
    for e in edges:
        members = sorted(int(v) for v in e)
        if not members:
            raise ValueError("empty hyperedge")
        if members[0] < 0:
            raise ValueError(f"invalid vertex id {members[0]}")
        rows.append(members)
    flat = [v for row in rows for v in row]
    seen = set(flat)
    # the smallest missing id, if any, is below the number of distinct ids
    missing = next((i for i in range(len(seen)) if i not in seen), None)
    if missing is not None:
        raise ValueError(f"vertex id gap: id {missing} never appears")
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return Hypergraph(len(seen), np.array(flat, dtype=np.int64), offsets)


def reference_read(data: bytes) -> Hypergraph:
    """The hypergraph of a hypergraph file's bytes, or the reader's
    ValueError: the first bad line's, else reference_from_edges's.

    Lines end at b"\n", and one b"\r" just before it is dropped.  A line
    whose first byte other than a space or tab is b"#" is a comment; every
    other line holds one or more ids of 1-18 ASCII digits between spaces
    or tabs."""
    lines = re.split(rb"\r?\n", data)
    if lines[-1] == b"":
        lines.pop()     # the end of the last line, or an empty file
    edges = []
    for lineno, line in enumerate(lines, start=1):
        if re.match(rb"[ \t]*#", line):
            continue
        fields = re.findall(rb"[^ \t]+", line)
        if not fields:
            raise ValueError(f"line {lineno}: empty hyperedge")
        for field in fields:
            if re.fullmatch(rb"[0-9]{19,}", field):
                raise ValueError(f"line {lineno}: vertex id {field.decode()} "
                                 f"has more than 18 digits")
            if re.fullmatch(rb"-[0-9]+", field):
                raise ValueError(f"line {lineno}: negative vertex id {field.decode()}")
            if not re.fullmatch(rb"[0-9]+", field):
                # the field as a bytes literal, without its b prefix
                raise ValueError(f"line {lineno}: non-integer token {repr(field)[1:]}")
        edges.append([int(field) for field in fields])
    return reference_from_edges(edges)


def reference_rows(tokens: np.ndarray, offsets: np.ndarray) -> str:
    """The lines write_hypergraph writes: one "%d %d ..." template per edge,
    filled with every token at once."""
    sizes = np.diff(offsets).tolist()
    line = {s: " ".join(["%d"] * s) + "\n" for s in set(sizes)}
    return "".join([line[s] for s in sizes]) % tuple(tokens.tolist())


def graph_pairs(g: Hypergraph) -> np.ndarray:
    """A graph's edges as an (m, 2) array, one row per edge; the graph must
    hold one pair per edge."""
    assert np.array_equal(g.offsets, np.arange(0, g.total_degree + 1, 2))
    return g.tokens.reshape(-1, 2)


def pair_graph(num_vertices: int, pairs: np.ndarray) -> Hypergraph:
    """The graph of an (m, 2) array of sorted pairs: one edge per row."""
    return Hypergraph(num_vertices, pairs.ravel(), np.arange(0, pairs.size + 1, 2))


def reference_size_classes(tokens: np.ndarray, offsets: np.ndarray, piece: int):
    """core.size_classes by a bincount of the sizes of every piece of piece
    edges: (e0, which, slots, rows) per size s >= 2 that the piece holds,
    rows a view of tokens (which and slots None) when all its edges have
    size s, else the copy of their members at their token positions."""
    for e0 in range(0, len(offsets) - 1, piece):
        bounds = offsets[e0:e0 + piece + 1]
        sizes = np.diff(bounds)
        counts = np.bincount(sizes)
        for s in range(2, len(counts)):
            if counts[s] == len(sizes):
                yield e0, None, None, tokens[bounds[0]:bounds[-1]].reshape(-1, s)
            elif counts[s]:
                which = np.flatnonzero(sizes == s)
                slots = bounds[which][:, None] + np.arange(s)
                yield e0, which, slots, tokens[slots]


def histogram(counts: dict[int, int]) -> DegreeHistogram:
    """The DegreeHistogram of a {value: count} dict, keys in any order."""
    items = sorted(counts.items())
    return DegreeHistogram(np.array([k for k, _ in items], dtype=np.int64),
                           np.array([c for _, c in items], dtype=np.int64))


def reference_ccdf(hist: DegreeHistogram) -> list[tuple[int, float]]:
    """ccdf(hist), one value of the dense degree range at a time."""
    counts = dict(hist.items_sorted())
    if not counts:
        raise ValueError("empty histogram")
    total = sum(counts.values())
    out = []
    remaining = total
    for k in range(min(counts), max(counts) + 1):
        out.append((k, remaining / total))
        remaining -= counts.get(k, 0)
    return out


def reference_ccdf_csv(pairs) -> bytes:
    """The bytes write_ccdf_csv writes: one f-string per row."""
    rows = (f"{k},{prob:.10g}\n" for k, prob in pairs)
    return ("degree,ccdf\n" + "".join(rows)).encode()


def reference_histogram_csv(pairs) -> bytes:
    """The bytes write_histogram_csv writes of (degree, count) pairs in
    ascending order: one f-string per row."""
    rows = (f"{k},{c}\n" for k, c in pairs)
    return ("degree,count\n" + "".join(rows)).encode()


CEPHES_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
                 7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
                 -4.5979787224074726105e15, 1.8152105401943546773e17,
                 -7.1661652561756670113e18)


def cephes_zeta(x: float, q: float) -> tuple[float, str, int]:
    """Cephes' zeta(x, q) for x > 1 and q >= 1, one float operation at a
    time as in its C source, with where it stopped: ("asymptotic", 0) for
    q > 1e8, ("direct", i) after the direct sum's term (q + i)^-x,
    ("euler-maclaurin", i) after the Euler-Maclaurin term i, or
    ("euler-maclaurin", 12) when no term stopped it."""
    machep = 1.11022302462515654042e-16
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x), "asymptotic", 0
    s = math.pow(q, -x)
    a = q
    for i in range(1, 10):
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < machep:
            return s, "direct", i
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for i, coeff in enumerate(CEPHES_ZETA_A):
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if abs(t / s) < machep:
            return s, "euler-maclaurin", i
        k += 1.0
        b /= w
        a *= x + k
        k += 1.0
    return s, "euler-maclaurin", 12


def reference_mle_beta(k_min: int, n: int, sum_log: float) -> float:
    """The discrete power-law MLE exponent of one tail, by scipy's bounded
    Brent search (fminbound) on n*ln(zeta(beta, k_min)) + beta*sum_log."""
    res = minimize_scalar(
        lambda b: n * np.log(zeta(b, k_min)) + b * sum_log,
        bounds=(1.0 + 1e-6, 25.0), method="bounded",
        options={"xatol": 1e-9},
    )
    return float(res.x)


def reference_ks_stat(tk: np.ndarray, tc: np.ndarray, n: int, k_min: int,
                      beta: float) -> float:
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


def reference_tail(hist: DegreeHistogram, k_min: int):
    """Tail at cutoff k_min, by a mask over every value: (its values, their
    counts, n, sum of c*ln k)."""
    mask = hist.values >= k_min
    tk = hist.values[mask]
    tc = hist.counts[mask]
    return tk, tc, int(tc.sum()), float((tc * np.log(tk)).sum())


def reference_fit_power_law(hist: DegreeHistogram, k_min: int | str = 5) -> FitReport:
    """fit_power_law with one reference_mle_beta call per cutoff, keeping
    the first cutoff of smallest KS distance in "auto" mode."""
    if not len(hist.values):
        raise ValueError("empty histogram")
    all_equal = "degrees in tail are all equal; exponent undefined"
    if k_min == "auto":
        best = None
        for cut in hist.values.tolist():
            tk, tc, n, sum_log = reference_tail(hist, cut)
            if n < MIN_TAIL:
                break
            if len(tk) < 2:
                continue
            beta = reference_mle_beta(cut, n, sum_log)
            stat = reference_ks_stat(tk, tc, n, cut, beta)
            if best is None or stat < best.ks_stat:
                best = FitReport(beta, cut, n, stat)
        if best is None:
            raise ValueError(all_equal if hist.total_vertices >= MIN_TAIL else
                             f"tail too small: no cutoff leaves >= {MIN_TAIL} items")
        return best
    k_min = int(k_min)
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    tk, tc, n, sum_log = reference_tail(hist, k_min)
    if n < MIN_TAIL:
        raise ValueError(f"tail too small: {n} items with value >= {k_min}")
    if len(tk) < 2:
        raise ValueError(all_equal)
    beta = reference_mle_beta(k_min, n, sum_log)
    return FitReport(beta, k_min, n, reference_ks_stat(tk, tc, n, k_min, beta))
