"""Plain-text serialization and corpus ingestion.

Formats (bit-exact contracts, all paths accept '-' for stdin/stdout):

  hypergraph file   one hyperedge per line, space-separated non-negative
                    integer ids, lines in arrival order; '#' lines ignored.
                    Vertex ids must cover 0..max contiguously.
  histogram CSV     header "degree,count", rows ascending by degree.
  ccdf CSV          header "degree,ccdf".
  fit report        key=value lines (beta_hat, k_min, n_tail, ks_stat),
                    reals with 6 significant digits.
  labeled records   one hyperedge per line as delimiter-separated labels
                    (coauthorship-style corpora); labels are trimmed and
                    case-sensitive, duplicates within a record are kept.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from .analysis import DegreeHistogram, FitReport, ObservedGraph
from .core import Hyperedge, Hypergraph

__all__ = [
    "VertexLabelMap",
    "read_hypergraph",
    "write_hypergraph",
    "write_observed_graph",
    "ingest_labeled",
    "read_histogram_csv",
    "write_histogram_csv",
    "write_ccdf_csv",
    "write_fit_report",
    "write_label_map",
]


@contextmanager
def _open_read(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as f:
            yield f


@contextmanager
def _open_write(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f


class VertexLabelMap:
    """Bijection between string labels and dense integer ids (0..n-1)."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []

    def add(self, label: str) -> int:
        """Return the id for label, assigning the next id on first sight."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def id_for(self, label: str) -> int:
        return self._ids[label]

    def label_for(self, vid: int) -> str:
        return self._labels[vid]

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> list[str]:
        return list(self._labels)


# ----------------------------------------------------------------------
# hypergraph files


def write_hypergraph(h: Hypergraph, destination: str) -> None:
    with _open_write(destination) as f:
        for e in h.hyperedges:
            f.write(" ".join(map(str, e)))
            f.write("\n")


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line)."""
    with _open_write(destination) as f:
        for a, b in g.edges:
            f.write(f"{a} {b}\n")


def _parse_edge_lines(f) -> list[Hyperedge]:
    edges: list[Hyperedge] = []
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            raise ValueError(f"line {lineno}: empty hyperedge")
        members = []
        for tok in line.split():
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer token {tok!r}") from None
            if v < 0:
                raise ValueError(f"line {lineno}: negative vertex id {v}")
            members.append(v)
        edges.append(tuple(sorted(members)))
    return edges


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h."""
    with _open_read(source) as f:
        edges = _parse_edge_lines(f)
    return Hypergraph.from_edges(edges)


def ingest_labeled(source: str, delimiter: str = ";") -> tuple[Hypergraph, VertexLabelMap]:
    """Build a hypergraph from delimiter-separated label records.

    One record per line, one hyperedge per record; labels get dense ids in
    first-seen order.  Singleton records are kept (cardinality-1 edges).
    """
    label_map = VertexLabelMap()
    edges: list[Hyperedge] = []
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                raise ValueError(f"line {lineno}: empty record")
            labels = [tok.strip() for tok in line.split(delimiter)]
            if any(not lab for lab in labels):
                raise ValueError(f"line {lineno}: empty label in record")
            edges.append(tuple(sorted(label_map.add(lab) for lab in labels)))
    if not edges:
        raise ValueError("empty input: no records")
    h = Hypergraph._from_parts(
        len(label_map), edges, [v for e in edges for v in e])
    return h, label_map


def write_label_map(labels: VertexLabelMap, destination: str) -> None:
    with _open_write(destination) as f:
        f.write("id,label\n")
        for vid, label in enumerate(labels.labels()):
            f.write(f"{vid},{label}\n")


# ----------------------------------------------------------------------
# histograms, CCDFs, fit reports


def write_histogram_csv(hist: DegreeHistogram, destination: str) -> None:
    with _open_write(destination) as f:
        f.write("degree,count\n")
        for k, c in hist.items_sorted():
            f.write(f"{k},{c}\n")


def read_histogram_csv(source: str) -> DegreeHistogram:
    with _open_read(source) as f:
        header = f.readline().strip()
        if header != "degree,count":
            raise ValueError(f"expected header 'degree,count', got {header!r}")
        counts: dict[int, int] = {}
        for lineno, raw in enumerate(f, start=2):
            line = raw.strip()
            if not line:
                raise ValueError(f"line {lineno}: empty row")
            try:
                k_str, c_str = line.split(",")
                counts[int(k_str)] = int(c_str)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
    return DegreeHistogram(counts)


def write_ccdf_csv(pairs: list[tuple[int, float]], destination: str) -> None:
    with _open_write(destination) as f:
        f.write("degree,ccdf\n")
        for k, prob in pairs:
            f.write(f"{k},{prob:.10g}\n")


def write_fit_report(report: FitReport, destination: str) -> None:
    with _open_write(destination) as f:
        f.write(f"beta_hat={report.beta_hat:#.6g}\n")
        f.write(f"k_min={report.k_min}\n")
        f.write(f"n_tail={report.n_tail}\n")
        f.write(f"ks_stat={report.ks_stat:#.6g}\n")
