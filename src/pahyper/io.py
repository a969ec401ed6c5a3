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
from io import StringIO

import numpy as np

from .analysis import DegreeHistogram, FitReport, ObservedGraph
from .core import Hyperedge, Hypergraph, sort_members

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

WRITE_CHUNK = 1 << 20


def _write_text(destination: str, text: str) -> None:
    # In pieces: when a pipe's reader leaves during one large write, the
    # text layer drops the short write silently, and only a later write
    # raises BrokenPipeError.
    with _open_write(destination) as f:
        for i in range(0, len(text), WRITE_CHUNK):
            f.write(text[i:i + WRITE_CHUNK])


def write_hypergraph(h: Hypergraph, destination: str) -> None:
    sizes = np.diff(h.offsets).tolist()
    line = {s: " ".join(["%d"] * s) + "\n" for s in set(sizes)}
    _write_text(destination, "".join([line[s] for s in sizes]) % tuple(h.tokens.tolist()))


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line)."""
    _write_text(destination, "%d %d\n" * g.num_edges % tuple(g.edges.ravel().tolist()))


def _parse_edge_lines(lines) -> list[Hyperedge]:
    edges: list[Hyperedge] = []
    for lineno, raw in enumerate(lines, start=1):
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


MAX_BULK_DIGITS = 18    # any id this long fits int64


def _parse_bulk(text: str) -> Hypergraph | None:
    """Parse text made only of ASCII digits, spaces and newlines, at least
    one id per line, at most MAX_BULK_DIGITS digits per id and ids covering
    0..max, in one numpy pass; None for any other text."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, b"0123456789 \n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    step = np.diff((buf > ord(" ")).view(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(step == 1)          # first digit of each id
    if len(starts) and (np.flatnonzero(step == -1) - starts).max() > MAX_BULK_DIGITS:
        return None
    line_ends = np.flatnonzero(buf == ord("\n"))
    if data and not data.endswith(b"\n"):
        line_ends = np.append(line_ends, len(buf))
    ends_in_ids = np.searchsorted(starts, line_ends)
    if not np.diff(ends_in_ids, prepend=0).all():
        return None                             # a blank line
    tokens = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(tokens) and tokens.max() >= len(tokens):
        return None                             # ids cannot be contiguous
    seen = np.bincount(tokens)
    if not seen.all():
        return None                             # an id gap
    offsets = np.concatenate(([0], ends_in_ids))
    sort_members(tokens, offsets)
    return Hypergraph(len(seen), tokens, offsets)


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h.

    Text the bulk parser does not take goes through the line parser, which
    is the one source of error messages.
    """
    with _open_read(source) as f:
        text = f.read()
    h = _parse_bulk(text)
    if h is None:
        h = Hypergraph.from_edges(_parse_edge_lines(StringIO(text)))
    return h


def ingest_labeled(source: str, delimiter: str = ";") -> tuple[Hypergraph, VertexLabelMap]:
    """Build a hypergraph from delimiter-separated label records.

    One record per line, one hyperedge per record; labels get dense ids in
    first-seen order.  Singleton records are kept (cardinality-1 edges).
    """
    label_map = VertexLabelMap()
    edges: list[list[int]] = []
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                raise ValueError(f"line {lineno}: empty record")
            labels = [tok.strip() for tok in line.split(delimiter)]
            if any(not lab for lab in labels):
                raise ValueError(f"line {lineno}: empty label in record")
            edges.append([label_map.add(lab) for lab in labels])
    if not edges:
        raise ValueError("empty input: no records")
    return Hypergraph.from_edges(edges), label_map


def write_label_map(labels: VertexLabelMap, destination: str) -> None:
    rows = (f"{vid},{label}\n" for vid, label in enumerate(labels.labels()))
    _write_text(destination, "id,label\n" + "".join(rows))


# ----------------------------------------------------------------------
# histograms, CCDFs, fit reports


def write_histogram_csv(hist: DegreeHistogram, destination: str) -> None:
    rows = (f"{k},{c}\n" for k, c in hist.items_sorted())
    _write_text(destination, "degree,count\n" + "".join(rows))


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
                k, c = int(k_str), int(c_str)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
            if k in counts:
                raise ValueError(f"line {lineno}: duplicate degree {k}")
            counts[k] = c
    return DegreeHistogram(counts)


def write_ccdf_csv(pairs: list[tuple[int, float]], destination: str) -> None:
    rows = (f"{k},{prob:.10g}\n" for k, prob in pairs)
    _write_text(destination, "degree,ccdf\n" + "".join(rows))


def write_fit_report(report: FitReport, destination: str) -> None:
    _write_text(destination, f"beta_hat={report.beta_hat:#.6g}\n"
                             f"k_min={report.k_min}\n"
                             f"n_tail={report.n_tail}\n"
                             f"ks_stat={report.ks_stat:#.6g}\n")
