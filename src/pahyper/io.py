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

Hypergraph and graph files go through one numpy codec over bytes, with no
Python int or str per id.  The writer formats every id from a table of digit
pairs and writes the file in binary; '-' decodes that ASCII and goes through
sys.stdout's text layer.  The reader takes the file's bytes: data of only
ASCII digits, spaces and newlines is parsed in one numpy pass; anything else
is decoded as text mode would (UTF-8, universal newlines) and handed to the
line parser, which is the one source of error messages.  Stdin is read as
text.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from io import BytesIO, StringIO, TextIOWrapper

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


def _write_bytes(destination: str, data: bytes) -> None:
    """Write ASCII data; '-' goes through sys.stdout's text layer."""
    if destination == "-":
        _write_text(destination, data.decode("ascii"))
        return
    with open(destination, "wb") as f:
        view = memoryview(data)
        for i in range(0, len(view), WRITE_CHUNK):
            f.write(view[i:i + WRITE_CHUNK])


def _pair_table() -> np.ndarray:
    """The 2-byte cells of _encode_rows: entry r < 100 is r as two digits;
    entry 100 + r is r as the leading pair of an id, with a pad byte (NUL)
    for a leading zero and two pad bytes for a pair left of the id."""
    two = [f"{r:02d}" for r in range(100)]
    lead = ["\0\0"] + [str(r).rjust(2, "\0") for r in range(1, 100)]
    return np.frombuffer("".join(two + lead).encode("ascii"), dtype="<u2")


_PAIRS = _pair_table()
_UNITS = _PAIRS.copy()              # the last pair of an id: id 0 reads "0"
_UNITS[100] = ord("0") << 8


def _encode_rows(tokens: np.ndarray, offsets: np.ndarray) -> bytes:
    """The hypergraph lines of non-negative ids, one line per edge of at
    least one member: ids in decimal, ' ' between them and '\n' after each
    edge.

    Every id is laid out right-aligned in a row of 2-byte cells, one per
    pair of decimal digits, followed by a separator cell; cells left of the
    id are pad bytes, which one translate drops.
    """
    if not len(tokens):
        return b""
    width = (len(str(int(tokens.max()))) + 1) // 2
    cells = np.empty((len(tokens), width + 1), dtype="<u2")
    cells[:, width] = ord(" ")
    cells[offsets[1:] - 1, width] = ord("\n")
    q, r = np.divmod(tokens, 100)
    cells[:, width - 1] = _UNITS[r + 100 * (q == 0)]
    for j in range(width - 2, -1, -1):
        q, r = np.divmod(q, 100)
        cells[:, j] = _PAIRS[r + 100 * (q == 0)]
    return cells.tobytes().translate(None, b"\0")


def write_hypergraph(h: Hypergraph, destination: str) -> None:
    _write_bytes(destination, _encode_rows(h.tokens, h.offsets))


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line)."""
    offsets = np.arange(0, 2 * g.num_edges + 1, 2)
    _write_bytes(destination, _encode_rows(g.edges.ravel(), offsets))


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


def _parse_bulk(data: bytes) -> Hypergraph | None:
    """Parse data made only of ASCII digits, spaces and newlines, at least
    one id per line, at most MAX_BULK_DIGITS digits per id and ids covering
    0..max, in one numpy pass; None for any other data."""
    if data.translate(None, b"0123456789 \n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(buf) + 2, dtype=bool)
    np.greater(buf, ord(" "), out=digit[1:-1])
    # an id starts where the digit mask turns on and ends where it turns off
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts = bounds[0::2]
    if len(starts) and (bounds[1::2] - starts).max() > MAX_BULK_DIGITS:
        return None
    line_ends = np.flatnonzero(buf == ord("\n"))
    if data and not data.endswith(b"\n"):
        line_ends = np.append(line_ends, len(buf))
    ends_in_ids = np.searchsorted(starts, line_ends)
    if not np.diff(ends_in_ids, prepend=0).all():
        return None                             # a blank line
    tokens = np.fromstring(data, dtype=np.int64, sep=" ")
    if len(tokens) and tokens.max() >= len(tokens):
        return None                             # ids cannot be contiguous
    seen = np.bincount(tokens)
    if not seen.all():
        return None                             # an id gap
    offsets = np.concatenate(([0], ends_in_ids))
    descents = tokens[1:] < tokens[:-1]
    descents[offsets[1:-1] - 1] = False         # a new edge may start lower
    if descents.any():
        sort_members(tokens, offsets)
    return Hypergraph(len(seen), tokens, offsets)


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h.

    A file is read as bytes.  Data the bulk parser does not take is decoded
    as text mode would decode it and goes through the line parser, which is
    the one source of error messages.
    """
    if source == "-":
        text = sys.stdin.read()
        h = _parse_bulk(text.encode("ascii")) if text.isascii() else None
    else:
        with open(source, "rb") as f:
            data = f.read()
        h = _parse_bulk(data)
        if h is None:
            text = TextIOWrapper(BytesIO(data), encoding="utf-8").read()
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
            if k < 1 or c < 1:
                raise ValueError(f"line {lineno}: degree and count must be "
                                 f"positive, got {line!r}")
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
