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
pairs and emits the rows in pieces of ROW_PIECE edges, so the text of the
whole file never exists at once; every output goes as UTF-8 bytes through
one function, to a file in binary or to '-' through sys.stdout's text layer.
The reader reads a regular file from disk in newline-aligned pieces of
about READ_PIECE bytes; stdin for '-', or a path that cannot seek, is read
whole into one buffer first.  Data of only ASCII digits, spaces and
newlines is parsed by numpy piece by piece, so that it needs the output
arrays and memory in proportion to one piece, not the bytes of the file;
anything else is decoded as text mode would (UTF-8, universal newlines)
and goes to the line parser.
Both paths end in core.checked, the one check that ids cover 0..max.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from io import BytesIO, StringIO, TextIOWrapper

import numpy as np

from .analysis import DegreeHistogram, FitReport, ObservedGraph
from .core import Hypergraph, checked, index_dtype

__all__ = [
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


# ----------------------------------------------------------------------
# hypergraph files

WRITE_CHUNK = 1 << 20
ROW_PIECE = 1 << 16


def _write(destination: str, pieces) -> None:
    """Write an iterable of UTF-8 bytes to a file, or through sys.stdout's
    text layer for '-'."""
    if destination == "-":
        for data in pieces:
            text = data.decode()
            # In slices: when a pipe's reader leaves during one large write,
            # the text layer drops the short write silently, and only a
            # later write raises BrokenPipeError.
            for i in range(0, len(text), WRITE_CHUNK):
                sys.stdout.write(text[i:i + WRITE_CHUNK])
    else:
        with open(destination, "wb") as f:
            for data in pieces:
                f.write(data)


def _row_pieces(tokens: np.ndarray, offsets: np.ndarray):
    """The lines of _encode_rows, ROW_PIECE edges at a time."""
    for e0 in range(0, len(offsets) - 1, ROW_PIECE):
        bounds = offsets[e0:e0 + ROW_PIECE + 1]
        yield _encode_rows(tokens[bounds[0]:bounds[-1]], bounds - bounds[0])


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
    _write(destination, _row_pieces(h.tokens, h.offsets))


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line)."""
    offsets = np.arange(0, 2 * g.num_edges + 1, 2)
    _write(destination, _row_pieces(g.edges.ravel(), offsets))


def _parse_edge_lines(lines) -> list[list[int]]:
    edges: list[list[int]] = []
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
        edges.append(members)
    return edges


MAX_BULK_DIGITS = 18    # any id this long fits int64
READ_PIECE = 1 << 17    # bytes per piece of the bulk parser, then to a newline


def _pieces(f):
    """Consecutive pieces of a binary file from its start, each of at least
    READ_PIECE bytes up to and including a newline, or the rest of it."""
    f.seek(0)
    while piece := f.read(READ_PIECE):
        if not piece.endswith(b"\n"):
            piece += f.readline()
        yield piece


def _piece_line_ends(piece: np.ndarray) -> tuple[np.ndarray | None, int]:
    """The number of ids up to the end of each line of a piece of bulk
    data, or None if an id has more than MAX_BULK_DIGITS digits or a line
    has no id; and the most digits of an id in the piece."""
    digit = np.zeros(len(piece) + 2, dtype=bool)
    np.greater(piece, ord(" "), out=digit[1:-1])
    # an id starts where the digit mask turns on and ends where it turns off
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts = bounds[0::2]
    digits = int((bounds[1::2] - starts).max(initial=0))
    if digits > MAX_BULK_DIGITS:
        return None, digits
    line_ends = np.flatnonzero(piece == ord("\n"))
    if piece[-1] != ord("\n"):
        line_ends = np.append(line_ends, len(piece))
    ends_in_ids = np.searchsorted(starts, line_ends)
    if not np.diff(ends_in_ids, prepend=0).all():
        return None, digits                     # a blank line
    return ends_in_ids, digits


def _parse_bulk(f) -> Hypergraph | None:
    """Parse a seekable binary file made only of ASCII digits, spaces and
    newlines, at least one id per line and at most MAX_BULK_DIGITS digits
    per id, with numpy; None for any other data.  The result goes through
    core.checked, so ids that do not cover 0..max raise its ValueError.

    The file is read in newline-aligned pieces of about READ_PIECE bytes
    (see _pieces), three times: the first sweep checks the bytes of each
    piece and counts its lines, the second fills the edge offsets and finds
    the longest id, the third parses each piece's ids into its slice of one
    token array.  Beside the output arrays, the parser holds a few arrays
    the size of one piece and, in the final check, a count per vertex and a
    flag per token; never the bytes of the whole file.
    """
    size = num_lines = 0
    for piece in _pieces(f):
        if piece.translate(None, b"0123456789 \n"):
            return None
        size += len(piece)
        # a last line with no newline counts too
        num_lines += piece.count(b"\n") + (not piece.endswith(b"\n"))
    offsets = np.zeros(num_lines + 1, dtype=index_dtype(size))
    line = digits = 0
    for piece in _pieces(f):
        ends_in_ids, width = _piece_line_ends(np.frombuffer(piece, dtype=np.uint8))
        if ends_in_ids is None:
            return None
        offsets[line + 1:line + 1 + len(ends_in_ids)] = ends_in_ids + offsets[line]
        line, digits = line + len(ends_in_ids), max(digits, width)
    tokens = np.empty(offsets[-1], dtype=index_dtype(10**digits - 1))
    filled = 0
    for piece in _pieces(f):
        ids = np.fromstring(piece, dtype=tokens.dtype, sep=" ")
        tokens[filled:filled + len(ids)] = ids
        filled += len(ids)
    return checked(tokens, offsets)


def _read(f) -> Hypergraph:
    """The hypergraph of a seekable binary file: the bulk parser, or the
    line parser on the file decoded as text mode would decode it (UTF-8,
    universal newlines)."""
    h = _parse_bulk(f)
    if h is None:
        f.seek(0)
        text = TextIOWrapper(BytesIO(f.read()), encoding="utf-8").read()
        h = Hypergraph.from_edges(_parse_edge_lines(StringIO(text)))
    return h


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h.

    A regular file is parsed from disk in pieces (see _parse_bulk).  Stdin
    for '-', and a path that cannot seek (a FIFO, /dev/stdin), is read
    whole into one buffer first, since the parser reads its input more
    than once.
    """
    if source == "-":
        return _read(BytesIO(sys.stdin.buffer.read()))
    with open(source, "rb") as f:
        return _read(f if f.seekable() else BytesIO(f.read()))


def ingest_labeled(source: str, delimiter: str = ";") -> tuple[Hypergraph, list[str]]:
    """Build a hypergraph from delimiter-separated label records.

    One record per line, one hyperedge per record; labels get dense ids in
    first-seen order, and labels[i] is the label of id i.  Singleton
    records are kept (cardinality-1 edges).
    """
    ids: dict[str, int] = {}
    edges: list[list[int]] = []
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                raise ValueError(f"line {lineno}: empty record")
            labels = [tok.strip() for tok in line.split(delimiter)]
            if any(not lab for lab in labels):
                raise ValueError(f"line {lineno}: empty label in record")
            edges.append([ids.setdefault(lab, len(ids)) for lab in labels])
    if not edges:
        raise ValueError("empty input: no records")
    return Hypergraph.from_edges(edges), list(ids)


def write_label_map(labels: list[str], destination: str) -> None:
    rows = (f"{vid},{label}\n" for vid, label in enumerate(labels))
    _write(destination, [("id,label\n" + "".join(rows)).encode()])


# ----------------------------------------------------------------------
# histograms, CCDFs, fit reports


def write_histogram_csv(hist: DegreeHistogram, destination: str) -> None:
    rows = (f"{k},{c}\n" for k, c in hist.items_sorted())
    _write(destination, [("degree,count\n" + "".join(rows)).encode()])


def read_histogram_csv(source: str) -> DegreeHistogram:
    with _open_read(source) as f:
        header = f.readline().strip()
        if header != "degree,count":
            raise ValueError(f"expected header 'degree,count', got {header!r}")
        rows: list[tuple[int, int]] = []
        seen: set[int] = set()
        total = 0
        for lineno, raw in enumerate(f, start=2):
            line = raw.strip()
            if not line:
                raise ValueError(f"line {lineno}: empty row")
            try:
                k_str, c_str = line.split(",")
                k, c = int(k_str), int(c_str)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
            if not (0 < k < 2**63 and 0 < c < 2**63):
                raise ValueError(f"line {lineno}: degree and count must be "
                                 f"positive and fit int64, got {line!r}")
            if k in seen:
                raise ValueError(f"line {lineno}: duplicate degree {k}")
            total += c
            if total >= 2**63:
                raise ValueError(f"line {lineno}: count total {total} "
                                 f"does not fit int64")
            seen.add(k)
            rows.append((k, c))
    values, counts = np.array(sorted(rows), dtype=np.int64).reshape(-1, 2).T.copy()
    return DegreeHistogram(values, counts)


def write_ccdf_csv(ccdf: tuple[np.ndarray, np.ndarray], destination: str) -> None:
    """Write analysis.ccdf's (degrees, probabilities) as CSV rows."""
    degrees, probs = (v.tolist() for v in ccdf)
    # a dense degree range repeats each probability, so each distinct one is
    # formatted once; zero each time, since 0.0 == -0.0 but they print apart
    text = {prob: f"{prob:.10g}" for prob in set(probs) if prob}
    rows = [f"{k},{text[prob] if prob else f'{prob:.10g}'}\n"
            for k, prob in zip(degrees, probs)]
    _write(destination, [("degree,ccdf\n" + "".join(rows)).encode()])


def write_fit_report(report: FitReport, destination: str) -> None:
    _write(destination, [f"beta_hat={report.beta_hat:#.6g}\n"
                         f"k_min={report.k_min}\n"
                         f"n_tail={report.n_tail}\n"
                         f"ks_stat={report.ks_stat:#.6g}\n".encode()])
