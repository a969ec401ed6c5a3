"""Plain-text serialization and corpus ingestion.

Formats (bit-exact contracts, all paths accept '-' for stdin/stdout):

  hypergraph file   one hyperedge per line, ids of 1-18 ASCII digits
                    separated by spaces or tabs, lines in arrival order;
                    a line whose first non-blank byte is '#' is a comment.
                    Vertex ids must cover 0..max contiguously.
  histogram CSV     header "degree,count"; rows are written ascending by
                    degree and read in any order, a repeated degree refused.
  ccdf CSV          header "degree,ccdf".
  fit report        key=value lines (beta_hat, k_min, n_tail, ks_stat),
                    reals with 6 significant digits.
  labeled records   one hyperedge per line as delimiter-separated labels
                    (coauthorship-style corpora); labels are trimmed and
                    case-sensitive, duplicates within a record are kept.

Hypergraph and graph files and histogram CSVs go through one numpy codec
over bytes, with no Python int or str per id: every id comes from a table
of digit pairs, and a (hyper)graph goes in pieces of ROW_PIECE edges, so
its text never exists whole.  Every output goes as UTF-8 bytes through one
function, to a file in binary or to '-' through sys.stdout's text layer.
The reader parses a regular file from disk with numpy in newline-aligned
pieces of about READ_PIECE bytes, so that beside its output arrays it needs
memory for one piece; stdin for '-', or a path that cannot seek, is first
copied to a temporary file, so a pipe needs temporary disk space the size
of its input, not memory.  One sweep checks every piece (and fills the
edge offsets where they are wanted); only a piece it refuses is walked
line by line, by the same check, to name its first bad line.  Then one
parse of each piece's ids feeds one of two sinks: read_hypergraph fills a
token array and ends in core.checked, while read_degrees and
read_edge_sizes hand the ids to core.counted, so they hold no token array.
Either way core.counted is the one check that ids cover 0..max.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from contextlib import nullcontext
from io import BytesIO

import numpy as np

from .analysis import DegreeHistogram, FitReport, ObservedGraph
from .core import Hypergraph, checked, counted, index_dtype

__all__ = [
    "read_hypergraph",
    "read_degrees",
    "read_edge_sizes",
    "write_hypergraph",
    "write_observed_graph",
    "ingest_labeled",
    "read_histogram_csv",
    "write_histogram_csv",
    "write_ccdf_csv",
    "write_fit_report",
    "write_label_map",
]


def _line_text(line: bytes) -> bytes:
    """A line of a binary file without its end, as every reader splits its
    input: a line ends at '\n', and one '\r' just before it is dropped."""
    return line[:-2] if line.endswith(b"\r\n") else line.removesuffix(b"\n")


def _text_lines(source: str):
    """The numbered lines of a file, or of stdin for '-', as UTF-8 text."""
    with nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                yield lineno, _line_text(line).decode()
            except UnicodeDecodeError as e:
                raise ValueError(f"line {lineno}: {e}") from None


# ----------------------------------------------------------------------
# hypergraph files

WRITE_CHUNK = 1 << 20
ROW_PIECE = 1 << 14


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
        yield _encode_rows(tokens[bounds[0]:bounds[-1]], bounds - bounds[0], " ")


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


def _id_width(ids: np.ndarray) -> int:
    """The cells of _fill_digits that the largest of non-negative ids needs."""
    return (len(str(int(ids.max()))) + 1) // 2


def _fill_digits(cells: np.ndarray, ids: np.ndarray) -> None:
    """Lay out each non-negative id in decimal, right-aligned in its row of
    2-byte cells, one per pair of digits; cells left of the id get pad
    bytes, which one translate drops."""
    width = cells.shape[1]
    q, r = np.divmod(ids, 100)
    cells[:, width - 1] = _UNITS[r + 100 * (q == 0)]
    for j in range(width - 2, -1, -1):
        q, r = np.divmod(q, 100)
        cells[:, j] = _PAIRS[r + 100 * (q == 0)]


def _encode_rows(tokens: np.ndarray, offsets: np.ndarray, sep: str) -> bytes:
    """The lines of non-negative integers, one per row of at least one:
    each integer in decimal, laid out by _fill_digits, and then sep, or
    '\n' after the last of its row."""
    if not len(tokens):
        return b""
    width = _id_width(tokens)
    cells = np.empty((len(tokens), width + 1), dtype="<u2")
    cells[:, width] = ord(sep)
    cells[offsets[1:] - 1, width] = ord("\n")
    _fill_digits(cells[:, :width], tokens)
    return cells.tobytes().translate(None, b"\0")


def write_hypergraph(h: Hypergraph, destination: str) -> None:
    _write(destination, _row_pieces(h.tokens, h.offsets))


def _encode_pairs(pairs: np.ndarray, sep: str) -> bytes:
    """The lines of _encode_rows of an (m, 2) array, one line per row."""
    return _encode_rows(pairs.ravel(), np.arange(0, pairs.size + 1, 2), sep)


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line)."""
    _write(destination, (_encode_pairs(g.edges[e0:e0 + ROW_PIECE], " ")
                         for e0 in range(0, g.num_edges, ROW_PIECE)))


MAX_BULK_DIGITS = 18    # any id this long fits int64
READ_PIECE = 1 << 17    # bytes per piece of the bulk parser, then to a newline
COMMENT_LINE = re.compile(rb"^[ \t]*#.*\n?", re.MULTILINE)   # with its own newline


def _pieces(f):
    """Consecutive pieces of a binary file from its start, each of at least
    READ_PIECE bytes up to and including a newline, or the rest of it: each
    without its comment lines, none left empty, with the piece as read and
    the number of comment lines before it."""
    f.seek(0)
    comments = 0
    while raw := f.read(READ_PIECE):
        if not raw.endswith(b"\n"):
            raw += f.readline()
        piece, dropped = COMMENT_LINE.subn(b"", raw) if b"#" in raw else (raw, 0)
        if piece:
            yield piece, raw, comments
        comments += dropped


def _piece_line_ends(data: bytes) -> tuple[np.ndarray | None, int]:
    """The number of ids up to the end of each line of a piece of bulk
    data, or None if a byte is not an ASCII digit, space, tab, CR or LF, an
    id has over MAX_BULK_DIGITS digits, a line has no id or a carriage
    return does not end a line; and the most digits of an id."""
    if data.translate(None, b"0123456789 \t\r\n"):
        return None, 0
    piece = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(piece) + 2, dtype=bool)
    np.greater(piece, ord(" "), out=digit[1:-1])
    # an id starts where the digit mask turns on and ends where it turns off
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts = bounds[0::2]
    digits = int((bounds[1::2] - starts).max(initial=0))
    if digits > MAX_BULK_DIGITS:
        return None, digits
    newline, cr = piece == ord("\n"), piece == ord("\r")
    if cr[-1] or (cr[:-1] > newline[1:]).any():
        return None, digits                     # a bare carriage return
    line_ends = np.flatnonzero(newline)
    if piece[-1] != ord("\n"):
        line_ends = np.append(line_ends, len(piece))
    ends_in_ids = np.searchsorted(starts, line_ends)
    if not np.diff(ends_in_ids, prepend=0).all():
        return None, digits                     # a blank line
    return ends_in_ids, digits


def _raise_line_error(raw: bytes, lineno: int) -> None:
    """Raise the ValueError of the first line that _piece_line_ends refuses
    in a piece as read whose first line is line lineno, naming the line."""
    for lineno, line in enumerate(BytesIO(raw), start=lineno):
        if COMMENT_LINE.match(line) or _piece_line_ends(line)[0] is not None:
            continue
        tokens = re.findall(rb"[^ \t]+", _line_text(line))
        if not tokens:
            raise ValueError(f"line {lineno}: empty hyperedge")
        for tok in tokens:
            if tok.isdigit() and len(tok) > MAX_BULK_DIGITS:
                raise ValueError(f"line {lineno}: vertex id {tok.decode()} "
                                 f"has more than {MAX_BULK_DIGITS} digits")
            if tok[:1] == b"-" and tok[1:].isdigit():
                raise ValueError(f"line {lineno}: negative vertex id {tok.decode()}")
            if not tok.isdigit():
                raise ValueError(f"line {lineno}: non-integer token {repr(tok)[1:]}")
    raise AssertionError("the bulk parser refused a piece of well-formed lines")


def _line_ends(f, offsets: np.ndarray | None = None) -> tuple[int, type]:
    """The number of ids in a seekable binary hypergraph file and the dtype
    that holds any id of as many digits as its longest, and, if offsets is
    given, the number of ids up to the end of each line in offsets[1:].  If
    a line other than a comment is not one or more ids of 1 to
    MAX_BULK_DIGITS ASCII digits, separated by spaces or tabs, or a carriage
    return is not at a line end, _raise_line_error names the first such
    line of the refused piece: _piece_line_ends is the one judge of a line.
    """
    ids = line = digits = 0
    for piece, raw, comments in _pieces(f):
        ends_in_ids, width = _piece_line_ends(piece)
        if ends_in_ids is None:
            _raise_line_error(raw, line + comments + 1)
        if offsets is not None:
            offsets[line + 1:line + 1 + len(ends_in_ids)] = ends_in_ids + ids
        line, ids = line + len(ends_in_ids), ids + int(ends_in_ids[-1])
        digits = max(digits, width)
    return ids, index_dtype(10**digits - 1)


def _offsets(f) -> tuple[np.ndarray, type]:
    """The edge offsets of a seekable binary hypergraph file, in index_dtype
    of its size, and the dtype of its ids (see _line_ends): one sweep
    counts bytes and lines to size the offsets, a second fills them."""
    size = num_lines = 0
    for piece, _, _ in _pieces(f):
        size += len(piece)
        # a last line with no newline counts too
        num_lines += piece.count(b"\n") + (not piece.endswith(b"\n"))
    offsets = np.zeros(num_lines + 1, dtype=index_dtype(size))
    return offsets, _line_ends(f, offsets)[1]


def _id_pieces(f, dtype: type):
    """The ids of each piece of a file that _line_ends accepted, in the
    dtype it gave."""
    for piece, _, _ in _pieces(f):
        yield np.fromstring(piece, dtype=dtype, sep=" ")


def _parse_bulk(f) -> Hypergraph:
    """Parse a seekable binary hypergraph file with numpy.  A malformed
    line raises the error of _line_ends; the result goes through
    core.checked, so ids that do not cover 0..max raise its error.

    The file is read in the pieces of _pieces three times: two sweeps fill
    the edge offsets (_offsets), and the third parses each piece's ids into
    its slice of one token array.  Beside the output arrays, the parser
    holds a few arrays the size of one piece and, in the final check, a
    count per vertex and a flag per token.
    """
    offsets, dtype = _offsets(f)
    tokens = np.empty(offsets[-1], dtype=dtype)
    filled = 0
    for ids in _id_pieces(f, dtype):
        tokens[filled:filled + len(ids)] = ids
        filled += len(ids)
    return checked(tokens, offsets)


def _seekable(source: str, parse):
    """parse(f) of a seekable binary file: the file at source, or, for '-'
    or a path that cannot seek (a FIFO, /dev/stdin), a temporary file that
    stdin or the file is first copied to, since every parse reads its input
    more than once."""
    with nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb") as f:
        if source != "-" and f.seekable():
            return parse(f)
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(f, spool)
            return parse(spool)


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h.

    A regular file is parsed from disk in pieces (see _parse_bulk), and a
    malformed one raises a ValueError naming its first bad line; stdin for
    '-', or a path that cannot seek, is copied to a temporary file first
    (_seekable).
    """
    return _seekable(source, _parse_bulk)


def read_degrees(source: str) -> np.ndarray:
    """read_hypergraph(source).degrees(), or its error, with no token array:
    one sweep checks the file, a second counts each piece's ids."""
    def degrees(f):
        n, dtype = _line_ends(f)
        return counted(_id_pieces(f, dtype), n)
    return _seekable(source, degrees)


def read_edge_sizes(source: str) -> np.ndarray:
    """The edge sizes of read_hypergraph(source), or its error, with no
    token array: the offsets, and a count per vertex for the gap check."""
    def sizes(f):
        offsets, dtype = _offsets(f)
        counted(_id_pieces(f, dtype), int(offsets[-1]))
        return np.diff(offsets)
    return _seekable(source, sizes)


def ingest_labeled(source: str, delimiter: str = ";") -> tuple[Hypergraph, list[str]]:
    """Build a hypergraph from delimiter-separated label records.

    One record per line, one hyperedge per record; labels get dense ids in
    first-seen order, and labels[i] is the label of id i.  Singleton
    records are kept (cardinality-1 edges).
    """
    if not delimiter:
        raise ValueError("delimiter must be non-empty")
    ids: dict[str, int] = {}
    edges: list[list[int]] = []
    for lineno, line in _text_lines(source):
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
    rows = _encode_pairs(np.column_stack((hist.values, hist.counts)), ",")
    _write(destination, [b"degree,count\n" + rows])


def read_histogram_csv(source: str) -> DegreeHistogram:
    lines = _text_lines(source)
    header = next(lines, (1, ""))[1].strip()
    if header != "degree,count":
        raise ValueError(f"expected header 'degree,count', got {header!r}")
    rows: dict[int, int] = {}
    total = 0
    for lineno, line in lines:
        line = line.strip()
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
        if k in rows:
            raise ValueError(f"line {lineno}: duplicate degree {k}")
        total += c
        if total >= 2**63:
            raise ValueError(f"line {lineno}: count total {total} "
                             f"does not fit int64")
        rows[k] = c
    values, counts = np.array(sorted(rows.items()), dtype=np.int64).reshape(-1, 2).T.copy()
    return DegreeHistogram(values, counts)


def write_ccdf_csv(ccdf: tuple[np.ndarray, np.ndarray], destination: str) -> None:
    """Write analysis.ccdf's (degrees, probabilities) as CSV rows; degrees
    must be non-negative, as a histogram's are.

    Each row is a row of 2-byte cells: the degree laid out by _fill_digits,
    then ',', the probability's text and '\n'.
    A dense degree range repeats each probability in a run of rows, so its
    text is formatted once per run of equal float bits (0.0 and -0.0 print
    apart) into a table of cells that the rows gather from.
    """
    degrees, probs = ccdf[0], np.asarray(ccdf[1], dtype=np.float64)
    if not len(degrees):
        return _write(destination, [b"degree,ccdf\n"])
    bits = probs.view(np.int64)
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    texts = [f",{prob:.10g}\n" for prob in probs[first].tolist()]
    cell_bytes = 2 * ((max(map(len, texts)) + 1) // 2)
    table = np.frombuffer("".join(t.ljust(cell_bytes, "\0") for t in texts).encode(),
                          dtype="<u2").reshape(len(texts), -1)
    width = _id_width(degrees)
    cells = np.empty((len(degrees), width + table.shape[1]), dtype="<u2")
    _fill_digits(cells[:, :width], degrees)
    cells[:, width:] = table[np.cumsum(first) - 1]
    _write(destination, [b"degree,ccdf\n" + cells.tobytes().translate(None, b"\0")])


def write_fit_report(report: FitReport, destination: str) -> None:
    _write(destination, [f"beta_hat={report.beta_hat:#.6g}\n"
                         f"k_min={report.k_min}\n"
                         f"n_tail={report.n_tail}\n"
                         f"ks_stat={report.ks_stat:#.6g}\n".encode()])
