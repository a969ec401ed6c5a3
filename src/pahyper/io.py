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

Hypergraph and graph files, and the histogram and CCDF CSV writers, go
through one numpy codec over bytes, with no Python int or str per id: every
id is laid out in 4-byte cells of three digits from a table of digit
groups, one divmod by 1000 per cell, with its separator in the fourth byte
of its last cell, and a (hyper)graph goes in pieces of whole edges of at
most core.PIECE_IDS ids, or of one larger edge, so its text never exists
whole and a piece's arrays are bounded whatever the edge sizes.
Every output goes as UTF-8 bytes through one function, to a file in binary
or to '-' through sys.stdout's text layer.
The hypergraph readers take one byte path in.  A file or stdin that can
seek and stands at its start is parsed where it is; any other input (a
pipe, a FIFO, a terminal, a stdin past its start) is first copied, from
where it stands, to a temporary file, so it needs temporary disk space the
size of its input, not memory.  The input is then read in newline-aligned
pieces of about READ_PIECE bytes, one at a time, so that beside its output
arrays a reader needs memory for about one piece.  One function,
_piece_ids, both checks a piece and parses it: it finds where each id
starts and each line ends, and reads each id from 8-byte words at its
start with numpy integer arithmetic, the same words giving its digit
count.  Only a piece it refuses is walked line by line, by the same
function, to name its first bad line.  Every reader reads its input once
(_sweep) and hands each piece's ids to one sink: read_degrees and
read_edge_sizes to core.counted, so they hold no token array, and
read_hypergraph to one token array, which ends in core.checked; the edge
offsets are filled on the way.  Either way core.counted is the one check
that ids cover 0..max, and the offsets, the tokens and counted's counts
grow by one rule, core.grow.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from contextlib import nullcontext
from io import SEEK_END, BytesIO

import numpy as np

from . import core
from .analysis import DegreeHistogram, FitReport, ObservedGraph
from .core import Hypergraph, checked, counted, grow, index_dtype, spans

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
    """The lines of _encode_rows, in runs of edges of at most
    core.PIECE_IDS ids or of one larger edge (core.spans)."""
    for e0, e1 in spans(offsets, core.PIECE_IDS):
        bounds = offsets[e0:e1 + 1]
        yield _encode_rows(tokens[bounds[0]:bounds[-1]], bounds - bounds[0], " ")


def _group_table() -> np.ndarray:
    """The 4-byte cells of _fill_digits: entry r < 1000 is r as three
    digits; entry 1000 + r is r as the leading group of an id, with a pad
    byte (NUL) for each leading zero and three for a group left of the id.
    The fourth byte of every cell is a pad byte, for a separator to fill."""
    three = [f"{r:03d}\0" for r in range(1000)]
    lead = ["\0" * 4] + [str(r).rjust(3, "\0") + "\0" for r in range(1, 1000)]
    return np.frombuffer("".join(three + lead).encode("ascii"), dtype="<u4")


_GROUPS = _group_table()
_UNITS = _GROUPS.copy()             # the last group of an id: id 0 reads "0"
_UNITS[1000] = ord("0") << 16


def _byte4(char: str) -> np.uint32:
    """char in the fourth byte of a cell of _fill_digits."""
    return np.uint32(ord(char) << 24)


def _id_width(ids: np.ndarray) -> int:
    """The cells of _fill_digits that the largest of non-negative ids needs."""
    return (len(str(int(ids.max()))) + 2) // 3


def _fill_digits(cells: np.ndarray, ids: np.ndarray, sep: str) -> None:
    """Lay out each non-negative id in decimal, right-aligned in its row of
    4-byte cells, one per group of three digits, with sep in the fourth
    byte of its last cell; cells left of the id, and the other cells'
    fourth bytes, get pad bytes, which one translate drops."""
    q, table = ids, _UNITS
    for j in range(cells.shape[1] - 1, 0, -1):
        q, r = np.divmod(q, 1000)
        cells[:, j] = table[r + 1000 * (q == 0)]
        table = _GROUPS
    cells[:, 0] = table[q + 1000]       # a leading group: q < 1000 by the width
    cells[:, -1] |= _byte4(sep)


def _encode_rows(tokens: np.ndarray, offsets: np.ndarray, sep: str) -> bytes:
    """The lines of non-negative integers, one per row of at least one:
    each integer in decimal, laid out by _fill_digits, and then sep, or
    '\n' after the last of its row."""
    if not len(tokens):
        return b""
    width = _id_width(tokens)
    cells = np.empty((len(tokens), width), dtype="<u4")
    _fill_digits(cells, tokens, sep)
    cells[offsets[1:] - 1, width - 1] ^= _byte4(sep) ^ _byte4("\n")   # sep to '\n'
    return cells.tobytes().translate(None, b"\0")


def write_hypergraph(h: Hypergraph, destination: str) -> None:
    _write(destination, _row_pieces(h.tokens, h.offsets))


def _encode_pairs(pairs: np.ndarray, sep: str) -> bytes:
    """The lines of _encode_rows of an (m, 2) array, one line per row."""
    return _encode_rows(pairs.ravel(), np.arange(0, pairs.size + 1, 2), sep)


def write_observed_graph(g: ObservedGraph, destination: str) -> None:
    """Write a graph in the hypergraph line format (two ids per line), in
    pieces of core.PIECE_IDS // 2 pairs."""
    pairs = core.PIECE_IDS // 2
    _write(destination, (_encode_pairs(g.edges[e0:e0 + pairs], " ")
                         for e0 in range(0, g.num_edges, pairs)))


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


def _leading_digits(words: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of the leading ASCII digits, at most 8, of the 8-byte
    little-endian word at each position of words, whose other bytes are
    spaces, tabs, line ends or zero; and 8 times the number of the word's
    bytes past those digits.  Both are uint64 arrays, worked in place: the
    digits are shifted to the top of the word, under zero bytes that read
    as leading zeros, and reduced by the three multiply-shift steps of
    8-digit SWAR (Lemire, Number parsing at a gigabyte per second, SPE
    51(8), 2021)."""
    value = words[at]
    past = value & np.uint64(0x1010101010101010)    # bit 4: set in the grammar's digits only
    past ^= np.uint64(0x1010101010101010)
    past *= np.uint64(0x0101010101010101)   # each byte: 0x10 times the non-digits to it
    past += np.uint64(0x7070707070707070)   # high bit: at or past the first non-digit
    past >>= np.uint64(7)
    past &= np.uint64(0x0101010101010101)
    past *= np.uint64(0x0101010101010101)   # top byte: the bytes past the digits
    past >>= np.uint64(56 - 3)              # times 8: the bits below it are zero
    value ^= np.uint64(0x3030303030303030)  # '0' to 0
    value <<= past                          # the digits to the top, zeros below
    # each step joins neighbouring groups of 1, 2, then 4 digits: 10^k * high + low
    for shift, keep in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, None)):
        value *= np.uint64(1 + (10**(shift // 8) << shift))
        value >>= np.uint64(shift)
        if keep:
            value &= np.uint64(keep)
    return value, past


def _piece_ids(data: bytes) -> tuple[np.ndarray | None, int, np.ndarray | None]:
    """The number of ids up to the end of each line of a piece of bulk
    data, the most digits of an id, and the ids, int64; or None, 0, None
    if a byte is not an ASCII digit, space, tab, CR or LF, a carriage
    return does not end a line, a line has no id or an id has over
    MAX_BULK_DIGITS digits.

    Each id is read from 8-byte words at its start and, past 8 digits, 8
    and 16 bytes on (_leading_digits).  Beside the piece it holds a padded
    copy of it and, at most, two bool masks or three arrays per id."""
    if data.translate(None, b"0123456789 \t\r\n"):
        return None, 0, None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None, 0, None                    # a bare carriage return
    # a zero byte, the piece, a newline (ending a last line that has none), zeros
    padded = np.frombuffer(b"".join((b"\0", data, b"\n", bytes(7))), dtype=np.uint8)
    piece = padded[1:len(data) + 1 + (data[-1:] != b"\n")]
    digit = padded[:len(piece) + 1] > ord(" ")
    event = digit[1:] > digit[:-1]              # where an id starts,
    del digit
    event |= piece == ord("\n")                 # or a line ends
    events = np.flatnonzero(event)
    del event
    newline = piece[events] == ord("\n")
    if newline[0] or (newline[1:] & newline[:-1]).any():
        return None, 0, None                    # a blank line
    # a line's end has as many ids before it as events, less the line ends
    ends_in_ids = np.flatnonzero(newline)
    ends_in_ids -= np.arange(len(ends_in_ids))
    starts = events[~newline]
    del events, newline
    # words[i]: the 8 bytes from byte i of the piece
    words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, offset=1, strides=(1,))
    ids, past = _leading_digits(words, starts)
    digits = 8 - int(past.min()) // 8
    longer = np.flatnonzero(past == 0)          # ids of 8 digits so far
    for more in (8, 16):
        if not len(longer):
            break
        del past
        rest, past = _leading_digits(words, starts[longer] + more)
        ids[longer] = ids[longer] * 10 ** (8 - past // 8) + rest     # 10 ** its digits
        digits = more + 8 - int(past.min()) // 8
        longer = longer[past == 0]
    if digits > MAX_BULK_DIGITS:
        return None, 0, None
    return ends_in_ids, digits, ids.view(np.int64)


def _raise_line_error(raw: bytes, lineno: int) -> None:
    """Raise the ValueError of the first line that _piece_ids refuses in a
    piece as read whose first line is line lineno, naming the line."""
    for lineno, line in enumerate(BytesIO(raw), start=lineno):
        if COMMENT_LINE.match(line) or _piece_ids(line)[0] is not None:
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


def _sweep(f, sink, offsets: bool = False) -> tuple:
    """One sweep of a seekable binary hypergraph file, one piece at a time
    (_pieces, _piece_ids): sink(the pieces' ids, the most ids the file can
    hold), where sink is core.counted or _joined; and, if offsets, its edge
    offsets (the number of ids up to the end of each line), in index_dtype
    of its size and grown as the pieces come (core.grow), else None.

    The first piece that _piece_ids refuses raises the ValueError of its
    first bad line (_raise_line_error): a line other than a comment that
    is not one or more ids of 1 to MAX_BULK_DIGITS ASCII digits, separated
    by spaces or tabs, or a carriage return not at a line end."""
    size = f.seek(0, SEEK_END)
    n = (size + 1) // 2     # every id but the last is followed by a separator
    ends = np.zeros(1, dtype=index_dtype(size)) if offsets else None
    line = 0

    def ids():
        nonlocal line
        for piece, raw, comments in _pieces(f):
            ends_in_ids, _, piece_ids = _piece_ids(piece)
            if ends_in_ids is None:
                _raise_line_error(raw, line + comments + 1)
            top = line + 1 + len(ends_in_ids)
            if ends is not None:
                grow(ends, top, n + 1)      # a line holds an id and its end
                ends[line + 1:top] = ends_in_ids + ends[line]
            line = top - 1
            del piece, raw, ends_in_ids     # done with, before a new piece
            yield piece_ids
            del piece_ids

    result = sink(ids(), n)
    if ends is not None:
        ends.resize(line + 1, refcheck=False)
    return result, ends


def _joined(pieces, n: int) -> np.ndarray:
    """The ids of arrays of at most n non-negative ids in all, in one array
    grown in place as the pieces come (core.grow) and trimmed at the end,
    in index_dtype of the largest id so far: int32, made int64 once if an
    id reaches 2**31."""
    tokens, filled = np.empty(0, dtype=index_dtype(0)), 0
    for ids in pieces:
        if ids.max(initial=0) >= core.INDEX_LIMIT:
            tokens = tokens.astype(np.int64, copy=False)
        grow(tokens, filled + len(ids), n)
        tokens[filled:filled + len(ids)] = ids
        filled += len(ids)
        del ids                     # before the next piece is made
    tokens.resize(filled, refcheck=False)
    return tokens


def _parse_bulk(f) -> Hypergraph:
    """Parse a seekable binary hypergraph file with numpy in one sweep
    (_sweep) whose ids go into one token array (_joined).  A malformed line
    raises the error of _sweep; the result goes through core.checked, so
    ids that do not cover 0..max raise its error.  Beside the output
    arrays, the parser holds a few arrays the size of a piece and, in the
    final check, a count per vertex and a flag per token."""
    return checked(*_sweep(f, _joined, offsets=True))


def _seekable(source: str, parse):
    """parse(f) of a seekable binary file that stands at its start: the
    file at source, or stdin for '-', in place.  A source that cannot seek
    (a pipe, a FIFO, a terminal) or a stdin at a later offset is first
    copied, from where it stands, to a temporary file, since every parse
    takes the input's size and reads it from the start."""
    with nullcontext(sys.stdin.buffer) if source == "-" else open(source, "rb") as f:
        if f.seekable() and f.tell() == 0:
            return parse(f)
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(f, spool)
            return parse(spool)


def read_hypergraph(source: str) -> Hypergraph:
    """Inverse of write_hypergraph; read(write(h)) == h.

    A file or stdin that can seek and stands at its start is parsed in
    place in pieces (see _parse_bulk), and a malformed one raises a
    ValueError naming its first bad line; any other input is copied to a
    temporary file first (_seekable).
    """
    return _seekable(source, _parse_bulk)


def read_degrees(source: str) -> np.ndarray:
    """read_hypergraph(source).degrees(), or its error, with no token array:
    one sweep checks each piece and counts its ids."""
    return _seekable(source, lambda f: _sweep(f, counted)[0])


def read_edge_sizes(source: str) -> np.ndarray:
    """The edge sizes of read_hypergraph(source), or its error, with no
    token array: one sweep fills the offsets, and a count per vertex for
    the gap check."""
    return _seekable(source, lambda f: np.diff(_sweep(f, counted, offsets=True)[1]))


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


HISTOGRAM_ROW = re.compile(r"([0-9]+),([0-9]+)")     # ASCII digits only


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
        try:    # AttributeError: no match; ValueError: over int()'s 4300 digits
            k, c = map(int, HISTOGRAM_ROW.fullmatch(line).groups())
        except (AttributeError, ValueError):
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

    Each row is a row of 4-byte cells: the degree laid out by _fill_digits,
    with ',' after it, then the probability's text and '\n'.
    A dense degree range repeats each probability in a run of rows, so its
    text is formatted once per run of equal float bits (0.0 and -0.0 print
    apart) into a table of cells that the rows gather from.
    """
    degrees, probs = ccdf[0], np.asarray(ccdf[1], dtype=np.float64)
    if not len(degrees):
        return _write(destination, [b"degree,ccdf\n"])
    bits = probs.view(np.int64)
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    texts = [f"{prob:.10g}\n" for prob in probs[first].tolist()]
    cell_bytes = 4 * ((max(map(len, texts)) + 3) // 4)
    table = np.frombuffer("".join(t.ljust(cell_bytes, "\0") for t in texts).encode(),
                          dtype="<u4").reshape(len(texts), -1)
    width = _id_width(degrees)
    cells = np.empty((len(degrees), width + table.shape[1]), dtype="<u4")
    _fill_digits(cells[:, :width], degrees, ",")
    cells[:, width:] = table[np.cumsum(first) - 1]
    _write(destination, [b"degree,ccdf\n" + cells.tobytes().translate(None, b"\0")])


def write_fit_report(report: FitReport, destination: str) -> None:
    _write(destination, [f"beta_hat={report.beta_hat:#.6g}\n"
                         f"k_min={report.k_min}\n"
                         f"n_tail={report.n_tail}\n"
                         f"ks_stat={report.ks_stat:#.6g}\n".encode()])
