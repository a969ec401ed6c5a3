"""Tests for serialization formats and labeled-corpus ingestion."""

import contextlib
import io as stdio
import os
import re
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pahyper import (Constant, DegreeHistogram, FitReport, GeneratorConfig,
                     Hypergraph, ObservedGraph, TruncatedZipf, UniformInt, ccdf,
                     evolve, ingest_labeled, project, read_degrees,
                     read_edge_sizes, read_histogram_csv,
                     read_hypergraph, write_ccdf_csv, write_fit_report,
                     write_histogram_csv, write_hypergraph, write_label_map,
                     write_observed_graph)
from pahyper import core, io
from pahyper.io import _parse_bulk
from feed import fed
from memory import traced_peak
from reference import (EdgeList, histogram, reference_ccdf_csv,
                       reference_histogram_csv, reference_read, reference_rows)


class TestHypergraphFile:
    def test_initial_body(self, tmp_path):
        path = tmp_path / "h.txt"
        write_hypergraph(EdgeList.initial(3).freeze(), str(path))
        assert path.read_text() == "0 0 0\n"

    def test_two_edges(self, tmp_path):
        path = tmp_path / "h.txt"
        write_hypergraph(Hypergraph.from_edges([(0, 1), (0, 1, 2)]), str(path))
        assert path.read_text() == "0 1\n0 1 2\n"

    def test_round_trip_identity(self, tmp_path):
        h = Hypergraph.from_edges([(0, 0, 1), (2, 1), (0, 2, 2)])
        path = tmp_path / "h.txt"
        write_hypergraph(h, str(path))
        assert read_hypergraph(str(path)) == h

    def test_round_trip_random_instances(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "h.txt"
        for trial in range(30):
            if trial % 2 == 0:
                cfg = GeneratorConfig(p=float(rng.uniform(0.1, 1.0)),
                                      steps=int(rng.integers(0, 120)),
                                      size_dist=UniformInt(2, 6),
                                      y0=int(rng.integers(1, 5)),
                                      seed=int(rng.integers(1 << 30)))
                h = evolve(cfg)
            else:
                nv = int(rng.integers(1, 12))
                edges = [tuple(rng.integers(0, nv, size=rng.integers(1, 5)))
                         for _ in range(int(rng.integers(1, 25)))]
                edges.append(tuple(range(nv)))  # force id coverage
                h = Hypergraph.from_edges(edges)
            write_hypergraph(h, str(path))
            back = read_hypergraph(str(path))
            assert back == h
            assert np.array_equal(back.tokens, h.tokens)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x 2\n")
        with pytest.raises(ValueError, match=r"line 1.*'x'"):
            read_hypergraph(str(path))

    def test_empty_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n\n0 1\n")
        with pytest.raises(ValueError, match="line 2: empty hyperedge"):
            read_hypergraph(str(path))

    def test_id_gap(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n2 2\n")
        with pytest.raises(ValueError, match="gap"):
            read_hypergraph(str(path))

    def test_negative_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 -1\n")
        with pytest.raises(ValueError, match="line 1"):
            read_hypergraph(str(path))

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# a comment\n0 1\n# another\n1 0 1\n")
        h = read_hypergraph(str(path))
        assert h.hyperedges == [(0, 1), (0, 1, 1)]

    def test_stdin_dash(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(stdio.BytesIO(b"0 0 0\n")))
        assert read_hypergraph("-") == EdgeList.initial(3).freeze()

    def test_stdout_dash_redirected(self):
        # how the benchmark worker calls the CLI
        h = Hypergraph.from_edges([(0, 1), (2, 1, 0), (11,) + tuple(range(11))])
        g = project(h)
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            write_hypergraph(h, "-")
            write_observed_graph(g, "-")
        assert out.getvalue() == (reference_rows(h.tokens, h.offsets)
                                  + "".join(f"{a} {b}\n" for a, b in g.edges.tolist()))

    def test_unsorted_members_read_sorted(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_bytes(b"2 0 1\n")
        h = read_hypergraph(str(path))
        assert h.hyperedges == [(0, 1, 2)]
        assert h.tokens.tolist() == [0, 1, 2]

    def test_observed_graph_lines(self, tmp_path):
        g = project(Hypergraph.from_edges([(0, 1, 2)]))
        path = tmp_path / "g.txt"
        write_observed_graph(g, str(path))
        assert path.read_text() == "0 1\n0 2\n1 2\n"
        # a 2-uniform hypergraph reads back with matching degrees
        assert read_hypergraph(str(path)).degrees().tolist() == g.degrees().tolist()


def _outcome(read):
    try:
        return read()
    except ValueError as e:
        return f"error: {e}"


TOKENS = st.one_of(
    st.integers(0, 8).map(str),
    st.integers(0, 10**18 - 1).map(str),
    st.sampled_from(["+3", "1_0", "007", "\u0661", "-1", "#", "x", "9" * 19,
                     "0" * 19 + "1", "18446744073709551616"]))
LINES = st.builds(lambda lead, toks, sep, trail: lead + sep.join(toks) + trail,
                  st.sampled_from(["", " ", "\t"]), st.lists(TOKENS, max_size=5),
                  st.sampled_from([" ", "  ", "\t"]), st.sampled_from(["", " ", "\t"]))
TEXTS = st.one_of(
    st.builds(lambda lines, newline, last: newline.join(lines) + last,
              st.lists(LINES, max_size=8), st.sampled_from(["\n", "\r\n"]),
              st.sampled_from(["", "\n", "\r\n"])),
    st.text(alphabet="0123 \n\t\r#-+_\u0661", max_size=40))


@settings(max_examples=300, deadline=None)
@given(TEXTS)
@example("0 +1\n")
@example("0 1 2 3 4 5 6 7 8 9 1_0\n")
@example("007 0 1 2 3 4 5 6\n")
@example("0 \u0661\n")
@example("0\t1\n")
@example("0 1\r\n1 0\r\n")
@example("# comment\n0 1\n")
@example("0 1\n\n# comment")
@example("0 1\n1 0")
@example("0 1\n1 0\r")
@example("0 1\n\n1 0\n")
@example("0 1\n   \n")
@example("0 -1\n")
@example("0 -01 -0\n")
@example(" # comment\n0 +1\n")
@example("0 0\n2 2\n")
@example("0 " + "0" * 19 + "1\n")
@example("0 " + "1" * 19 + "\n")
@example("0 " + "9" * 18 + "\n")
def test_reader_agrees_with_reference_reader(text):
    """read_hypergraph gives the reference reader's hypergraph or error, and
    the counting readers its degrees and edge sizes or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(lambda: reference_read(path.read_bytes()))
        counts = ((expected.degrees().tolist(), np.diff(expected.offsets).tolist())
                  if isinstance(expected, Hypergraph) else (expected, expected))
        # the default piece, then pieces of one line or a few lines
        for piece in (io.READ_PIECE, 1, 7):
            with mock.patch.object(io, "READ_PIECE", piece):
                bulk = _outcome(lambda: read_hypergraph(str(path)))
                counted = tuple(_listed(_outcome(lambda: read(str(path))))
                                for read in (read_degrees, read_edge_sizes))
            assert type(bulk) is type(expected)
            assert bulk == expected
            assert counted == counts


def _listed(outcome):
    return outcome.tolist() if isinstance(outcome, np.ndarray) else outcome


def _walked(parse):
    """The outcome of parse(), and whether it reached the line walk."""
    with mock.patch.object(io, "_raise_line_error", wraps=io._raise_line_error) as walk:
        return _outcome(parse), walk.called


BODY = b"0 1 2\n2 0 1\n" * 100     # 1,200 bytes the bulk parser takes


@pytest.mark.parametrize("tail, bulk_takes", [
    (b"1 2\n\n0 1\n", False),                  # the only blank line
    (b"0 " + b"0" * 18 + b"1\n", False),        # the only 19-digit id
    (b"0 +1\n", False),                         # the only byte outside the grammar
    (b"4 4\n", True),                           # the only id gap: raised
    (b"2 1 0\n", True),                         # the only unsorted edge
    (b"2 0 1", True),                           # no final newline
    (b"# note\n2 0 1\n", True),                 # the only comment line
    (b"1\t2 0\n", True),                        # the only tab
    (b"2 0 1\r\n", True),                       # the only CRLF line end
])
def test_last_piece_is_checked(tmp_path, tail, bulk_takes):
    data = BODY + tail
    path = tmp_path / "h.txt"
    path.write_bytes(data)
    expected = _outcome(lambda: reference_read(data))
    for piece in (64, len(BODY) - 8, len(BODY)):
        with mock.patch.object(io, "READ_PIECE", piece), open(path, "rb") as f:
            # the tail is in the last piece of what the parser keeps
            pieces = [stripped for stripped, _, _ in io._pieces(f)]
            kept = sum(map(len, pieces))
            assert len(pieces) > 1 and kept - len(pieces[-1]) <= len(BODY)
            assert _walked(lambda: _parse_bulk(f)) == (expected, not bulk_takes)
            assert _outcome(lambda: read_hypergraph(str(path))) == expected


def test_line_walk_reads_only_the_refused_piece(tmp_path):
    """A bad line after comment lines in earlier pieces is named as the
    reference reader names it, by a walk over the one piece the parser
    refused: bytes of at most READ_PIECE and one line."""
    body = b"".join(b"# note %d\n0 1 2\n  # indented\n2 0 1\n" % i for i in range(8000))
    data = body + b"1 2\n0 +1\n# after\n0 1\n"
    path = tmp_path / "h.txt"
    path.write_bytes(data)
    expected = _outcome(lambda: reference_read(data))
    assert expected == f"error: line {4 * 8000 + 2}: non-integer token '+1'"
    longest = max(map(len, data.splitlines(keepends=True)))
    for piece in (1, 7, 64, io.READ_PIECE):
        with mock.patch.object(io, "READ_PIECE", piece), \
                mock.patch.object(io, "_raise_line_error",
                                  wraps=io._raise_line_error) as walk:
            assert _outcome(lambda: read_degrees(str(path))) == expected
        (raw, _), = [call.args for call in walk.call_args_list]
        assert isinstance(raw, bytes) and b"0 +1\n" in raw
        assert len(raw) <= piece + longest


def test_pieces_of_a_generated_file(tmp_path):
    cfg = GeneratorConfig(p=0.5, steps=70_000, size_dist=TruncatedZipf(2.5, 2, 20),
                          seed=5)
    h = evolve(cfg)
    path = tmp_path / "h.txt"
    write_hypergraph(h, str(path))
    default = read_hypergraph(str(path))
    assert default == h
    for piece in (1, 7, 4096):
        with mock.patch.object(io, "READ_PIECE", piece):
            assert read_hypergraph(str(path)) == default


def test_bulk_parser_memory(tmp_path):
    """The parser holds about one piece beside its output arrays, not
    arrays the length of the data; ids and offsets at 8 bytes each."""
    cfg = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    path = tmp_path / "h.txt"
    write_hypergraph(evolve(cfg), str(path))
    with open(path, "rb") as f:
        h, peak = traced_peak(_parse_bulk, f)
    assert peak <= 1.6 * 8 * (len(h.tokens) + len(h.offsets))


@pytest.mark.parametrize("commented_crlf", [False, True],
                         ids=["as-written", "header-and-crlf"])
def test_file_read_memory(tmp_path, commented_crlf):
    """A file is read from disk in pieces: no allowance for its bytes, and
    ids and offsets at 8 bytes each; a comment line and CRLF line ends
    take the same path."""
    cfg = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    path = tmp_path / "h.txt"
    write_hypergraph(evolve(cfg), str(path))
    if commented_crlf:
        path.write_bytes(b"# header\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
    h, peak = traced_peak(read_hypergraph, str(path))
    assert peak <= 0.95 * 8 * (len(h.tokens) + len(h.offsets))


def test_degrees_read_memory(tmp_path):
    """read_degrees holds no token array: its traced peak stays under 16
    bytes per vertex (counts of at most 8 bytes, grown by a quarter or more
    at a time) and a few pieces, less than the int32 tokens alone take."""
    cfg = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    h = evolve(cfg)
    path = tmp_path / "h.txt"
    write_hypergraph(h, str(path))
    bound = 16 * h.num_vertices + 4 * io.READ_PIECE
    assert bound < h.tokens.nbytes
    degrees, peak = traced_peak(read_degrees, str(path))
    assert degrees.tolist() == h.degrees().tolist()
    assert peak <= bound


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_degrees_of_fifo_read_memory(tmp_path):
    """A FIFO is copied to a temporary file, not into memory: read_degrees
    of one stays within test_degrees_read_memory's bound for a file."""
    cfg = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    h = evolve(cfg)
    path, fifo = tmp_path / "h.txt", tmp_path / "h.fifo"
    write_hypergraph(h, str(path))
    with fed(path.read_bytes(), fifo):
        degrees, peak = traced_peak(read_degrees, str(fifo))
    assert degrees.tolist() == h.degrees().tolist()
    assert peak <= 16 * h.num_vertices + 4 * io.READ_PIECE


def test_stdin_read_memory(monkeypatch, tmp_path):
    """Stdin is read as bytes, as a file is, with no text copy of it; ids
    and offsets at 8 bytes each."""
    cfg = GeneratorConfig(p=0.5, steps=200_000, size_dist=Constant(3), seed=7)
    path = tmp_path / "h.txt"
    write_hypergraph(evolve(cfg), str(path))
    data = path.read_bytes()
    monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(stdio.BytesIO(data)))
    h, peak = traced_peak(read_hypergraph, "-")
    assert peak - len(data) <= 1.2 * 8 * (len(h.tokens) + len(h.offsets))


READERS = [read_hypergraph, read_degrees, read_edge_sizes]


def _same_result(got, want) -> bool:
    """Equal hypergraphs, or equal arrays of one dtype."""
    if isinstance(want, Hypergraph):
        return (got == want and got.tokens.dtype == want.tokens.dtype
                and got.offsets.dtype == want.offsets.dtype)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
def test_reader_sweep_count(tmp_path, monkeypatch, read):
    """Every reader judges, parses and counts or keeps each piece in one
    sweep of the file."""
    path = tmp_path / "h.txt"
    path.write_bytes(b"# c\n0 0 0\n0 1 2\n2 1\n")
    files = []
    pieces = io._pieces

    def counted_pieces(f):
        files.append(f)
        return pieces(f)

    monkeypatch.setattr(io, "_pieces", counted_pieces)
    read(str(path))
    assert len(files) == 1


def _on_threads(read, callers):
    """read() on `callers` threads started together; their outcomes."""
    start = threading.Barrier(callers)
    outcomes = [None] * callers

    def call(i):
        start.wait()
        outcomes[i] = _outcome(read)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


@pytest.mark.parametrize("callers", [2, 5])
def test_threaded_sweep_in_small_pieces(tmp_path, callers):
    """In pieces of a few lines, results still follow file order: of bad
    lines in two pieces the first is named, and an id gap before a bad
    line gives the line error, as the reference reader does.  No thread
    is left running, and the counts take h.degrees()'s dtype.  Each read
    runs on `callers` threads at once, switching every 10 microseconds,
    and every thread gets the same result: the readers share no state."""
    h = evolve(GeneratorConfig(p=0.5, steps=2_000, size_dist=Constant(3), seed=11))
    path = tmp_path / "h.txt"
    write_hypergraph(h, str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    gap = b"%d\n" % (h.num_vertices + 1)
    variants = {
        "good": lines,
        "two-bad-pieces": lines[:600] + [b"0 +1\n"] + lines[600:1400] + [b"2 x\n"] + lines[1400:],
        "gap-then-bad-line": lines[:100] + [gap] + lines[100:1400] + [b" \n"] + lines[1400:],
        "gap": lines + [gap],
    }
    running, interval = threading.active_count(), sys.getswitchinterval()
    got = {}
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(io, "READ_PIECE", 64):
            for name, v in variants.items():
                path.write_bytes(b"".join(v))
                outcomes = [_on_threads(lambda: read(str(path)), callers) for read in READERS]
                for each in outcomes:
                    assert all(o == each[0] if isinstance(o, str) else _same_result(o, each[0])
                               for o in each), name
                got[name] = tuple(each[0] for each in outcomes)
                assert threading.active_count() == running, name
    finally:
        sys.setswitchinterval(interval)
    assert got["two-bad-pieces"] == ("error: line 601: non-integer token '+1'",) * 3
    assert got["gap-then-bad-line"] == ("error: line 1402: empty hyperedge",) * 3
    assert got["gap"] == (f"error: vertex id gap: id {h.num_vertices} never appears",) * 3
    for name in ("two-bad-pieces", "gap-then-bad-line", "gap"):
        assert got[name][0] == _outcome(lambda: reference_read(b"".join(variants[name])))
    hypergraph, degrees, sizes = got["good"]
    assert hypergraph == h
    assert degrees.dtype == h.degrees().dtype and np.array_equal(degrees, h.degrees())
    assert np.array_equal(sizes, np.diff(h.offsets))


def _kernel_case(data: bytes):
    """What _piece_ids should give for well-formed data: its ids, its line
    ends in ids and its most digits, from Python's own split and int."""
    lines = [line.split() for line in data.splitlines()]
    ends = np.cumsum([len(tokens) for tokens in lines])
    tokens = [tok for line in lines for tok in line]
    return [int(tok) for tok in tokens], ends.tolist(), max(map(len, tokens))


def test_kernel_at_word_boundaries():
    """_piece_ids reads ids of every length up to MAX_BULK_DIGITS, with and
    without leading zeros, across runs of blanks, CRLF ends and a last line
    with no newline, and counts the digits of the longest token; an id of
    one digit more refuses the piece."""
    for length in range(1, io.MAX_BULK_DIGITS + 1):
        digits = "918273645546372819"[:length]
        for token in (digits, "0" * (length - 1) + "7", "0" * length, "9" * length):
            for data in (f"{token}\n", f"{token}",
                         f"1 {token}\t\t2\r\n  {token}  \r\n\t{token}",
                         f"{token} 5\n{token[:-1] or '3'}\t {token}\n",
                         f"{'1' * 9} {token}\n{token} {'2' * 17}\n"):
                ends_in_ids, most, ids = io._piece_ids(data.encode())
                want_ids, want_ends, want_most = _kernel_case(data.encode())
                assert ids.tolist() == want_ids, data
                assert ends_in_ids.tolist() == want_ends, data
                assert most == want_most, data
        too_long = digits + "1234567890123456789"[:io.MAX_BULK_DIGITS + 1 - length]
        assert io._piece_ids(f"1 {too_long}\n".encode())[0] is None, too_long


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
def test_seekable_stdin_read_in_place(tmp_path, monkeypatch, read):
    """A stdin that is a regular file at its start is parsed where it is,
    with no temporary file, into what the path gives."""
    cfg = GeneratorConfig(p=0.5, steps=20_000, size_dist=Constant(3), seed=7)
    path = tmp_path / "h.txt"
    write_hypergraph(evolve(cfg), str(path))
    want = read(str(path))

    def no_spool(*args, **kwargs):
        raise AssertionError("a seekable stdin was copied to a temporary file")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    with open(path, "rb") as f:
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(f))
        assert _same_result(read("-"), want)


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
def test_stdin_at_a_later_offset_reads_from_there(tmp_path, monkeypatch, read):
    """A stdin that stands past its start is read from where it stands,
    as a pipe would be."""
    path, rest = tmp_path / "h.txt", tmp_path / "rest.txt"
    path.write_bytes(b"9 9 9\n0 0 0\n0 1 2\n2 1\n")
    rest.write_bytes(path.read_bytes()[6:])
    with open(path, "rb") as f:
        f.seek(6)
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(f))
        assert _same_result(read("-"), read(str(rest)))


@pytest.mark.parametrize("top, dtype", [(999_999_999, np.int32), (9_999_999_999, np.int64),
                                        (2**31 - 1, np.int32), (2**31, np.int64)])
def test_bulk_parser_token_dtype_follows_the_longest_id(top, dtype):
    """The tokens take index_dtype of the largest id, also when it comes in
    the last piece, after the array was made int32."""
    # the dtype is set before core.checked, which would report the gap below top
    for piece in (io.READ_PIECE, 1):
        with mock.patch.object(io, "checked", lambda tokens, offsets: tokens), \
                mock.patch.object(io, "READ_PIECE", piece):
            tokens = _parse_bulk(stdio.BytesIO(f"0 1\n{top}\n".encode()))
        assert tokens.dtype == dtype and tokens.tolist() == [0, 1, top]


def test_bulk_parser_takes_canonical_text():
    def parse(data):
        return _walked(lambda: _parse_bulk(stdio.BytesIO(data)))

    assert parse(b"0 0 0\n1 0\n 2  1 \n") == (Hypergraph.from_edges(
        [(0, 0, 0), (0, 1), (1, 2)]), False)
    assert parse(b"# c\r\n0\t1\r\n\t# c\n") == (Hypergraph.from_edges([(0, 1)]), False)
    assert parse(b"") == (Hypergraph.from_edges([]), False)
    for other in (b"0 +1\n", b"0 1\r1 0\n", b"1 0\r", b"0 1\n\n",
                  b"0 " + b"0" * 19 + b"1\n"):
        assert parse(other) == (_outcome(lambda: reference_read(other)), True)
    # a gap is core.checked's error, with no line walk
    assert parse(b"0 2\n") == ("error: vertex id gap: id 1 never appears", False)


def test_gap_in_last_line_raises_without_line_parser(tmp_path):
    """Valid files, and one whose only fault is an id gap, never reach the
    line-by-line error walk."""
    h = evolve(GeneratorConfig(p=0.5, steps=20_000, size_dist=Constant(3), seed=3))
    path = tmp_path / "h.txt"
    write_hypergraph(h, str(path))
    data = path.read_bytes()
    variants = {"h.txt": data,
                "commented.txt": b"# header\n" + data + b"  # trailer \xff\n",
                "tabs.txt": data.replace(b" ", b"\t"),
                "crlf.txt": data.replace(b"\n", b"\r\n")}
    with mock.patch.object(io, "_raise_line_error", side_effect=AssertionError):
        for name, variant in variants.items():
            (tmp_path / name).write_bytes(variant)
            assert read_hypergraph(str(tmp_path / name)) == h
        with open(path, "a") as f:
            f.write(f"0 {h.num_vertices + 1}\n")
        with pytest.raises(ValueError) as err:
            read_hypergraph(str(path))
    assert str(err.value) == f"vertex id gap: id {h.num_vertices} never appears"


# ids at every boundary of the digit count, up to the largest int64
BOUNDARY_IDS = sorted({0, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0)})
IDS = st.one_of(st.sampled_from(BOUNDARY_IDS), st.integers(0, 2**63 - 1),
                st.integers(0, 120))
EDGES = st.lists(st.lists(IDS, min_size=1, max_size=5).map(sorted), max_size=12)


def _written(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        write(obj, str(path))
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(EDGES)
@example([])
@example([[v] for v in BOUNDARY_IDS])
@example([[0], [0, 9, 10], [99, 100, 999, 1000, 2**63 - 1]])
def test_write_hypergraph_matches_reference(edges):
    tokens = np.array([v for e in edges for v in e], dtype=np.int64)
    offsets = np.cumsum([0] + [len(e) for e in edges], dtype=np.int64)
    h = Hypergraph(int(tokens.max(initial=-1)) + 1, tokens, offsets)
    assert _written(write_hypergraph, h) == reference_rows(tokens, offsets).encode()


# ids at each edge of a group of three digits, and past int32
GROUP_EDGE_IDS = [0, 9, 10, 99, 100, 999, 1000, 999_999, 10**6, 10**9 - 1, 10**9, 2**31,
                  10**18 - 1]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_writers_at_digit_group_edges(dtype):
    """Ids at the edges of the writer's groups of three digits are written as
    str() gives them: alone, beside ids of every other width, and as
    histogram degrees and counts and ccdf degrees."""
    ids = [v for v in GROUP_EDGE_IDS if v <= np.iinfo(dtype).max]
    for edges in [[[v]] for v in ids] + [[[v] for v in ids] + [ids, ids[::-1]]]:
        tokens = np.array([v for e in edges for v in e], dtype=dtype)
        offsets = np.cumsum([0] + [len(e) for e in edges], dtype=dtype)
        h = Hypergraph(max(ids) + 1, tokens, offsets)
        text = "".join(" ".join(str(v) for v in e) + "\n" for e in edges)
        assert _written(write_hypergraph, h) == text.encode()
    degrees, counts = ids[1:], ids[:0:-1]
    hist = DegreeHistogram(np.array(degrees, dtype=np.int64), np.array(counts, dtype=np.int64))
    text = "degree,count\n" + "".join(f"{k},{c}\n" for k, c in zip(degrees, counts))
    assert _written(write_histogram_csv, hist) == text.encode()
    probs = [1.0 / (i + 1) for i in range(len(ids))]
    text = "degree,ccdf\n" + "".join(f"{k},{prob:.10g}\n" for k, prob in zip(ids, probs))
    ccdf_arrays = (np.array(ids, dtype=dtype), np.array(probs))
    assert _written(write_ccdf_csv, ccdf_arrays) == text.encode()


@pytest.mark.parametrize("budget", [1, 3, 7])
@settings(max_examples=40, deadline=None)
@given(edges=EDGES)
@example(edges=[[0], [0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8], [1, 9]])
def test_write_hypergraph_in_pieces_of_ids(budget, edges):
    """Under a budget of 1, 3 and 7 ids each piece holds whole edges, at
    most budget ids or one larger edge, and the file is the reference's."""
    tokens = np.array([v for e in edges for v in e], dtype=np.int64)
    offsets = np.cumsum([0] + [len(e) for e in edges], dtype=np.int64)
    h = Hypergraph(int(tokens.max(initial=-1)) + 1, tokens, offsets)
    with mock.patch.object(core, "PIECE_IDS", budget):
        pieces = list(io._row_pieces(tokens, offsets))
        assert _written(write_hypergraph, h) == reference_rows(tokens, offsets).encode()
    assert b"".join(pieces) == reference_rows(tokens, offsets).encode()
    for piece in pieces:
        assert piece.count(b"\n") == 1 or len(piece.split()) <= budget


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(IDS, IDS).map(sorted), max_size=12))
@example([])
def test_write_observed_graph_matches_reference(pairs):
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = ObservedGraph(int(edges.max(initial=-1)) + 1, edges)
    offsets = np.arange(0, 2 * len(pairs) + 1, 2)
    assert (_written(write_observed_graph, g)
            == reference_rows(edges.ravel(), offsets).encode())
    with mock.patch.object(core, "PIECE_IDS", 6):       # several pieces
        assert (_written(write_observed_graph, g)
                == reference_rows(edges.ravel(), offsets).encode())


def test_write_observed_graph_peak_memory(tmp_path):
    """The writer holds one piece of core.PIECE_IDS ids at a time: its
    traced peak stays under 64 bytes per id of a piece, less than the edges
    take. Line ends for all edges at once (8 bytes per id) would exceed it."""
    g = project(evolve(GeneratorConfig(p=1.0, steps=500_000, size_dist=Constant(3),
                                       y0=3, seed=7)))
    bound = 64 * core.PIECE_IDS
    assert bound < g.edges.nbytes
    _, peak = traced_peak(write_observed_graph, g, str(tmp_path / "g.txt"))
    assert peak < bound


class TestIngest:
    def test_basic_records(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a;b\na;c;d\n")
        h, labels = ingest_labeled(str(path))
        assert h.num_vertices == 4
        assert h.hyperedges == [(0, 1), (0, 2, 3)]
        assert labels[0] == "a"
        assert labels.index("d") == 3
        assert len(labels) == 4

    def test_singleton_record(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a\n")
        h, _ = ingest_labeled(str(path))
        assert h.hyperedges == [(0,)]

    def test_duplicate_label_multiset(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a;a;b\n")
        h, _ = ingest_labeled(str(path))
        assert h.hyperedges == [(0, 0, 1)]

    def test_whitespace_trimmed_case_kept(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("  Ann ; bob\nbob;ANN\n")
        h, labels = ingest_labeled(str(path))
        assert labels == ["Ann", "bob", "ANN"]
        assert h.hyperedges == [(0, 1), (1, 2)]

    def test_empty_record(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a;b\n\n")
        with pytest.raises(ValueError, match="line 2: empty record"):
            ingest_labeled(str(path))

    def test_empty_label(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a;;b\n")
        with pytest.raises(ValueError, match="empty label"):
            ingest_labeled(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty input"):
            ingest_labeled(str(path))

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a,b\nc,a\n")
        h, _ = ingest_labeled(str(path), delimiter=",")
        assert h.num_vertices == 3

    @pytest.mark.parametrize("text", ["a;b\n", ""])
    def test_empty_delimiter(self, tmp_path, text):
        path = tmp_path / "records.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="^delimiter must be non-empty$"):
            ingest_labeled(str(path), "")

    def test_label_order_independence(self, tmp_path):
        lines = ["a;b;c", "b;d", "d;e;a", "c;c"]
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        p1.write_text("\n".join(lines) + "\n")
        p2.write_text("\n".join(reversed(lines)) + "\n")
        h1, _ = ingest_labeled(str(p1))
        h2, _ = ingest_labeled(str(p2))
        # isomorphic profiles: same degree and edge-size multisets
        assert sorted(h1.degrees().tolist()) == sorted(h2.degrees().tolist())
        assert sorted(map(len, h1.hyperedges)) == sorted(map(len, h2.hyperedges))


LABELS = st.text(alphabet="ab AB0._", min_size=1, max_size=4).map(str.strip).filter(bool)
PAD = st.text(alphabet=" \t", max_size=2)
# records drawn from a small pool, so that labels repeat within and across them
RECORDS = st.lists(LABELS, min_size=1, max_size=6, unique=True).flatmap(
    lambda pool: st.lists(st.lists(st.tuples(PAD, st.sampled_from(pool), PAD),
                                   min_size=1, max_size=5), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(RECORDS)
def test_ingest_labels_round_trip(records):
    """The labels are the distinct trimmed labels in first-seen order, each
    edge maps back through them to its record, and the label file lists
    them in id order."""
    text = "".join(";".join(a + lab + b for a, lab, b in rec) + "\n" for rec in records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.txt"
        path.write_bytes(text.encode())
        h, labels = ingest_labeled(str(path))
    seen = [lab for rec in records for _, lab, _ in rec]
    assert len(set(labels)) == len(labels)
    assert labels == sorted(set(seen), key=seen.index)
    assert h.num_edges == len(records)
    for edge, rec in zip(h.hyperedges, records):
        assert sorted(labels[v] for v in edge) == sorted(lab for _, lab, _ in rec)
    rows = "".join(f"{i},{lab}\n" for i, lab in enumerate(labels))
    assert _written(write_label_map, labels) == f"id,label\n{rows}".encode()


class TestHistogramCSV:
    def test_bytes(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(histogram({3: 1, 1: 2}), str(path))
        assert path.read_text() == "degree,count\n1,2\n3,1\n"

    def test_empty_histogram(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(histogram({}), str(path))
        assert path.read_text() == "degree,count\n"

    def test_round_trip(self, tmp_path):
        hist = histogram({1: 5, 4: 2, 9: 1})
        path = tmp_path / "h.csv"
        write_histogram_csv(hist, str(path))
        assert read_histogram_csv(str(path)).items_sorted() == hist.items_sorted()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("k,count\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_histogram_csv(str(path))

    def test_malformed_row(self, tmp_path):
        """A field is one or more ASCII digits, and nothing else that int()
        takes: an underscore, a sign, a blank or a non-ASCII digit."""
        path = tmp_path / "h.csv"
        for row in ("1,two", "1_0,3", "+1,3", "5, 7", "\u0663,2"):
            path.write_text(f"degree,count\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="^line 2: malformed row"):
                read_histogram_csv(str(path))


# a few digits, so that short fields are common, beside any int64 above 0
HIST_FIELDS = st.integers(1, 99) | st.integers(1, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(HIST_FIELDS, HIST_FIELDS, max_size=40))
@example({})
@example({1: 2**63 - 1, 9: 10, 10: 9, 2**63 - 1: 1})
def test_histogram_writer_matches_reference(counts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        write_histogram_csv(histogram(counts), str(path))
        assert path.read_bytes() == reference_histogram_csv(sorted(counts.items()))


def _text_lines(text: str) -> list[str]:
    """The lines of a text as every reader splits them: each ends at "\n",
    and one "\r" just before it is dropped."""
    lines = re.split(r"\r?\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def _reference_histogram(text: str) -> dict[int, int]:
    """The entries of a well-formed histogram CSV, or {} when any row is not
    two fields of ASCII digits (after the row's outer blanks), whose values
    are positive and fit int64, a degree repeats or the counts sum past
    int64 (the reader must then raise)."""
    counts = {}
    for line in _text_lines(text)[1:]:
        fields = line.strip().split(",")
        if len(fields) != 2 or not all(re.fullmatch("[0-9]+", f) for f in fields):
            return {}
        k, c = map(int, fields)
        if not (1 <= k < 2**63 and 1 <= c < 2**63) or k in counts:
            return {}
        counts[k] = c
        if sum(counts.values()) >= 2**63:
            return {}
    return counts


CSV_FIELDS = st.one_of(st.integers(-3, 40).map(str),
                       st.sampled_from(["", " 7", "x", "1.5", "+2", "1_0", "\u0663",
                                        "9" * 30]))
CSV_ROWS = st.one_of(
    st.builds(lambda k, c: f"{k},{c}", CSV_FIELDS, CSV_FIELDS),
    st.sampled_from(["", " ", "5", "1,2,3", ",", "#1,2", "degree,count"]))
CSV_TEXTS = st.one_of(
    st.builds(lambda header, rows, newline, last: newline.join([header] + rows) + last,
              st.sampled_from(["degree,count", "degree,count ", "degree, count",
                               "count,degree", ""]),
              st.lists(CSV_ROWS, max_size=6), st.sampled_from(["\n", "\r\n"]),
              st.sampled_from(["", "\n"])),
    st.text(alphabet="degrco,unt0123-\n\r ", max_size=40))


@settings(max_examples=300, deadline=None)
@given(CSV_TEXTS)
@example("degree,count\n0,5\n")
@example("degree,count\n3,-1\n")
@example("degree,count\n5,10\n5,3\n")
@example("degree,count\n1,2\n\n")
@example("")
@example("degree,count\n1,5\n99999999999999999999,5\n")
@example("degree,count\n1,5\n2,99999999999999999999\n")
@example("degree,count\n9223372036854775807,9223372036854775807\n")
@example("degree,count\n1,9223372036854775807\n2,5\n3,5\n")
@example("degree,count\r\n1,2\r\r\n")
@example("degree,count\n1,2\r3,4\n")
def test_histogram_reader_fuzz(text):
    """Every input either reads back exactly its rows or raises ValueError
    naming the header or a line of the input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            hist = read_histogram_csv(str(path))
        except ValueError as e:
            message = str(e)
            m = re.match(r"line (\d+): ", message)
            if m is None:
                assert message.startswith("expected header 'degree,count'")
            else:
                assert 2 <= int(m.group(1)) <= len(_text_lines(text))
            return
    assert dict(hist.items_sorted()) == _reference_histogram(text)
    assert len(hist.counts) == len(_text_lines(text)) - 1


def test_fit_report_format(tmp_path):
    path = tmp_path / "fit.txt"
    write_fit_report(FitReport(2.5, 5, 1000, 0.02), str(path))
    assert path.read_text() == (
        "beta_hat=2.50000\nk_min=5\nn_tail=1000\nks_stat=0.0200000\n")


def _ccdf_arrays(pairs):
    """(degree, probability) pairs as ccdf's two arrays."""
    return (np.array([k for k, _ in pairs], dtype=np.int64),
            np.array([p for _, p in pairs], dtype=np.float64))


def test_ccdf_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_ccdf_csv(_ccdf_arrays([(1, 1.0), (2, 0.25)]), str(path))
    assert path.read_text() == "degree,ccdf\n1,1\n2,0.25\n"


# a few values, so that rows repeat them, beside any float
PROBS = st.sampled_from([0.0, -0.0, 1.0, 0.25, 1 / 3, 5e-324, float("nan"),
                         float("inf"), -1.5]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**12), PROBS), max_size=60))
@example([(1, 0.0), (2, -0.0), (3, 0.0), (4, -0.0)])
@example([(1, float("nan")), (2, float("nan")), (3, 1.0), (4, 1)])
@example(list(zip(*(v.tolist() for v in ccdf(histogram({1: 5, 9: 3, 40: 1}))))))
def test_ccdf_writer_matches_reference(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        write_ccdf_csv(_ccdf_arrays(pairs), str(path))
        assert path.read_bytes() == reference_ccdf_csv(pairs)
