"""Tests for serialization formats and labeled-corpus ingestion."""

import contextlib
import io as stdio
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pahyper import (Constant, DegreeHistogram, FitReport, GeneratorConfig,
                     Hypergraph, ObservedGraph, UniformInt, evolve,
                     ingest_labeled, project, read_histogram_csv,
                     read_hypergraph, write_ccdf_csv, write_fit_report,
                     write_histogram_csv, write_hypergraph,
                     write_observed_graph)
from pahyper.io import _parse_bulk, _parse_edge_lines
from reference import reference_rows


class TestHypergraphFile:
    def test_initial_body(self, tmp_path):
        path = tmp_path / "h.txt"
        write_hypergraph(Hypergraph.initial(3), str(path))
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
        monkeypatch.setattr("sys.stdin", stdio.StringIO("0 0 0\n"))
        assert read_hypergraph("-") == Hypergraph.initial(3)

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
@example("0 1\n1 0")
@example("0 1\n\n1 0\n")
@example("0 1\n   \n")
@example("0 -1\n")
@example("0 0\n2 2\n")
@example("0 " + "0" * 19 + "1\n")
@example("0 " + "1" * 19 + "\n")
def test_bulk_reader_agrees_with_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.txt"
        path.write_bytes(text.encode("utf-8"))
        bulk = _outcome(lambda: read_hypergraph(str(path)))
        with open(path, encoding="utf-8") as f:
            lines = _outcome(lambda: Hypergraph.from_edges(_parse_edge_lines(f)))
    assert type(bulk) is type(lines)
    assert bulk == lines


def test_bulk_parser_takes_canonical_text():
    assert _parse_bulk(b"0 0 0\n1 0\n 2  1 \n") == Hypergraph.from_edges(
        [(0, 0, 0), (0, 1), (1, 2)])
    assert _parse_bulk(b"") == Hypergraph.from_edges([])
    for other in (b"0 +1\n", b"0\t1\n", b"0 1\n\n", b"0 2\n", b"0 " + b"0" * 19 + b"1\n"):
        assert _parse_bulk(other) is None


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(IDS, IDS).map(sorted), max_size=12))
@example([])
def test_write_observed_graph_matches_reference(pairs):
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = ObservedGraph(int(edges.max(initial=-1)) + 1, edges)
    offsets = np.arange(0, 2 * len(pairs) + 1, 2)
    assert (_written(write_observed_graph, g)
            == reference_rows(edges.ravel(), offsets).encode())


class TestIngest:
    def test_basic_records(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("a;b\na;c;d\n")
        h, labels = ingest_labeled(str(path))
        assert h.num_vertices == 4
        assert h.hyperedges == [(0, 1), (0, 2, 3)]
        assert labels.label_for(0) == "a"
        assert labels.id_for("d") == 3
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
        assert labels.labels() == ["Ann", "bob", "ANN"]
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


class TestHistogramCSV:
    def test_bytes(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(DegreeHistogram({3: 1, 1: 2}), str(path))
        assert path.read_text() == "degree,count\n1,2\n3,1\n"

    def test_empty_histogram(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(DegreeHistogram({}), str(path))
        assert path.read_text() == "degree,count\n"

    def test_round_trip(self, tmp_path):
        hist = DegreeHistogram({1: 5, 4: 2, 9: 1})
        path = tmp_path / "h.csv"
        write_histogram_csv(hist, str(path))
        assert read_histogram_csv(str(path)).counts == hist.counts

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("k,count\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_histogram_csv(str(path))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("degree,count\n1,two\n")
        with pytest.raises(ValueError, match="line 2"):
            read_histogram_csv(str(path))


def _reference_histogram(text: str) -> dict[int, int]:
    """The entries of a well-formed histogram CSV, or {} when any row is not
    two positive integers or a degree repeats (the reader must then raise)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    counts = {}
    for line in lines[1:]:
        fields = line.strip().split(",")
        try:
            k, c = map(int, fields)
        except ValueError:
            return {}
        if k < 1 or c < 1 or k in counts:
            return {}
        counts[k] = c
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
                assert 2 <= int(m.group(1)) <= len(text.splitlines())
            return
    assert hist.counts == _reference_histogram(text)
    assert len(hist.counts) == len(text.splitlines()) - 1


def test_fit_report_format(tmp_path):
    path = tmp_path / "fit.txt"
    write_fit_report(FitReport(2.5, 5, 1000, 0.02), str(path))
    assert path.read_text() == (
        "beta_hat=2.50000\nk_min=5\nn_tail=1000\nks_stat=0.0200000\n")


def test_ccdf_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_ccdf_csv([(1, 1.0), (2, 0.25)], str(path))
    assert path.read_text() == "degree,ccdf\n1,1\n2,0.25\n"
