"""Tests for serialization formats and labeled-corpus ingestion."""

import io as stdio
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pahyper import (Constant, DegreeHistogram, FitReport, GeneratorConfig,
                     Hypergraph, UniformInt, evolve, ingest_labeled, project,
                     read_histogram_csv, read_hypergraph, write_ccdf_csv,
                     write_fit_report, write_histogram_csv, write_hypergraph,
                     write_observed_graph)
from pahyper.io import _parse_bulk, _parse_edge_lines


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
    assert _parse_bulk("0 0 0\n1 0\n 2  1 \n") == Hypergraph.from_edges(
        [(0, 0, 0), (0, 1), (1, 2)])
    assert _parse_bulk("") == Hypergraph.from_edges([])
    for other in ("0 +1\n", "0\t1\n", "0 1\n\n", "0 2\n", "0 " + "0" * 19 + "1\n"):
        assert _parse_bulk(other) is None


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


def test_fit_report_format(tmp_path):
    path = tmp_path / "fit.txt"
    write_fit_report(FitReport(2.5, 5, 1000, 0.02), str(path))
    assert path.read_text() == (
        "beta_hat=2.50000\nk_min=5\nn_tail=1000\nks_stat=0.0200000\n")


def test_ccdf_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_ccdf_csv([(1, 1.0), (2, 0.25)], str(path))
    assert path.read_text() == "degree,ccdf\n1,1\n2,0.25\n"
