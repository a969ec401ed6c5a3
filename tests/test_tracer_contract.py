"""The benchmark's tracer (perfbench/tracer.py) against the library.

The tracer replaces library functions by name and reads histograms through
`items_sorted()` and `total_vertices`; a renamed function or a dropped
accessor breaks `perfbench/run.py --trace 1`.  These runs go through
`cli.main` with the tracer installed and fail on any such break or on any
invariant the tracer checks.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest

from pahyper import cli, core

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        yield t
    finally:
        restore()


def assert_called(t, names):
    assert [name for name in names if not t.counts[f"{name}.calls"]] == []


def test_compare_auto_kmin(tmp_path, traced, capsys):
    assert cli.main(["compare", "--steps", "2000", "--p", "1", "--d", "3", "--seed", "7",
                     "--kmin", "auto", "--out-prefix", str(tmp_path / "cmp")]) == 0
    assert traced.failures == []
    assert_called(traced, ["generator.evolve", "generator.evolve_graph_baseline",
                           "analysis.ObservedGraph.degrees",
                           "analysis.degree_histogram", "analysis.ccdf",
                           "analysis.fit_power_law", "io.write_ccdf_csv",
                           "io.write_fit_report"])
    # the hypergraph side takes projected_degrees, so no pair array is built
    assert traced.counts["analysis.project.calls"] == 0
    assert traced.counts["analysis.fit_power_law.cutoffs"] > 2


def test_generate_degrees_fit(tmp_path, traced, capsys):
    h, hist, fit = (str(tmp_path / name) for name in ("h.txt", "hist.csv", "fit.txt"))
    assert cli.main(["generate", "--steps", "2000", "--p", "0.5", "--size", "const:3",
                     "--seed", "7", "--out", h]) == 0
    assert cli.main(["degrees", "--in", h, "--out", hist]) == 0
    assert cli.main(["fit", "--in", hist, "--kmin", "2", "--out", fit]) == 0
    assert traced.failures == []
    assert_called(traced, ["generator.evolve", "io.write_hypergraph",
                           "io.write_histogram_csv", "io.read_histogram_csv",
                           "analysis.fit_power_law", "io.write_fit_report"])
    # degrees counts the file's ids (io.read_degrees), so no token array is built
    assert traced.counts["io.read_hypergraph.calls"] == 0
    assert traced.counts["core.Hypergraph.degrees.calls"] == 0


def test_generate_project(tmp_path, traced, capsys):
    # pieces of 16 edges: the first two mix the capped head of size-2 edges
    # with size 3, the other 124 have one size
    h, g = str(tmp_path / "h.txt"), str(tmp_path / "g.txt")
    assert cli.main(["generate", "--steps", "2000", "--p", "0.5", "--size", "const:3",
                     "--seed", "7", "--out", h]) == 0
    with mock.patch.object(core, "SORT_PIECE", 16):
        assert cli.main(["project", "--in", h, "--out", g]) == 0
    assert traced.failures == []
    assert_called(traced, ["io.read_hypergraph", "analysis.project",
                           "io.write_observed_graph"])
    assert traced.counts["analysis.project.pairs"] > 0
