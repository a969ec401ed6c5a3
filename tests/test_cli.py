"""End-to-end tests of the command-line surface (in-process main calls)."""

import io as stdio
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import pahyper
from pahyper import GeneratorConfig, analytic_beta, analytic_mk, cli, evolve
from pahyper.cli import EXIT_CLOSED_STDOUT, main, parse_size_dist
from pahyper.generator import Constant, TruncatedZipf, UniformInt
from feed import fed
from memory import traced_peak

TOO_BIG = "99999999999999999999"


class TestSizeSpec:
    def test_const(self):
        assert parse_size_dist("const:4") == Constant(4)

    def test_uniform(self):
        assert parse_size_dist("uniform:2:5") == UniformInt(2, 5)

    def test_zipf(self):
        assert parse_size_dist("zipf:2.5:3:99") == TruncatedZipf(2.5, 3, 99)

    def test_garbage(self):
        from pahyper.cli import CLIError
        with pytest.raises(CLIError, match="--size"):
            parse_size_dist("poisson:3")


class TestGenerate:
    def test_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        rc = main(["generate", "--steps", "200", "--p", "0.5", "--size", "const:3",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "num_vertices=" in err and "total_degree=" in err

    def test_zero_steps_initial_only(self, tmp_path):
        out = tmp_path / "h.txt"
        assert main(["generate", "--steps", "0", "--p", "0.5",
                     "--out", str(out)]) == 0
        assert out.read_text() == "0 0 0\n"

    def test_p_out_of_range(self, capsys):
        rc = main(["generate", "--steps", "10", "--p", "1.5", "--out", "-"])
        assert rc == 2
        assert "--p" in capsys.readouterr().err

    def test_negative_steps(self, capsys):
        rc = main(["generate", "--steps", "-3", "--p", "0.5", "--out", "-"])
        assert rc == 2
        assert "--steps" in capsys.readouterr().err

    def test_vertex_count_near_expectation(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        main(["generate", "--steps", "10000", "--p", "0.5", "--size", "const:3",
              "--seed", "7", "--out", str(out)])
        with open(out) as f:
            n = sum(1 for _ in f)  # edges = steps + 1
        assert n == 10001
        from pahyper import read_hypergraph
        h = read_hypergraph(str(out))
        assert abs(h.num_vertices - 1 - 5000) <= 4 * (0.25 * 10000) ** 0.5

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--steps", "300", "--p", "0.7", "--size",
                "uniform:2:4", "--seed", "13"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trials_fan_out(self, tmp_path):
        prefix = tmp_path / "runs"
        rc = main(["generate", "--steps", "50", "--p", "0.5", "--seed", "3",
                   "--trials", "2", "--jobs", "2", "--out", str(prefix)])
        assert rc == 0
        f0, f1 = prefix.parent / "runs.000", prefix.parent / "runs.001"
        assert f0.exists() and f1.exists()
        assert f0.read_bytes() != f1.read_bytes()

    def test_trials_need_file_out(self, capsys):
        rc = main(["generate", "--steps", "5", "--p", "0.5", "--trials", "2"])
        assert rc == 2


class TestAnalytic:
    def test_beta_three_uniform(self, capsys):
        assert main(["analytic", "--p", "1", "--mu", "3"]) == 0
        assert capsys.readouterr().out == "beta=2.5\n"

    def test_beta_graph(self, capsys):
        main(["analytic", "--p", "1", "--mu", "2"])
        assert capsys.readouterr().out == "beta=3\n"

    def test_mk_table(self, capsys):
        main(["analytic", "--p", "0.5", "--mu", "3", "--kmax", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta=2.2"
        assert lines[1] == "k,M_k"
        expected = analytic_mk(0.5, 3.0, 3)
        for row, want in zip(lines[2:], expected):
            k, value = row.split(",")
            assert float(value) == pytest.approx(want, rel=1e-9)
        assert float(lines[2].split(",")[1]) == pytest.approx(3 / 11, rel=1e-9)

    def test_bad_kmax_prints_nothing(self, capsys):
        for kmax in ("0", TOO_BIG):
            assert main(["analytic", "--p", "0.5", "--mu", "3", "--kmax", kmax]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--kmax" in captured.err

    def test_mu_not_above_p(self, capsys):
        for mu in ("0.5", "inf"):
            assert main(["analytic", "--p", "1", "--mu", mu]) == 2
            assert "--mu" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["analytic", "--mu", "3", "--sweep-p", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        p, bg, bh = rows[-1].split(",")
        assert (float(p), float(bg), float(bh)) == (1.0, 3.0, 2.5)
        p0, bg0, bh0 = map(float, rows[0].split(","))
        assert p0 == 0.2 and bg0 == pytest.approx(2 + 0.2 / 1.8)

    def test_sweep_requires_mu_above_one(self, capsys):
        assert main(["analytic", "--mu", "1.0", "--sweep-p", "4"]) == 2

    @pytest.mark.parametrize("extra", [["--p", "0.5"], ["--kmax", "3"]], ids=["p", "kmax"])
    def test_sweep_refuses_p_and_kmax(self, capsys, extra):
        """A sweep takes p from its grid and prints no M_k table, so --p or
        --kmax beside it is one error line, not a flag dropped silently."""
        assert main(["analytic", "--mu", "3", *extra, "--sweep-p", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --sweep-p") and err.count("\n") == 1


class TestPipelines:
    def test_degrees_to_stdout(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_text("0 0 0\n0 1\n")
        assert main(["degrees", "--in", str(h), "--out", "-"]) == 0
        assert capsys.readouterr().out == "degree,count\n1,1\n4,1\n"

    def test_degrees_of_non_utf8_file(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_bytes(b"0 1\n\xff 0\n")
        assert main(["degrees", "--in", str(h), "--out", "-"]) == 2
        assert capsys.readouterr().err == "error: line 2: non-integer token '\\xff'\n"

    def test_fit_of_non_utf8_file(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_bytes(b"degree,count\r\n1,\xff\r\n")
        assert main(["fit", "--in", str(hist), "--kmin", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: 'utf-8' codec can't decode byte 0xff in position 2: "
            "invalid start byte\n")

    def test_ingest_of_non_utf8_file(self, tmp_path, capsys):
        rec = tmp_path / "records.txt"
        rec.write_bytes(b"a;b\nb;\xe9\n")
        assert main(["ingest", "--in", str(rec), "--out", "-"]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: 'utf-8' codec can't decode byte 0xe9 in position 2: "
            "unexpected end of data\n")

    def test_fit_tail_too_small(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n1,3\n2,2\n3,1\n5,1\n8,1\n")
        rc = main(["fit", "--in", str(hist), "--kmin", "2"])
        assert rc == 2
        assert "tail too small" in capsys.readouterr().err

    @pytest.mark.parametrize("kmin", ["5", "auto"])
    def test_fit_single_value_tail(self, tmp_path, capsys, kmin):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n5,100\n")
        assert main(["fit", "--in", str(hist), "--kmin", kmin]) == 2
        assert capsys.readouterr().err == (
            "error: degrees in tail are all equal; exponent undefined\n")

    def test_fit_duplicate_degree_row(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n5,10\n5,3\n6,20\n")
        assert main(["fit", "--in", str(hist), "--kmin", "5"]) == 2
        assert "line 3: duplicate degree 5" in capsys.readouterr().err

    def test_fit_non_positive_row(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n0,5\n")
        assert main(["fit", "--in", str(hist), "--kmin", "5"]) == 2
        assert "line 2: degree and count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["99999999999999999999,5", "2,99999999999999999999"])
    def test_fit_row_past_int64(self, tmp_path, capsys, row):
        hist = tmp_path / "hist.csv"
        hist.write_text(f"degree,count\n1,5\n{row}\n")
        assert main(["fit", "--in", str(hist), "--kmin", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: degree and count must be positive and fit int64, "
            f"got {row!r}\n")

    def test_fit_count_total_past_int64(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n1,9223372036854775807\n2,5\n3,5\n")
        assert main(["fit", "--in", str(hist), "--kmin", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: count total 9223372036854775812 does not fit int64\n")

    def test_generate_project_degrees_fit(self, tmp_path, capsys):
        h, g, hist, rep = (tmp_path / n for n in
                           ("h.txt", "g.txt", "hist.csv", "fit.txt"))
        main(["generate", "--steps", "10000", "--p", "1", "--size", "const:3",
              "--y0", "3", "--seed", "11", "--out", str(h)])
        main(["project", "--in", str(h), "--out", str(g)])
        main(["degrees", "--in", str(g), "--out", str(hist)])
        rc = main(["fit", "--in", str(hist), "--kmin", "auto", "--out", str(rep)])
        assert rc == 0
        beta = float(rep.read_text().splitlines()[0].split("=")[1])
        assert 2.3 <= beta <= 2.7

    def test_edge_sizes_filter(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        h.write_text("0 1\n0 1 2\n1 2 3 3\n")
        assert main(["edge-sizes", "--in", str(h), "--out", "-"]) == 0
        assert capsys.readouterr().out == "degree,count\n3,1\n4,1\n"
        assert main(["edge-sizes", "--in", str(h), "--out", "-",
                     "--min-size", "1"]) == 0
        assert capsys.readouterr().out == "degree,count\n2,1\n3,1\n4,1\n"

    def test_edge_size_fit_recovers_zipf_exponent(self, tmp_path):
        h, hist, rep = (tmp_path / n for n in ("h.txt", "s.csv", "fit.txt"))
        main(["generate", "--steps", "30000", "--p", "0.5", "--size",
              "zipf:4.66:3:134", "--seed", "5", "--no-cap", "--out", str(h)])
        main(["edge-sizes", "--in", str(h), "--out", str(hist)])
        assert main(["fit", "--in", str(hist), "--kmin", "3", "--out", str(rep)]) == 0
        beta = float(rep.read_text().splitlines()[0].split("=")[1])
        assert beta == pytest.approx(4.66, abs=0.2)

    def test_ingest(self, tmp_path, capsys):
        rec = tmp_path / "rec.txt"
        rec.write_text("ann;bob\nbob;cat;ann\n")
        out, labels = tmp_path / "h.txt", tmp_path / "labels.csv"
        rc = main(["ingest", "--in", str(rec), "--out", str(out),
                   "--labels-out", str(labels)])
        assert rc == 0
        assert out.read_text() == "0 1\n0 1 2\n"
        assert labels.read_text() == "id,label\n0,ann\n1,bob\n2,cat\n"

    def test_ingest_empty_record(self, tmp_path, capsys):
        rec = tmp_path / "rec.txt"
        rec.write_text("ann;bob\n\n")
        assert main(["ingest", "--in", str(rec), "--out", "-"]) == 2
        assert "empty record" in capsys.readouterr().err

    def test_ingest_empty_delimiter(self, tmp_path, capsys):
        rec = tmp_path / "rec.txt"
        rec.write_text("ann;bob\n")
        assert main(["ingest", "--in", str(rec), "--out", "-", "--delimiter", ""]) == 2
        assert capsys.readouterr().err == "error: --delimiter must be non-empty\n"


class TestCompare:
    def test_outputs_and_analytic_lines(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        rc = main(["compare", "--steps", "4000", "--p", "1", "--d", "3",
                   "--seed", "2", "--out-prefix", str(prefix)])
        assert rc == 0
        for suffix in ("hypergraph_ccdf.csv", "hypergraph_fit.txt",
                       "graph_ccdf.csv", "graph_fit.txt"):
            assert (tmp_path / f"cmp.{suffix}").exists()
        out = capsys.readouterr().out
        assert "beta_analytic_hypergraph=2.50000" in out
        assert "beta_analytic_graph=3.00000" in out
        fitted = {line.split("=")[0]: float(line.split("=")[1])
                  for line in out.strip().splitlines()}
        assert 1.5 < fitted["beta_hat_hypergraph"] < 4.0
        assert 1.5 < fitted["beta_hat_graph"] < 4.0

    def test_half_p_analytic_pair(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        rc = main(["compare", "--steps", "3000", "--p", "0.5", "--d", "3",
                   "--seed", "6", "--out-prefix", str(prefix)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta_analytic_hypergraph=2.20000" in out
        assert "beta_analytic_graph=2.33333" in out

    def test_d_two_analytic_values_coincide(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        rc = main(["compare", "--steps", "3000", "--p", "0.8", "--d", "2",
                   "--seed", "4", "--out-prefix", str(prefix)])
        assert rc == 0
        out = capsys.readouterr().out
        hyper = next(l for l in out.splitlines() if l.startswith("beta_analytic_hypergraph"))
        graph = next(l for l in out.splitlines() if l.startswith("beta_analytic_graph"))
        assert hyper.split("=")[1] == graph.split("=")[1]

    def test_peak_memory(self, tmp_path):
        """compare keeps degrees, not the projection's pair array, so its
        traced peak stays a small multiple of the hypergraph's tokens, here
        counted at 8 bytes each."""
        config = GeneratorConfig(p=1.0, steps=200_000, size_dist=Constant(3), y0=3, seed=7)
        token_bytes = 8 * evolve(config).total_degree
        _, peak = traced_peak(cli._compare_one, config, "auto", str(tmp_path / "cmp"))
        assert peak < 2.5 * token_bytes

    def test_d_below_two_rejected(self, capsys):
        assert main(["compare", "--steps", "10", "--p", "0.5", "--d", "1",
                     "--out-prefix", "x"]) == 2
        assert "--d" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--steps", "10", "--p", "0.5", "--y0", "0", "--out", "OUT"], "--y0"),
    (["generate", "--steps", "10", "--p", "0.5", "--cap-exponent", "0.6",
      "--out", "OUT"], "--cap-exponent"),
    (["compare", "--steps", "10", "--p", "0", "--trials", "2", "--jobs", "2",
      "--out-prefix", "OUT"], "--p"),
    (["compare", "--steps", "-1", "--p", "0.5", "--out-prefix", "OUT"], "--steps"),
    (["compare", "--steps", "2000", "--p", "0.5", "--kmin", "0",
      "--out-prefix", "OUT"], "--kmin"),
    (["compare", "--steps", "2000", "--p", "0.5", "--kmin", "0", "--trials", "2",
      "--out-prefix", "OUT"], "--kmin"),
    (["generate", "--steps", "10", "--p", "0.5", "--seed", "-1", "--out", "OUT"], "--seed"),
    (["compare", "--steps", "10", "--p", "0.5", "--seed", "-1", "--trials", "2",
      "--jobs", "2", "--out-prefix", "OUT"], "--seed"),
    # a trial whose fit fails leaves none of its files
    (["compare", "--steps", "0", "--p", "1", "--out-prefix", "OUT"],
     "error: tail too small: no cutoff leaves >= 10 items"),
    (["compare", "--steps", "100", "--p", "1", "--kmin", TOO_BIG, "--out-prefix", "OUT"],
     f"error: tail too small: 0 items with value >= {TOO_BIG}"),
])
def test_bad_value_names_flag_and_writes_nothing(tmp_path, capsys, argv, flag):
    out = str(tmp_path / "out")
    assert main([out if a == "OUT" else a for a in argv]) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag, call", [
    (["analytic", "--p", "1.5", "--mu", "3"], "--p", lambda: analytic_beta(1.5, 3.0)),
    (["analytic", "--p", "1", "--mu", "0.5"], "--mu", lambda: analytic_beta(1.0, 0.5)),
    (["analytic", "--p", "1", "--mu", "inf"], "--mu",
     lambda: analytic_beta(1.0, float("inf"))),
    (["analytic", "--p", "0.5", "--mu", "3", "--kmax", "0"], "--kmax",
     lambda: analytic_mk(0.5, 3.0, 0)),
    (["analytic", "--mu", "1.0", "--sweep-p", "4"], "--mu", lambda: analytic_beta(1.0, 1.0)),
    (["compare", "--steps", "10", "--p", "0.5", "--d", "1", "--out-prefix", "OUT"], "--d",
     lambda: Constant(1)),
    (["generate", "--steps", "10", "--p", "0.5", "--y0", "0", "--out", "OUT"], "--y0",
     lambda: GeneratorConfig(0.5, 10, Constant(3), y0=0)),
], ids=["p", "mu", "mu-inf", "kmax", "sweep-mu", "compare-d", "generate-y0"])
def test_rejected_value_is_library_message_under_flag(tmp_path, capsys, argv, flag, call):
    """The CLI reports the library's own message, its parameter name
    replaced by the flag, and writes nothing to stdout or to disk."""
    with pytest.raises(ValueError) as rejected:
        call()
    name, _, rest = str(rejected.value).partition(" ")
    assert name == flag[2:]
    assert main([str(tmp_path / "out") if a == "OUT" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {rest}\n")
    assert list(tmp_path.iterdir()) == []


def test_message_of_no_parameter_passes_unchanged(capsys):
    """An M_k table past numpy's array size limit is too large for memory,
    as one numpy can size but not allocate is: it exits 1 with numpy's
    message as it is."""
    kmax = 4611686018427387904
    with pytest.raises(MemoryError) as rejected:
        analytic_mk(0.5, 3.0, kmax)
    assert main(["analytic", "--p", "0.5", "--mu", "3", "--kmax", str(kmax)]) == 1
    assert capsys.readouterr() == ("", f"error: {rejected.value}\n")


@pytest.mark.parametrize("command, target", [("generate", "--out"),
                                             ("compare", "--out-prefix")])
def test_pool_has_one_worker_per_trial_at_most(tmp_path, capsys, monkeypatch,
                                               command, target):
    """--jobs above --trials builds a pool of --trials workers, and one
    trial builds none; the outputs are those of a run with --jobs 1.  The
    pool is a stand-in that records its size and maps in this process."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)

    def run(trials, jobs):
        name = tmp_path / f"t{trials}j{jobs}" / "run"
        name.parent.mkdir()
        assert main([command, "--steps", "2000", "--p", "1", "--seed", "3",
                     "--trials", trials, "--jobs", jobs, target, str(name)]) == 0
        files = {f.name: f.read_bytes() for f in name.parent.iterdir()}
        return capsys.readouterr(), files

    assert run("2", "64") == run("2", "1")
    assert sizes == [2]
    assert run("1", "8") == run("1", "1")
    assert sizes == [2]


@pytest.mark.parametrize("config", [
    GeneratorConfig(0.5, 200_000, Constant(3), seed=7),
    GeneratorConfig(0.5, 20_000, UniformInt(2, 200), seed=7, enforce_cap=False),
], ids=["const:3", "uniform:2:200"])
def test_generate_peak_is_its_output_and_a_piece(tmp_path, config):
    """generate's traced peak is its tokens and offsets and within a
    megabyte more: no per-step array beside the offsets through the fill,
    and writer pieces of a bounded number of ids, whatever the edge sizes."""
    h = evolve(config)
    output = h.tokens.nbytes + h.offsets.nbytes
    del h
    _, peak = traced_peak(cli._generate_one, config, str(tmp_path / "h.txt"))
    assert peak <= output + 2**20


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--size", f"const:{TOO_BIG}"], "--size"),
    (["generate", "--size", f"uniform:2:{TOO_BIG}"], "--size"),
    (["generate", "--size", f"zipf:2.5:2:{TOO_BIG}"], "--size"),
    (["generate", "--size", "zipf:nan:2:5"], "--size"),
    (["generate", "--size", "zipf:inf:2:5"], "--size"),
    (["generate", "--size", "zipf:1e308:2:5"], "--size"),
    (["generate", "--y0", TOO_BIG], "--y0"),
    (["compare", "--d", TOO_BIG], "--d"),
    (["generate", "--steps", TOO_BIG], "--steps"),
    (["generate", "--size", f"const:{2**63 - 1}", "--no-cap"], "token count"),
    (["compare", "--d", str(2**63 - 1)], "token count"),
])
def test_oversized_value_is_one_error_line(tmp_path, capsys, argv, flag):
    """Values past int64, or a zipf exponent whose weights are NaN, are
    rejected before any work, with one line naming the flag; sizes whose
    sum passes int64 with one line naming the token count."""
    out = str(tmp_path / "out")
    target = ["--out-prefix", out] if argv[0] == "compare" else ["--out", out]
    steps = [] if "--steps" in argv else ["--steps", "10"]
    assert main(argv + steps + ["--p", "0.5"] + target) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["generate", "--y0", "1000000000000000"],
    ["compare", "--d", "1000000000000000", "--out-prefix", "OUT"],
])
def test_array_past_memory_is_one_error_line(tmp_path, args):
    """An array too large to allocate exits 1 with one line, no traceback."""
    args = [str(tmp_path / "out") if a == "OUT" else a for a in args]
    code, out, err = _run_cli(args + ["--steps", "1", "--p", "0.5"])
    assert code == 1 and out == b""
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
    assert b"Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_fit_bad_kmin_writes_nothing(tmp_path, capsys):
    hist, rep = tmp_path / "hist.csv", tmp_path / "fit.txt"
    hist.write_text("degree,count\n1,50\n2,20\n3,9\n")
    assert main(["fit", "--in", str(hist), "--kmin", "0", "--out", str(rep)]) == 2
    assert "--kmin" in capsys.readouterr().err
    assert not rep.exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _run_cli(args, stdin=b"", closed=()):
    """(exit code, stdout, stderr) of `python -m pahyper.cli *args`, with
    the file descriptors in closed (0 for stdin, 1 for stdout, 2 for
    stderr) closed in the child before it starts, as `<&-`, `>&-` and `2>&-`
    close them."""
    src = str(Path(pahyper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def close():
        for fd in closed:
            os.close(fd)

    proc = subprocess.run([sys.executable, "-m", "pahyper.cli", *args], input=stdin,
                          capture_output=True, env=env, timeout=120,
                          preexec_fn=close if closed else None)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("rows", ["1,50\n1000000000000000000,6\n1000000000000000001,6\n",
                                  "1,50\n4611686018427387904,5\n4611686018427387905,5\n"],
                         ids=["1e18", "2^62"])
def test_fit_auto_passes_over_a_nan_cutoff(tmp_path, rows):
    """At the top cutoff the fitted zeta(beta, cut) underflows to 0 and the
    KS distance is NaN: the scan keeps the fit at 1, and no numpy warning
    reaches stderr."""
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n" + rows)
    code, out, err = _run_cli(["fit", "--in", str(hist), "--kmin", "auto"])
    assert (code, err) == (0, b"")
    assert b"k_min=1\n" in out


_SCIPY_PROBE = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def _probe(code: str, cwd) -> bytes:
    """The stdout of `python -c code` with the library on its path."""
    src = str(Path(pahyper.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120,
                          check=True).stdout


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    """The fit's bounded search and its zeta are numpy code, so importing
    the CLI loads no scipy module (once half the memory and two thirds of
    the start-up of every process)."""
    probe = "import sys, pahyper.cli; " + _SCIPY_PROBE
    assert _probe(probe, tmp_path) == b"[]\n"


def test_fit_and_compare_load_no_scipy(tmp_path):
    """An auto fit and a compare, which fit with zeta, load no scipy
    module either."""
    probe = "; ".join([
        "import sys",
        "from pahyper.cli import main",
        "assert main(['generate', '--steps', '3000', '--p', '0.5', '--seed', '7', "
        "'--out', 'h.txt']) == 0",
        "assert main(['degrees', '--in', 'h.txt', '--out', 'd.csv']) == 0",
        "assert main(['fit', '--in', 'd.csv', '--kmin', 'auto', '--out', 'f.txt']) == 0",
        "assert main(['compare', '--steps', '3000', '--p', '1', '--seed', '7', "
        "'--out-prefix', 'cmp']) == 0",
        _SCIPY_PROBE])
    assert _probe(probe, tmp_path).splitlines()[-1] == b"[]"
    assert (tmp_path / "f.txt").read_text().startswith("beta_hat=")


def test_commands_load_no_module_past_the_cli_import(tmp_path):
    """generate, degrees, an auto fit, compare and project (multigraph and
    simple) import nothing that `import pahyper.cli` has not: no lazy import
    (numpy.ma behind np.unique, numpy.char) adds to start-up or memory."""
    probe = "; ".join([
        "import sys",
        "from pahyper.cli import main",
        "loaded = set(sys.modules)",
        "assert main(['generate', '--steps', '3000', '--p', '0.5', '--seed', '7', "
        "'--out', 'h.txt']) == 0",
        "assert main(['degrees', '--in', 'h.txt', '--out', 'd.csv']) == 0",
        "assert main(['fit', '--in', 'd.csv', '--kmin', 'auto', '--out', 'f.txt']) == 0",
        "assert main(['compare', '--steps', '3000', '--p', '1', '--seed', '7', "
        "'--out-prefix', 'cmp']) == 0",
        "assert main(['project', '--in', 'h.txt', '--out', 'g.txt']) == 0",
        "assert main(['project', '--in', 'h.txt', '--out', 's.txt', '--simple']) == 0",
        "print(sorted(set(sys.modules) - loaded))"])
    assert _probe(probe, tmp_path).splitlines()[-1] == b"[]"
    assert (tmp_path / "cmp.graph_ccdf.csv").read_text().startswith("degree,ccdf\n")


@pytest.mark.parametrize("data", [
    b"0 0 0\n0 1 2\n2 1\n",
    b"# comment\r\n0 1\r\n1 0 1\r\n",
    b"0 1\n\xff 0\n",
    b"0 2\n2 0\n",
], ids=["canonical", "crlf-and-comment", "not-utf8", "id-gap"])
def test_degrees_of_stdin_as_of_file(tmp_path, data):
    path = tmp_path / "h.txt"
    path.write_bytes(data)
    assert (_run_cli(["degrees", "--in", "-"], stdin=data)
            == _run_cli(["degrees", "--in", str(path)]))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("data", [
    None,                               # a generated file, larger than a pipe's buffer
    b"# comment\r\n0 1\r\n1 0 1\r\n",
    b"0 1\n\xff 0\n",
    b"0 2\n2 0\n",
], ids=["generated", "crlf-and-comment", "not-utf8", "id-gap"])
def test_degrees_of_fifo_as_of_file(tmp_path, capsys, data):
    """A path that cannot seek is read whole, as stdin is."""
    path = tmp_path / "h.txt"
    if data is None:
        cfg = GeneratorConfig(p=0.5, steps=20_000, size_dist=Constant(3), seed=7)
        pahyper.write_hypergraph(evolve(cfg), str(path))
        data = path.read_bytes()
    else:
        path.write_bytes(data)
    code = main(["degrees", "--in", str(path), "--out", "-"])
    from_file = code, capsys.readouterr()
    with fed(data, tmp_path / "h.fifo") as fifo:
        code = main(["degrees", "--in", str(fifo), "--out", "-"])
    assert (code, capsys.readouterr()) == from_file


@pytest.mark.parametrize("command", ["degrees", "project", "edge-sizes"])
def test_unusable_temporary_directory_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                         command):
    """A pipe on stdin is copied to a temporary file before it is read: a
    temporary directory that does not exist ends in one error line and exit
    1."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    with fed(b"0 1\n1 0\n") as pipe:
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(pipe))
        assert main([command, "--in", "-", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, fd", [
    (["degrees", "--in", "-"], 0),
    (["fit", "--in", "-"], 0),
    (["generate", "--steps", "10", "--p", "0.5"], 1),
    (["analytic", "--p", "0.5", "--mu", "3"], 1),
], ids=["degrees-stdin", "fit-stdin", "generate-stdout", "analytic-stdout"])
def test_closed_stdio_is_one_error_line(args, fd):
    """Python sets sys.stdin or sys.stdout to None when its descriptor is
    closed at start; reading or writing '-' then ends in one error line."""
    code, _, err = _run_cli(args, closed=(fd,))
    assert code == 1 and err.startswith(b"error: ") and err.count(b"\n") == 1


def test_closed_stdio_spares_outputs_to_files(tmp_path):
    path, got, want = tmp_path / "h.txt", tmp_path / "got.csv", tmp_path / "want.csv"
    path.write_bytes(b"0 0 0\n0 1 2\n2 1\n")
    assert _run_cli(["degrees", "--in", str(path), "--out", str(got)],
                    closed=(0, 1)) == (0, b"", b"")
    assert main(["degrees", "--in", str(path), "--out", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()


def _stderr_runs(tmp_path):
    """{name: args but --out} of generate, project and fit, which end in a
    diagnostic line, with their input files made, and of an I/O error and
    a usage error."""
    h, d = tmp_path / "h.txt", tmp_path / "d.csv"
    assert main(["generate", "--steps", "2000", "--p", "0.5", "--seed", "3",
                 "--out", str(h)]) == 0
    assert main(["degrees", "--in", str(h), "--out", str(d)]) == 0
    return {"generate": ["generate", "--steps", "2000", "--p", "0.5", "--seed", "3"],
            "project": ["project", "--in", str(h)],
            "fit": ["fit", "--in", str(d), "--kmin", "auto"],
            "io-error": ["degrees", "--in", str(tmp_path / "missing.txt")],
            "usage-error": ["generate", "--steps", "-1", "--p", "0.5"]}


STDERR_RUNS = [("generate", 0), ("project", 0), ("fit", 0), ("io-error", 1),
               ("usage-error", 2)]


@pytest.mark.parametrize("command, code", STDERR_RUNS)
def test_closed_stderr_keeps_the_exit_code(tmp_path, capsys, command, code):
    """With fd 2 closed a diagnostic line is dropped, not written to
    stdout: a command exits 0 with its output written, an error with its
    own exit code and no output."""
    args = _stderr_runs(tmp_path)[command]
    got, want = tmp_path / "got", tmp_path / "want"
    assert _run_cli(args + ["--out", str(got)], closed=(2,)) == (code, b"", b"")
    assert main(args + ["--out", str(want)]) == code
    assert capsys.readouterr().err != ""
    assert got.exists() == want.exists() == (code == 0)
    assert code or got.read_bytes() == want.read_bytes()


class _Unwritable:
    """A stderr whose every write and flush fails, as one open on a file
    that is not open for writing."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    flush = write


@pytest.mark.parametrize("command, code", STDERR_RUNS)
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, monkeypatch, command, code):
    """A diagnostic line that cannot be written fails neither the command
    nor the handler of a real error, which returns its own exit code."""
    args = _stderr_runs(tmp_path)[command]
    monkeypatch.setattr(sys, "stderr", _Unwritable())
    assert main(args + ["--out", str(tmp_path / "out")]) == code
    assert (tmp_path / "out").exists() == (code == 0)


def test_cli_import_loads_no_process_pool(tmp_path):
    """The process pool is imported by a run that uses one, not by the CLI
    import: no multiprocessing module, nor concurrent.futures.process."""
    probe = ("import sys, pahyper.cli; print(sorted(m for m in sys.modules if "
             "m.lstrip('_').split('.')[0] == 'multiprocessing' "
             "or m == 'concurrent.futures.process'))")
    assert _probe(probe, tmp_path) == b"[]\n"


def test_closed_stdout_exits_quietly():
    # like `pahyper generate ... | head -1`
    src = str(Path(pahyper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    with subprocess.Popen(
            [sys.executable, "-m", "pahyper.cli", "generate", "--steps", "200000",
             "--p", "0.5"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env) as proc:
        assert proc.stdout.readline() == b"0 0 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_CLOSED_STDOUT
    assert err == b""
