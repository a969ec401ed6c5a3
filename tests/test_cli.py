"""End-to-end tests of the command-line surface (in-process main calls)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pahyper
from pahyper import analytic_mk
from pahyper.cli import EXIT_CLOSED_STDOUT, main, parse_size_dist
from pahyper.generator import Constant, TruncatedZipf, UniformInt


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

    def test_mu_not_above_p(self, capsys):
        assert main(["analytic", "--p", "1", "--mu", "0.5"]) == 2
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
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 4: "
            "invalid start byte\n")

    def test_fit_tail_too_small(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("degree,count\n1,3\n2,2\n3,1\n5,1\n8,1\n")
        rc = main(["fit", "--in", str(hist), "--kmin", "2"])
        assert rc == 2
        assert "tail too small" in capsys.readouterr().err

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

    def test_d_below_two_rejected(self, capsys):
        assert main(["compare", "--steps", "10", "--p", "0.5", "--d", "1",
                     "--out-prefix", "x"]) == 2
        assert "--d" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
