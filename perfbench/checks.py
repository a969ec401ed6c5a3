"""Output checks on the files a workload's pass wrote.

Each function returns {command index: [failure messages]}.  The checks hold
for any seed:

  - total degree (hypergraph tokens, histogram sum of k*count) equals
    sum_sizes_trace(cfg)[-1], and the hypergraph file has steps + 1 lines;
  - each ccdf file starts at 1, runs over consecutive degrees and does not
    increase;
  - each fitted beta_hat lies within BETA_TOL + BETA_SE * (beta_hat - 1) /
    sqrt(n_tail) of analytic_beta(p, mu).  The constant part covers the
    finite-size bias of small cutoffs (at most 0.15 over seeds 1-8 at full
    size), the second part the MLE standard error of small tails.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

from pahyper.analysis import analytic_beta
from pahyper.generator import Constant, GeneratorConfig, sum_sizes_trace

BETA_TOL = 0.25
BETA_SE = 4.0


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.split() if "=" in line)


def _histogram(path: Path) -> dict[int, int]:
    lines = path.read_text().splitlines()
    if lines[0] != "degree,count":
        raise ValueError(f"{path.name}: bad header")
    return {int(k): int(c) for k, c in (line.split(",") for line in lines[1:])}


def _hypergraph_sizes(path: Path) -> list[int]:
    return [len(line.split()) for line in path.read_text().splitlines()]


class Checker:
    def __init__(self) -> None:
        self.failures: dict[int, list[str]] = defaultdict(list)

    def __call__(self, cmd: int, ok: bool, message: str) -> None:
        if not ok:
            self.failures[cmd].append(message)

    def fit(self, cmd: int, path: Path, p: float, mu: float, k_min=None) -> float:
        report = _key_values(path.read_text())
        beta_hat, n_tail = float(report["beta_hat"]), int(report["n_tail"])
        beta = analytic_beta(p, mu)
        tol = BETA_TOL + BETA_SE * (beta_hat - 1.0) / math.sqrt(n_tail)
        self(cmd, abs(beta_hat - beta) <= tol,
             f"{path.name}: beta_hat {beta_hat} not within {tol:.3f} of {beta:.4f}")
        if k_min is not None:
            self(cmd, int(report["k_min"]) == k_min, f"{path.name}: k_min {report['k_min']}")
        return beta_hat

    def hypergraph_file(self, cmd: int, path: Path, steps: int, total: int) -> None:
        sizes = _hypergraph_sizes(path)
        self(cmd, len(sizes) == steps + 1, f"{path.name}: {len(sizes)} lines, want {steps + 1}")
        self(cmd, sum(sizes) == total, f"{path.name}: {sum(sizes)} tokens, want {total}")

    def degree_histogram(self, cmd: int, path: Path, total: int) -> dict[int, int]:
        hist = _histogram(path)
        got = sum(k * c for k, c in hist.items())
        self(cmd, got == total, f"{path.name}: total degree {got}, want {total}")
        return hist


def gen_degrees_fit(wl, work: Path, commands) -> dict[int, list[str]]:
    check = Checker()
    cfg = GeneratorConfig(p=0.5, steps=wl.steps, size_dist=Constant(3), seed=wl.seed)
    total = int(sum_sizes_trace(cfg)[-1])
    check.hypergraph_file(0, work / "hypergraph.txt", wl.steps, total)
    summary = _key_values(commands[0]["stderr"])
    check(0, summary.get("total_degree") == str(total), "generate: summary total_degree")
    hist = check.degree_histogram(1, work / "degrees.csv", total)
    check(1, str(sum(hist.values())) == summary.get("num_vertices"),
          "degrees.csv: vertex count differs from generate's num_vertices")
    check.fit(2, work / "fit.txt", 0.5, 3.0, k_min=5)
    return check.failures


def compare_d3(wl, work: Path, commands) -> dict[int, list[str]]:
    check = Checker()
    printed = _key_values(commands[0]["stdout"])
    for tag, mu in (("hypergraph", 3.0), ("graph", 2.0)):
        beta_hat = check.fit(0, work / f"compare.{tag}_fit.txt", 1.0, mu)
        check(0, printed.get(f"beta_hat_{tag}") == f"{beta_hat:#.6g}",
              f"compare: printed beta_hat_{tag} differs from the fit report")
        rows = (work / f"compare.{tag}_ccdf.csv").read_text().splitlines()
        ks, ps = zip(*((int(k), float(v)) for k, v in (r.split(",") for r in rows[1:])))
        check(0, rows[0] == "degree,ccdf" and ps[0] == 1.0
              and all(a >= b for a, b in zip(ps, ps[1:]))
              and list(ks) == list(range(ks[0], ks[0] + len(ks))),
              f"compare.{tag}_ccdf.csv: not a ccdf over consecutive degrees")
    return check.failures


CHECKS = {"gen_degrees_fit": gen_degrees_fit, "compare_d3": compare_d3}
