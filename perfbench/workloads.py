"""Workload definitions shared by the orchestrator (run.py) and the pass
worker (worker.py).

A workload is the list of CLI argument vectors of one pass.  Paths are
built under a work directory; `steps` is the workload's stated input size in
hypergraph steps, scaled by `scale` for quick self-tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

NAMES = ("gen_degrees_fit", "compare_d3")
DEFAULT_SEED = 7
FULL_STEPS = {"gen_degrees_fit": 1_000_000, "compare_d3": 1_000_000}


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    seed: int
    commands: list[list[str]]   # CLI argv lists of one timed pass
    outputs: dict[str, int]     # file a pass writes (relative to the work
                                # dir) -> index of the command writing it


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build(name: str, seed: int, scale: float, work: Path) -> Workload:
    steps = max(1000, round(FULL_STEPS[name] * scale))
    w = str(work)

    def at(rel: str) -> str:
        return f"{w}/{rel}"

    if name == "gen_degrees_fit":
        commands = [
            ["generate", "--steps", str(steps), "--p", "0.5", "--size", "const:3",
             "--seed", str(seed), "--out", at("hypergraph.txt")],
            ["degrees", "--in", at("hypergraph.txt"), "--out", at("degrees.csv")],
            ["fit", "--in", at("degrees.csv"), "--out", at("fit.txt"), "--kmin", "5"],
        ]
        return Workload(name, steps, seed, commands,
                        {"hypergraph.txt": 0, "degrees.csv": 1, "fit.txt": 2})
    if name == "compare_d3":
        commands = [
            ["compare", "--steps", str(steps), "--p", "1", "--d", "3",
             "--seed", str(seed), "--out-prefix", at("compare")],
        ]
        outputs = {f"compare.{tag}_{kind}": 0 for tag in ("hypergraph", "graph")
                   for kind in ("ccdf.csv", "fit.txt")}
        return Workload(name, steps, seed, commands, outputs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
