"""Golden sha256 digests of CLI outputs at 2*10^4 steps, seed 7, plus one
generate run at 10^5 steps.

For a fixed config and seed every output file is byte-identical; these
digests pin that contract across rewrites of the storage and the layers
above it.  The zipf file mixes edge sizes, so its derived outputs also check
that edges keep their arrival order across size classes.  No benchmark
workload runs `project --simple`; this is its only byte-level guard.  The
10^5-step file has more rows than one write piece and spans several
generation chunks.
"""

import hashlib
import os

import pytest

from pahyper import cli, core
from pahyper.cli import main

STEPS = "20000"
LONG_STEPS = "100000"

GENERATE = {
    "const3.txt": ["--size", "const:3"],
    "uniform.txt": ["--size", "uniform:2:6"],
    "zipf.txt": ["--size", "zipf:2.5:2:20"],
    "nocap.txt": ["--size", "zipf:2.5:2:20", "--no-cap"],
}

DERIVED = {
    "zipf_degrees.csv": ["degrees"],
    "zipf_sizes.csv": ["edge-sizes", "--min-size", "1"],
    "zipf_project.txt": ["project"],
    "zipf_simple.txt": ["project", "--simple"],
}

GOLDEN = {
    "const3.txt":
        "b9f2aebc6a6759eb154aac96abf01f56007a9634ebd467c9bfcf687a9f621057",
    "uniform.txt":
        "aead6891c18e6f04a772472df33507439001e59ed649ea442785d3ff6efe0870",
    "zipf.txt":
        "ab066720f405ebcb64a78373ce474132c5854c7112e44a1bf97f3b3a52807252",
    "nocap.txt":
        "76a8e18458942be1553de1f7308f5b77245645fe6f1ddf6d99f4719250340382",
    "zipf_long.txt":
        "049f148d01bc17a46d7588ae2c30870fb8508b679d9fc5b1f77e8cbe411a3e3a",
    "zipf_degrees.csv":
        "f293428619813f68f6c03785d697d5b8d6f7042866ff5d7b108427db0f0f0913",
    "zipf_sizes.csv":
        "b71b69cc32b03053c17dd93d937a701dfdc3e544ad5df7a17a1d979c5d4f091e",
    "zipf_project.txt":
        "c2874f8a06d64b0a1438d2eee40c86cb3d26c91ee85df868436856928afba85d",
    "zipf_simple.txt":
        "bd4ff4fbfc5907e4722a00703a48e43f5404ca1ad3e5668c14ab1faa8a2bbb0f",
    "cmp.hypergraph_ccdf.csv":
        "b572de8422b05a0f8eca408d6a9893d7dba57fb6fe0161e845a3fedb40743776",
    "cmp.hypergraph_fit.txt":
        "2e171be0f6f65810d78dffc8ba0fa5179e6a72f9f2abb21791c31e0b4de632ae",
    "cmp.graph_ccdf.csv":
        "3b50698bc79db0c81698084cfefe480c07ca51764046f070e3fb6cd22d9d0cb6",
    "cmp.graph_fit.txt":
        "ec2b97363d70f85207c3224963011bad7359ce7ca6589973ff3e522321b280b2",
}


def _write_outputs(work):
    for name, size in GENERATE.items():
        assert main(["generate", "--steps", STEPS, "--p", "0.5", "--seed", "7",
                     *size, "--out", str(work / name)]) == 0
    assert main(["generate", "--steps", LONG_STEPS, "--p", "0.5", "--seed", "7",
                 "--size", "zipf:2.5:2:20",
                 "--out", str(work / "zipf_long.txt")]) == 0
    for name, command in DERIVED.items():
        assert main([*command, "--in", str(work / "zipf.txt"),
                     "--out", str(work / name)]) == 0
    assert main(["compare", "--steps", STEPS, "--p", "1", "--d", "3",
                 "--seed", "7", "--out-prefix", str(work / "cmp")]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    _write_outputs(work)
    return work


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_outputs_on_the_int64_path(outputs, tmp_path, monkeypatch):
    """Every index array int64, as past core.INDEX_LIMIT: the same bytes."""
    monkeypatch.setattr(core, "INDEX_LIMIT", 0)
    _write_outputs(tmp_path)
    for name in GOLDEN:
        assert (tmp_path / name).read_bytes() == (outputs / name).read_bytes(), name


def test_outputs_on_the_split_path(tmp_path, monkeypatch):
    """compare with its baseline graph built in a forked child: the same
    bytes."""
    forks, fork = [], os.fork
    monkeypatch.setattr(cli, "SPLIT_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert main(["compare", "--steps", STEPS, "--p", "1", "--d", "3",
                 "--seed", "7", "--out-prefix", str(tmp_path / "cmp")]) == 0
    assert len(forks) == 1
    for name in GOLDEN:
        if name.startswith("cmp."):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == GOLDEN[name], name
