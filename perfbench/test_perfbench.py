"""Self-test of the benchmark at 1% of the stated sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(line.split()[-1] for line in lines if line.startswith("# record "))
    return json.loads(lines[-1]), json.loads((ROOT / record).read_text()), lines


def expected_metrics(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_give_identical_counts_and_digests(workload):
    (first, rec1, _), (second, rec2, _) = tiny(workload, 1), tiny(workload, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    exact = [n for n, u in expected_metrics("per_layer").items() if u in ("count", "B")]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}
    digests = [p["digests"] for rec in (rec1, rec2) for p in rec["passes"]]
    assert all(d == digests[0] for d in digests)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    result, _, lines = tiny(WORKLOADS[0], trace)
    want = expected_metrics(key)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
