"""pahyper benchmark: real CLI pipelines, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 50] [--trace 0|1]

Run from anywhere inside a source checkout; the library is imported from the
checkout's `src/`.  Set-up (outside timing) measures `setup_s`, the median
time for a fresh interpreter to `import pahyper.cli`.  Then passes run, each
in a fresh worker process (worker.py), until at least MIN_PASSES are done
and more would not end within --seconds.

--trace 0 alternates passes of the program with passes of baseline/, a copy
of the library frozen at the benchmark's commit, and reports the end-to-end
metrics: the program's speed as a multiple of the baseline's, measured side
by side on the same host, which cancels most of the host's speed drift.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics: self times, work counts and the tracing overhead.

Every output is checked (checks.py, digests equal across passes and, for the
default seed at full size, equal to pinned_sha256.json).  A command counts as
failed when it exits non-zero or one of its outputs fails a check; the last
stdout line is {"correct", "attempted", "failed", "metrics"} as JSON, and
failed / attempted is the run's failed fraction.  Spans and per-pass records
go to perfbench/results/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"    # the library frozen at the benchmark's commit
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = {0: 2, 1: 4}   # program passes; untraced runs add as many baseline ones
IMPORT_REPEATS = 5
LAST_PASS_START_S = 100     # no pass starts later than this into the run
RUN_LIMIT_S = 170           # a pass still running this long into the run is stopped
RESIDUAL_LIMIT = 0.02       # self times must cover the traced pass within 2%

END_TO_END = {"speedup_vs_baseline": "x", "peak_rss_mb": "MB", "setup_s": "s"}

# self-time metric -> the span names it sums
SELF_TIME = {
    "generator.evolve.s": ["generator.evolve"],
    "generator.evolve_graph_baseline.s": ["generator.evolve_graph_baseline"],
    "io.read_hypergraph.s": ["io.read_hypergraph"],
    "io.write_hypergraph.s": ["io.write_hypergraph"],
    "io.small_writes.s": ["io.write_histogram_csv", "io.write_ccdf_csv",
                          "io.write_fit_report"],
    "io.read_histogram_csv.s": ["io.read_histogram_csv"],
    "core.from_edges.s": ["core.from_edges"],
    "core.Hypergraph.degrees.s": ["core.Hypergraph.degrees"],
    "analysis.ObservedGraph.degrees.s": ["analysis.ObservedGraph.degrees"],
    "analysis.degree_histogram.s": ["analysis.degree_histogram"],
    "analysis.project.s": ["analysis.project"],
    "analysis.fit_power_law.s": ["analysis.fit_power_law"],
    "analysis.ccdf.s": ["analysis.ccdf"],
    "cli.self_s": ["cli"],
    "trace.count.s": ["trace.count"],
}
SPANS = sorted({n for names in SELF_TIME.values() for n in names} - {"trace.count"})
LAYERS = ("cli", "generator", "io", "core", "analysis")
COUNTS = {"generator.tokens": "count", "generator.edges": "count",
          "io.bytes_read": "B", "io.bytes_written": "B",
          "analysis.project.pairs": "count", "analysis.fit_power_law.cutoffs": "count"}

PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{f"layer.{layer}.s": "s" for layer in LAYERS},
    "generator.evolve.tokens_per_s": "1/s",
    "io.read_hypergraph.mb_per_s": "MB/s",
    "io.write_hypergraph.mb_per_s": "MB/s",
    **COUNTS,
    **{f"{name}.calls": "count" for name in SPANS},
    "trace.overhead_frac": "ratio",
    "trace.residual_frac": "ratio",
}


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env) -> list[float]:
    """Wall times of fresh interpreters importing pahyper.cli (after one
    warm-up that fills the bytecode caches)."""
    cmd = [sys.executable, "-c", "import pahyper.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def environment(args, wl, env) -> dict:
    import numpy
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "workload": wl.name, "steps": wl.steps, "seed": wl.seed,
            "scale": args.scale, "seconds": args.seconds, "trace": args.trace}


def run_pass(args, src: Path, work: Path, traced: int, env, timeout: float) -> dict:
    """One pass in a fresh worker, with the library imported from src."""
    work.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(args.scale),
           "--work", str(work), "--trace", str(traced), "--src", str(src)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}",
                "traced": traced}
    report = json.loads(lines[-1])
    report["traced"] = traced
    return report


def layer_metrics(report) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    from tracer import inclusive_times, self_times

    own = self_times(report["spans"])
    inc = inclusive_times(report["spans"])
    counts = report["counts"]
    values = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    for layer in LAYERS:
        values[f"layer.{layer}.s"] = sum(t for n, t in own.items()
                                         if n.split(".")[0] == layer)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    values["generator.evolve.tokens_per_s"] = rate(
        counts.get("generator.evolve.tokens", 0), own.get("generator.evolve", 0.0))
    for fn in ("read_hypergraph", "write_hypergraph"):
        values[f"io.{fn}.mb_per_s"] = rate(
            counts.get(f"io.{fn}.bytes", 0) / 1e6, inc.get(f"io.{fn}", 0.0))
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    for name in SPANS:
        values[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    values["trace.residual_frac"] = (report["pass_s"] - sum(own.values())) / report["pass_s"]
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every workload size (self-tests use 0.01); "
                         "pinned digests apply at 1 only")
    args = ap.parse_args(argv)

    if not (SRC / "pahyper" / "cli.py").is_file():
        print(f"error: no pahyper sources at {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, workloads.build(args.workload, args.seed, args.scale, work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if HERE.joinpath(".work").is_dir() and not any(HERE.joinpath(".work").iterdir()):
            HERE.joinpath(".work").rmdir()


def run(args, wl, work: Path) -> int:
    import checks

    t_run = perf_counter()
    env = subprocess_env()
    record = {"env": environment(args, wl, env)}
    attempted = failed = 0
    problems: list[str] = []    # failed checks: the run is not correct

    if args.trace == 0:
        try:
            record["import_s"] = import_seconds(env)
        except (OSError, subprocess.SubprocessError) as e:
            print(f"error: cannot import pahyper.cli: {e}", file=sys.stderr)
            return 1

    # passes: with --trace 0 pairs of a program and a baseline pass, in the
    # order P B, B P, P B, ... so that a drift of the host's speed within the
    # run slows both sides alike; with --trace 1 traced passes alternate with
    # untraced ones
    passes, baseline, cycles = [], [], []
    t_measure = perf_counter()
    while True:
        t0 = perf_counter()
        timeout = RUN_LIMIT_S - (t0 - t_run)
        n = len(passes) + len(baseline)
        if args.trace == 0 and (n % 2 == 0) != (n // 2 % 2 == 0):
            baseline.append(run_pass(args, BASELINE, work / "baseline", 0, env, timeout))
        else:
            traced = args.trace if len(passes) % 2 == 0 else 0
            passes.append(run_pass(args, SRC, work / "program", traced, env, timeout))
        cycles.append(perf_counter() - t0)
        elapsed = perf_counter() - t_measure
        if args.trace == 0:     # stop on a whole program-baseline pair
            done, next_s = len(baseline) == len(passes), 2 * median(cycles)
        else:
            done, next_s = True, median(cycles)
        if done and len(passes) >= MIN_PASSES[args.trace] and elapsed + next_s > args.seconds:
            break
        if perf_counter() - t_run > LAST_PASS_START_S:
            record["stopped_at_time_limit"] = True
            break
    for p in baseline:
        if "error" in p or any(c["rc"] != 0 for c in p["commands"]):
            problems.append(f"baseline pass failed: {p.get('error', '')}")
    baseline = [p for p in baseline if "error" not in p]
    good = [p for p in passes if "error" not in p]
    n_cmd = len(wl.commands)
    attempted += n_cmd * len(passes)
    for p in passes:
        if "error" in p:
            failed += n_cmd
            problems.append(p["error"])
    if not any(p["traced"] == args.trace for p in good) or (args.trace == 0 and not baseline):
        print("error: no pass completed\n" + "\n".join(problems), file=sys.stderr)
        return 1
    passes = good

    # per-command failures, applied to every pass
    bad: dict[int, list[str]] = {}
    if all(c["rc"] == 0 for p in passes for c in p["commands"]):
        try:
            bad = dict(checks.CHECKS[wl.name](wl, work / "program", passes[-1]["commands"]))
        except Exception as e:  # a malformed output file
            bad = {n_cmd - 1: [f"output check raised {e!r}"]}
    pins = json.loads((HERE / "pinned_sha256.json").read_text()).get(wl.name, {})
    pinned = args.seed == workloads.DEFAULT_SEED and args.scale == 1.0

    def command_of(key: str) -> int:
        return int(key[3:].split(".")[0]) if key.startswith("cmd") else wl.outputs[key]

    reference = passes[0]["digests"]
    for p in passes:
        fails = {i: list(bad.get(i, [])) for i in range(n_cmd)}
        for i, c in enumerate(p["commands"]):
            if c["rc"] != 0:
                fails[i].append(f"{c['argv'][0]} exited {c['rc']}: {c['stderr'][-500:]}")
            fails[i] += c["failures"]
        for key, digest in p["digests"].items():
            if digest != reference[key]:
                fails[command_of(key)].append(f"{key}: digest differs between passes")
            if pinned and pins.get(key) != digest:
                fails[command_of(key)].append(f"{key}: sha256 differs from the pin")
        for i, msgs in fails.items():
            if msgs:
                failed += 1
                problems += sorted(set(msgs) - set(problems))

    # metrics
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace == 0:
        steps_per_s = median([wl.steps / p["pass_s"] for p in untraced])
        baseline_steps_per_s = median([wl.steps / p["pass_s"] for p in baseline])
        record["steps_per_s"] = steps_per_s
        record["baseline_steps_per_s"] = baseline_steps_per_s
        metrics = {
            "speedup_vs_baseline": steps_per_s / baseline_steps_per_s,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "setup_s": median(record["import_s"]),
        }
        units = END_TO_END
    else:
        per_pass = [layer_metrics(p) for p in traced]
        exact = [n for n in PER_LAYER if PER_LAYER[n] in ("count", "B")]
        metrics = {name: median([v[name] for v in per_pass]) for name in PER_LAYER
                   if name not in exact and name != "trace.overhead_frac"}
        for name in exact:
            metrics[name] = per_pass[0][name]
            if len({v[name] for v in per_pass}) > 1:
                failed += 1
                problems.append(f"{name}: differs between traced passes")
        residual = max(abs(v["trace.residual_frac"]) for v in per_pass)
        if residual > RESIDUAL_LIMIT:
            failed += 1
            problems.append(f"self times miss {residual:.2%} of a traced pass")
        metrics["trace.overhead_frac"] = (
            median([p["pass_s"] for p in traced]) / median([p["pass_s"] for p in untraced]) - 1.0
            if traced and untraced else 0.0)
        units = PER_LAYER
        record["spans"] = [p["spans"] for p in traced]

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    record["passes"] = [{k: v for k, v in p.items() if k != "spans"} for p in passes]
    record["baseline_passes"] = [{"pass_s": p["pass_s"]} for p in baseline]
    record["problems"] = problems
    record["result"] = result
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{wl.name}-seed{wl.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record))

    print(f"# env {json.dumps(record['env'])}")
    print(f"# {wl.name}: {wl.steps} steps, seed {wl.seed}, {len(untraced)} untraced, "
          f"{len(traced)} traced and {len(baseline)} baseline passes in "
          f"{perf_counter() - t_measure:.1f} s; "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace == 0:
        print(f"# steps_per_s {steps_per_s:.6g} (program), "
              f"{baseline_steps_per_s:.6g} (baseline)")
    if args.trace == 1:
        layers = {layer: metrics[f"layer.{layer}.s"] for layer in LAYERS}
        print(f"# largest self time: layer {max(layers, key=layers.get)} "
              + " ".join(f"{k}={v:.3f}s" for k, v in layers.items()))
    for name, m in result["metrics"].items():
        value = m["value"]
        print(f"# {name} {value:.6g} {m['unit']}" if isinstance(value, float)
              else f"# {name} {value} {m['unit']}")
    for msg in problems:
        print(f"# FAILED: {msg}")
    print(f"# record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
