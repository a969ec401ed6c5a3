"""Run one pass of a workload in a fresh interpreter and report it as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --scale S --work DIR \
        --trace 0|1 --src DIR

The library is imported from --src: the checkout's `src/` for the program
under test, or `baseline/` for the benchmark's frozen copy.  Each CLI
command of the pass runs in this process through `pahyper.cli.main(argv)`,
with its stdout and stderr captured, and is timed on its own; the pass's
time is the sum of its commands' times.  The peak resident set is read right
after the pass, before output digests are taken.  With --trace 1 the library
calls are wrapped (see tracer.py) and the spans, work counts and in-memory
check failures are reported too.  The last line of stdout is the JSON
report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402



def run_command(main, argv, tracer):
    """Run one CLI command; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call("cli", main, (argv,)) if tracer else main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src))
    import pahyper
    import pahyper.cli as cli
    if not Path(pahyper.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported pahyper from {pahyper.__file__}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.scale, args.work)
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else None

    commands = []
    cpu_start = resource.getrusage(resource.RUSAGE_SELF)
    for argv_ in wl.commands:
        before = len(tracer.failures) if tracer else 0
        rc, out, err, wall = run_command(cli.main, argv_, tracer)
        commands.append({"argv": argv_, "rc": rc, "stdout": out, "stderr": err,
                         "wall_s": wall,
                         "failures": tracer.failures[before:] if tracer else []})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if restore:
        restore()

    digests = {}
    for rel in wl.outputs:
        path = args.work / rel
        digests[rel] = workloads.sha256_file(path) if path.exists() else None
    for i, c in enumerate(commands):
        digests[f"cmd{i}.stdout"] = hashlib.sha256(c["stdout"].encode()).hexdigest()
        digests[f"cmd{i}.stderr"] = hashlib.sha256(c["stderr"].encode()).hexdigest()

    report = {"pass_s": sum(c["wall_s"] for c in commands),
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "user_s": usage.ru_utime - cpu_start.ru_utime,
              "sys_s": usage.ru_stime - cpu_start.ru_stime,
              "minor_faults": usage.ru_minflt - cpu_start.ru_minflt,
              "commands": commands, "digests": digests}
    if tracer:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
