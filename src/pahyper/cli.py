"""Command-line interface.

Subcommands wire generation, projection, analysis, and ingestion into
reproducible pipelines; all data outputs are plain text (see io module),
'-' means stdin/stdout, and diagnostics go to stderr.  Exit codes: 0 on
success, 2 for usage or validation problems, 1 for I/O failures and
resource failures (an array too large for memory), and
EXIT_CLOSED_STDOUT (141, as for a process ended by SIGPIPE) without any
message when the reader of stdout has gone, as in `pahyper generate ... |
head -1`.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import analysis, io
from .generator import (Constant, EdgeSizeDistribution, GeneratorConfig,
                        TruncatedZipf, UniformInt, evolve,
                        evolve_graph_baseline)


EXIT_CLOSED_STDOUT = 141


class CLIError(Exception):
    """Usage-level error; message should name the offending flag."""


def parse_size_dist(text: str) -> EdgeSizeDistribution:
    """Parse --size specs: const:<d> | uniform:<lo>:<hi> | zipf:<exp>:<lo>:<hi>."""
    parts = text.split(":")
    try:
        if parts[0] == "const" and len(parts) == 2:
            return Constant(int(parts[1]))
        if parts[0] == "uniform" and len(parts) == 3:
            return UniformInt(int(parts[1]), int(parts[2]))
        if parts[0] == "zipf" and len(parts) == 4:
            return TruncatedZipf(float(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as e:
        raise CLIError(f"--size: {e}") from None
    raise CLIError(f"--size: cannot parse {text!r} "
                   "(expected const:<d> | uniform:<lo>:<hi> | zipf:<exp>:<lo>:<hi>)")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CLIError(message)


def _check_trials(args) -> None:
    _check(args.trials >= 1, f"--trials must be >= 1, got {args.trials}")
    _check(args.jobs >= 1, f"--jobs must be >= 1, got {args.jobs}")


def _run_trials(fn, args, config: GeneratorConfig, *extra, out: str) -> list:
    """fn(config, *extra, out) for each of --trials runs, in order: run i
    takes seed config.seed + i and output name out.{i:03d}, and a single run
    keeps config and out as given.  The runs go over min(--jobs, --trials)
    worker processes, or run in this process when that is 1."""
    tasks = [(config, *extra, out)] if args.trials == 1 else [
        (replace(config, seed=config.seed + i), *extra, f"{out}.{i:03d}")
        for i in range(args.trials)]
    workers = min(args.jobs, len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _parse_kmin(text: str):
    if text == "auto":
        return "auto"
    try:
        k_min = int(text)
    except ValueError:
        raise CLIError(f"--kmin must be an integer or 'auto', got {text!r}") from None
    _check(k_min >= 1, f"--kmin must be >= 1, got {k_min}")
    return k_min


def _flagged(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a rejected value reported under its flag:
    a message that starts with a parameter `a_b` of fn names `--a-b`, and
    any other message passes unchanged."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        name, _, rest = str(err).partition(" ")
        if name not in inspect.signature(fn).parameters:
            raise
        raise CLIError(f"--{name.replace('_', '-')} {rest}") from None


# ----------------------------------------------------------------------
# generate


def _generate_one(config: GeneratorConfig, out: str) -> str:
    h = evolve(config)
    io.write_hypergraph(h, out)
    return (f"seed={config.seed} num_vertices={h.num_vertices} "
            f"num_edges={h.num_edges} total_degree={h.total_degree}")


def cmd_generate(args) -> int:
    _check_trials(args)
    config = _flagged(GeneratorConfig, p=args.p, steps=args.steps,
                      size_dist=parse_size_dist(args.size), y0=args.y0,
                      seed=args.seed, enforce_cap=args.cap,
                      cap_exponent=args.cap_exponent)
    _check(args.trials == 1 or args.out != "-",
           "--trials > 1 requires --out to be a file prefix")
    for line in _run_trials(_generate_one, args, config, out=args.out):
        print(line, file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# analytic


def cmd_analytic(args) -> int:
    if args.sweep_p is not None:
        _check(args.p is None and args.kmax is None, "--sweep-p excludes --p and --kmax")
        _check(args.sweep_p >= 1, f"--sweep-p must be >= 1, got {args.sweep_p}")
        _flagged(analysis.analytic_beta, 1.0, args.mu)     # p = 1, the strictest row
        n = args.sweep_p
        for i in range(1, n + 1):
            p = i / n
            bg = analysis.analytic_beta(p, 2.0)
            bh = analysis.analytic_beta(p, args.mu)
            print(f"{p:.10g},{bg:.10g},{bh:.10g}")
        return 0

    _check(args.p is not None, "--p is required (unless --sweep-p is given)")
    # every line before the first print, so a failure prints nothing
    lines = [f"beta={_flagged(analysis.analytic_beta, args.p, args.mu):.6g}"]
    if args.kmax is not None:
        mk = _flagged(analysis.analytic_mk, args.p, args.mu, args.kmax)
        lines += ["k,M_k"] + [f"{k},{m:.10g}" for k, m in enumerate(mk, start=1)]
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# thin wrappers


def cmd_degrees(args) -> int:
    degrees = io.read_degrees(args.input)
    io.write_histogram_csv(analysis.DegreeHistogram.from_degrees(degrees), args.out)
    return 0


def cmd_project(args) -> int:
    h = io.read_hypergraph(args.input)
    g = analysis.project(h, simple=args.simple)
    io.write_observed_graph(g, args.out)
    print(f"num_vertices={g.num_vertices} num_edges={g.num_edges}", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    k_min = _parse_kmin(args.kmin)
    hist = io.read_histogram_csv(args.input)
    report = analysis.fit_power_law(hist, k_min)
    io.write_fit_report(report, args.out)
    if args.out != "-":
        print(f"beta_hat={report.beta_hat:#.6g} k_min={report.k_min}", file=sys.stderr)
    return 0


def cmd_edge_sizes(args) -> int:
    _check(args.min_size >= 1, f"--min-size must be >= 1, got {args.min_size}")
    sizes = io.read_edge_sizes(args.input)
    hist = analysis.DegreeHistogram.from_degrees(sizes).restrict(args.min_size)
    io.write_histogram_csv(hist, args.out)
    return 0


def cmd_ingest(args) -> int:
    h, labels = _flagged(io.ingest_labeled, args.input, args.delimiter)
    io.write_hypergraph(h, args.out)
    if args.labels_out is not None:
        io.write_label_map(labels, args.labels_out)
    print(f"num_vertices={h.num_vertices} num_edges={h.num_edges}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# compare


def _compare_one(config: GeneratorConfig, kmin, prefix: str) -> list[str]:
    # degrees only, so no pair array is alive while the baseline runs
    projected = analysis.DegreeHistogram.from_degrees(
        analysis.projected_degrees(evolve(config)))
    baseline = analysis.degree_histogram(
        evolve_graph_baseline(config.p, config.steps, config.seed))

    # both fits before the first write, so a failed fit leaves no file
    sides = [(tag, hist, analysis.fit_power_law(hist, kmin))
             for tag, hist in (("hypergraph", projected), ("graph", baseline))]
    lines = []
    for tag, hist, report in sides:
        io.write_ccdf_csv(analysis.ccdf(hist), f"{prefix}.{tag}_ccdf.csv")
        io.write_fit_report(report, f"{prefix}.{tag}_fit.txt")
        lines.append(f"beta_hat_{tag}={report.beta_hat:#.6g}")
    p, mu = config.p, config.size_dist.mean()
    lines.append(f"beta_analytic_hypergraph={analysis.analytic_beta(p, mu):#.6g}")
    lines.append(f"beta_analytic_graph={analysis.analytic_beta(p, 2.0):#.6g}")
    return lines


def cmd_compare(args) -> int:
    _check_trials(args)
    kmin = _parse_kmin(args.kmin)
    config = _flagged(GeneratorConfig, p=args.p, steps=args.steps,
                      size_dist=_flagged(Constant, args.d), y0=args.d, seed=args.seed)
    results = _run_trials(_compare_one, args, config, kmin, out=args.out_prefix)
    for i, lines in enumerate(results):
        prefix = "" if args.trials == 1 else f"seed={args.seed + i} "
        for line in lines:
            print(prefix + line)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pahyper",
        description="Generate and analyze preferential-attachment hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--steps", type=int, required=True, help="number of time steps")
    run.add_argument("--p", type=float, required=True,
                     help="vertex-arrival probability in (0, 1]")
    run.add_argument("--seed", type=int, default=0, help="RNG seed")
    run.add_argument("--trials", type=int, default=1,
                     help="independent seeded runs (out becomes a prefix)")
    run.add_argument("--jobs", type=int, default=1, help="parallel workers")

    read = argparse.ArgumentParser(add_help=False)
    read.add_argument("--in", dest="input", default="-",
                      help="hypergraph file, or '-' for stdin; stdin or a pipe is "
                           "first copied to a temporary file, so it needs temporary "
                           "disk space the size of its input")

    g = sub.add_parser("generate", parents=[run],
                       help="run the hypergraph evolution process")
    g.add_argument("--size", default="const:3",
                   help="edge-size distribution: const:<d> | uniform:<lo>:<hi> | "
                        "zipf:<exp>:<lo>:<hi> (default const:3)")
    g.add_argument("--y0", type=int, default=3, help="seed hyperedge cardinality")
    g.add_argument("--cap", action=argparse.BooleanOptionalAction, default=True,
                   help="clamp edge sizes to the t^(1/3) growth cap")
    g.add_argument("--cap-exponent", type=float, default=1.0 / 3.0,
                   help="growth-cap exponent (advanced; default 1/3)")
    g.add_argument("--out", default="-", help="output hypergraph file")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analytic", help="print analytic exponent and M_k table")
    a.add_argument("--p", type=float, default=None, help="vertex-arrival probability")
    a.add_argument("--mu", type=float, required=True, help="expected edge size")
    a.add_argument("--kmax", type=int, default=None, help="emit M_1..M_kmax as CSV")
    a.add_argument("--sweep-p", type=int, default=None, metavar="N",
                   help="emit N rows 'p,beta_graph,beta_hypergraph' for p in (0, 1]")
    a.set_defaults(func=cmd_analytic)

    d = sub.add_parser("degrees", parents=[read],
                       help="degree histogram of a hypergraph file")
    d.add_argument("--out", default="-", help="histogram CSV")
    d.set_defaults(func=cmd_degrees)

    pr = sub.add_parser("project", parents=[read],
                        help="clique-expansion graph of a hypergraph")
    pr.add_argument("--out", default="-", help="edge-list output")
    pr.add_argument("--simple", action="store_true",
                    help="collapse duplicate edges and drop self loops")
    pr.set_defaults(func=cmd_project)

    f = sub.add_parser("fit", help="power-law fit of a histogram CSV")
    f.add_argument("--in", dest="input", default="-", help="histogram CSV")
    f.add_argument("--out", default="-", help="fit report output")
    f.add_argument("--kmin", default="5", help="tail cutoff, integer or 'auto'")
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("edge-sizes", parents=[read], help="hyperedge-size histogram")
    e.add_argument("--out", default="-", help="histogram CSV")
    e.add_argument("--min-size", type=int, default=3,
                   help="smallest cardinality to keep (default 3)")
    e.set_defaults(func=cmd_edge_sizes)

    i = sub.add_parser("ingest", help="hypergraph from labeled records")
    i.add_argument("--in", dest="input", default="-", help="records file")
    i.add_argument("--delimiter", default=";", help="label separator (default ';')")
    i.add_argument("--out", default="-", help="output hypergraph file")
    i.add_argument("--labels-out", default=None, help="optional id,label CSV")
    i.set_defaults(func=cmd_ingest)

    c = sub.add_parser("compare", parents=[run],
                       help="d-uniform projection vs. baseline graph, CCDFs and fits")
    c.add_argument("--d", type=int, default=3, help="uniform edge cardinality")
    c.add_argument("--out-prefix", required=True, help="prefix for output files")
    c.add_argument("--kmin", default="auto", help="tail cutoff, integer or 'auto'")
    c.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except (CLIError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # keep the interpreter's flush at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
