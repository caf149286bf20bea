"""Command-line interface: ``python -m repro <command>``.

Four subcommands expose the library to shell users:

``analyze``
    Build sampled statistics for a column stored in a ``.npy`` / ``.csv``
    / ``.txt`` file (one value per row, or pick a CSV column), print the
    histogram, density and distinct-count statistics, and optionally
    ``--save`` the bundle as JSON.

``estimate``
    Answer range / equality / distinct queries from a saved statistics
    bundle — the optimizer's view, detached from the data.

``plan``
    The Corollary 1 planner: given any two of (sample size, bucket count,
    error fraction), solve for the third.

``demo``
    Generate one of the paper's synthetic datasets and run the full
    adaptive-sampling pipeline on it — a zero-setup tour.

``figure``
    Regenerate the data series behind one of the paper's figures (3-12),
    optionally fanned out over worker processes with ``--workers`` /
    ``--chunk-size`` — results are bit-identical for any worker count.

``chaos``
    Fault-injection sweep: run the retrying CVB build against storage with
    transient read failures and corrupt pages, and report the achieved
    max-error against the Theorem-7 targets.  Deterministic for a fixed
    ``--seed``, for any ``--workers``.

``metrics``
    Observability wrapper: run any other subcommand with the
    :mod:`repro.obs` metrics registry collecting, then dump the registry
    (``--format text|json|prom``, optionally ``--out FILE``) after the
    wrapped command finishes.  ``prom`` is the strict Prometheus text
    exposition (cumulative buckets, ``+Inf``, escaped labels).  Example:
    ``python -m repro metrics demo zipf2``.

``bench``
    Deterministic benchmark harness (:mod:`repro.obs.bench`): run the
    scenario registry, write a schema-versioned ``BENCH_*.json`` report,
    optionally ``--compare`` against a baseline (logical costs exact,
    wall-clock threshold-gated), ``--update-baseline``, or ``--profile``
    each scenario through :mod:`cProfile`.  Exits 3 when a logical cost
    drifts or a scenario's declared wall gate fails.

``lint``
    Determinism & invariant static analysis (:mod:`repro.lint`): run the
    project rule set (DET/OBS/EXC/FLT/DOC) over ``src/repro`` and the
    Markdown docs, print a text or JSON report, and exit nonzero on any
    unsuppressed error-severity finding — the CI gate.  ``--flow`` adds
    the whole-program SEED1xx/CON1xx analysis (symbol table + call
    graph), ``--graph FILE`` dumps that call graph as Graphviz DOT, and
    ``--changed-only`` restricts findings to files touched versus the
    merge-base with ``main`` (the fast pre-push loop).  Supports
    ``--rules`` selection, ``--baseline`` diffing and ``--list-rules``.

``serve``
    Statistics-as-a-service (:mod:`repro.serve`): run the asyncio
    JSON-lines TCP server over synthetic tables (``--table
    NAME=DATASET:N``, repeatable), or drive the deterministic closed-loop
    load generator against an in-process server (``--loadgen``) or a
    running one (``--connect HOST:PORT``).  The loadgen's logical summary
    (``--out``) is bit-identical across runs and ``--clients`` counts;
    wall latencies (p50/p99) go to stdout / ``--wall-out``.  ``--store
    DIR`` persists the catalog crash-safely and warm-starts from it.
    ``--telemetry`` enables live runtime telemetry (latency sketch,
    windowed series, SLO tracking) behind the ``stats`` / ``health`` /
    ``watch`` endpoints.  See docs/SERVING.md.

``top``
    Terminal monitor for a running server (:mod:`repro.serve.monitor`):
    poll the ``stats`` and ``health`` endpoints of ``--connect
    HOST:PORT`` and render text frames (``--once`` for a single frame,
    ``--interval`` seconds between frames otherwise); ``--out FILE``
    writes the byte-stable logical snapshot of the last frame.  See
    docs/TELEMETRY.md.

``figure``, ``chaos`` and ``bench`` additionally accept ``--trace FILE`` to
record a structured span trace (JSON lines) of the run; see
docs/OBSERVABILITY.md for how to read one.  ``figure`` and ``chaos`` also
accept ``--checkpoint DIR`` / ``--resume`` for crash-safe resumable runs
(:mod:`repro.durability`): completed work is journaled to
``DIR/run.journal``, and a killed run resumed with ``--resume`` produces
output bit-identical to an uninterrupted one.  See docs/DURABILITY.md.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from contextlib import contextmanager

import numpy as np

from ._rng import ensure_rng
from .core import bounds
from .engine import StatisticsManager, Table
from .exceptions import ReproError
from .storage import LAYOUT_NAMES
from .workloads import DATASET_NAMES, make_dataset

__all__ = ["main", "build_parser"]


def _rate_list(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(r) for r in text.split(",") if r.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not rates:
        raise argparse.ArgumentTypeError("expected at least one sampling rate")
    return rates


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Random Sampling for Histogram Construction (SIGMOD 1998) — "
            "reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="build sampled statistics for a column file"
    )
    analyze.add_argument("path", help=".npy, .csv or .txt file with values")
    analyze.add_argument(
        "--column", type=int, default=0, help="CSV column index (default 0)"
    )
    analyze.add_argument("--k", type=int, default=100, help="histogram buckets")
    analyze.add_argument(
        "--f", type=float, default=0.2, help="target max error fraction"
    )
    analyze.add_argument("--gamma", type=float, default=0.01)
    analyze.add_argument(
        "--layout", choices=LAYOUT_NAMES, default="random",
        help="simulated on-disk layout",
    )
    analyze.add_argument(
        "--method", choices=("cvb", "record", "fullscan"), default="cvb"
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--show-buckets", type=int, default=0, metavar="N",
        help="print the first N histogram buckets",
    )
    analyze.add_argument(
        "--save", metavar="STATS.json",
        help="write the statistics bundle to a JSON file",
    )

    plan = sub.add_parser("plan", help="Corollary 1 sample-size planning")
    plan.add_argument("--n", type=int, required=True, help="table rows")
    plan.add_argument("--k", type=int, help="histogram buckets")
    plan.add_argument("--f", type=float, help="max error fraction")
    plan.add_argument("--r", type=int, help="sample size budget")
    plan.add_argument("--gamma", type=float, default=0.01)

    estimate = sub.add_parser(
        "estimate", help="answer queries from saved statistics"
    )
    estimate.add_argument("stats", help="statistics JSON from analyze --save")
    estimate.add_argument(
        "--range", nargs=2, type=float, metavar=("LO", "HI"),
        help="estimate rows with LO <= value <= HI",
    )
    estimate.add_argument(
        "--equals", type=float, metavar="V",
        help="estimate rows with value = V",
    )
    estimate.add_argument(
        "--distinct", action="store_true", help="print the distinct estimate"
    )

    demo = sub.add_parser("demo", help="run the pipeline on synthetic data")
    demo.add_argument(
        "dataset", nargs="?", default="zipf2", choices=DATASET_NAMES
    )
    demo.add_argument("--n", type=int, default=100_000)
    demo.add_argument("--k", type=int, default=50)
    demo.add_argument("--f", type=float, default=0.2)
    demo.add_argument("--layout", choices=LAYOUT_NAMES, default="random")
    demo.add_argument("--seed", type=int, default=0)

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure's data series"
    )
    figure.add_argument(
        "name",
        choices=("3_4", "5", "6", "7", "8", "9", "10", "11", "12"),
        help="which paper figure to regenerate",
    )
    figure.add_argument(
        "--scale", choices=("small", "medium", "paper"), default=None,
        help="experiment scale (default: $REPRO_SCALE or 'small')",
    )
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the Monte-Carlo trials (default 1; "
             "results are bit-identical for any value)",
    )
    figure.add_argument(
        "--chunk-size", type=int, default=None,
        help="trials per worker task (default: auto)",
    )
    figure.add_argument(
        "--n", type=int, default=None, help="override the scale's table size"
    )
    figure.add_argument(
        "--k", type=int, default=None, help="override the bucket count"
    )
    figure.add_argument(
        "--trials", type=int, default=None,
        help="override trials per measured point",
    )
    figure.add_argument(
        "--rates", default=None, metavar="R1,R2,...", type=_rate_list,
        help="override the sampling-rate grid (comma-separated)",
    )
    figure.add_argument(
        "--out", metavar="FILE", help="also write the table to FILE"
    )
    figure.add_argument(
        "--checkpoint", metavar="DIR",
        help="journal completed trial chunks to DIR/run.journal so a "
             "killed run can be resumed",
    )
    figure.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint, splice previously journaled chunks back "
             "instead of re-running them (bit-identical to an "
             "uninterrupted run)",
    )
    figure.add_argument(
        "--trace", metavar="FILE",
        help="record a span trace of the run to FILE (JSON lines)",
    )

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep of the resilient CVB build"
    )
    chaos.add_argument(
        "--fault-rate", dest="fault_rates", default=(0.0, 0.01, 0.05, 0.1),
        metavar="R1,R2,...", type=_rate_list,
        help="transient read-failure rates to sweep (default 0,0.01,0.05,0.1)",
    )
    chaos.add_argument(
        "--corrupt", type=float, default=0.01,
        help="fraction of pages permanently corrupt (default 0.01)",
    )
    chaos.add_argument("--n", type=int, default=100_000, help="table rows")
    chaos.add_argument("--k", type=int, default=50, help="histogram buckets")
    chaos.add_argument(
        "--f", type=float, default=0.2, help="target max error fraction"
    )
    chaos.add_argument(
        "--dataset", default="zipf2", choices=DATASET_NAMES
    )
    chaos.add_argument(
        "--trials", type=int, default=3, help="trials per fault rate"
    )
    chaos.add_argument(
        "--blocking-factor", type=int, default=50, help="records per page"
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=5,
        help="read attempts per page before the page is skipped",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results are bit-identical for any value)",
    )
    chaos.add_argument("--chunk-size", type=int, default=None)
    chaos.add_argument(
        "--out", metavar="FILE", help="also write the report to FILE"
    )
    chaos.add_argument(
        "--checkpoint", metavar="DIR",
        help="journal completed trial chunks to DIR/run.journal so a "
             "killed run can be resumed",
    )
    chaos.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint, splice previously journaled chunks back "
             "instead of re-running them",
    )
    chaos.add_argument(
        "--trace", metavar="FILE",
        help="record a span trace of the run to FILE (JSON lines)",
    )

    bench = sub.add_parser(
        "bench",
        help="deterministic benchmark harness with baseline comparison",
    )
    bench.add_argument(
        "--scenario", action="append", metavar="NAME", dest="scenarios",
        help="run only this scenario (repeatable; default: all)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bench.add_argument(
        "--scale", choices=("smoke", "default"), default="smoke",
        help="workload size (default: smoke)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per scenario; the median is reported (default 3)",
    )
    bench.add_argument(
        "--warmup", type=int, default=1,
        help="untimed runs before timing starts (default 1)",
    )
    bench.add_argument(
        "--out", metavar="FILE",
        help="report path (default BENCH_<YYYYMMDD>_<shortsha>.json)",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE",
        help="gate against a baseline report: exit nonzero when a logical "
             "cost drifts",
    )
    bench.add_argument(
        "--wall-tolerance", type=float, default=None, metavar="RATIO",
        help="with --compare, also fail when a scenario's wall-clock "
             "median exceeds RATIO x the baseline (default: report only)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="also write the report to benchmarks/baseline.json",
    )
    bench.add_argument(
        "--profile", metavar="DIR",
        help="cProfile every scenario into DIR (<name>.pstats + "
             "<name>_top.txt)",
    )
    bench.add_argument(
        "--trace", metavar="FILE",
        help="record a span trace of the run to FILE (JSON lines)",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism & invariant static analysis (repro.lint)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--rules", metavar="ID", nargs="+",
        help="run only these rule ids (default: all registered rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules with severity and summary, then exit",
    )
    lint.add_argument(
        "--root", metavar="DIR",
        help="repo root to lint (default: this checkout)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE",
        help="subtract known findings recorded in FILE; only new "
             "findings fail the gate",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE",
        help="record the current findings to FILE and exit 0",
    )
    lint.add_argument(
        "--out", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="enable the whole-program SEED1xx/CON1xx flow analysis "
             "(symbol table + call graph over src/repro)",
    )
    lint.add_argument(
        "--graph", metavar="FILE",
        help="write the project call graph as Graphviz DOT to FILE",
    )
    lint.add_argument(
        "--changed-only", action="store_true",
        help="lint only files changed vs the merge-base with main "
             "(plus untracked files)",
    )

    serve = sub.add_parser(
        "serve",
        help="statistics server (asyncio TCP) and deterministic loadgen",
    )
    serve.add_argument(
        "--table", action="append", metavar="NAME=DATASET:N",
        dest="tables",
        help="serve a synthetic table: NAME=DATASET:N with DATASET one of "
             f"{', '.join(DATASET_NAMES)} (repeatable; default "
             "orders=zipf2:20000)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="server seed: every ANALYZE RNG derives from it (default 0)",
    )
    serve.add_argument(
        "--k", type=int, default=64,
        help="default histogram buckets for server-side builds (default 64)",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=128,
        help="LRU statistics-cache capacity in columns (default 128)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=2,
        help="concurrent ANALYZE builds admitted (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8,
        help="queued ANALYZE builds before shedding (default 8)",
    )
    serve.add_argument(
        "--store", metavar="DIR",
        help="durable CatalogStore directory: crash-safe statistics and "
             "warm start on restart",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; printed as SERVE_READY)",
    )
    serve.add_argument(
        "--ready-file", metavar="FILE",
        help="also write the SERVE_READY line to FILE (atomically)",
    )
    serve.add_argument(
        "--loadgen", action="store_true",
        help="run the closed-loop load generator against an in-process "
             "server instead of serving TCP",
    )
    serve.add_argument(
        "--connect", metavar="HOST:PORT",
        help="run the load generator against an already-running server",
    )
    serve.add_argument(
        "--requests", type=int, default=200,
        help="loadgen: concurrent-phase requests (default 200)",
    )
    serve.add_argument(
        "--clients", type=int, default=4,
        help="loadgen: client threads/connections (default 4); logical "
             "summaries are bit-identical for any value",
    )
    serve.add_argument(
        "--loadgen-seed", type=int, default=0,
        help="loadgen: schedule seed (default 0)",
    )
    serve.add_argument(
        "--churn-rows", type=int, default=0,
        help="loadgen: modifications reported per column between warmup "
             "and the query phase (default 0 = no refresh)",
    )
    serve.add_argument(
        "--out", metavar="FILE",
        help="loadgen: write the byte-stable logical summary JSON to FILE",
    )
    serve.add_argument(
        "--wall-out", metavar="FILE",
        help="loadgen: write the wall-latency summary (p50/p99) to FILE",
    )
    serve.add_argument(
        "--trace", metavar="FILE",
        help="record a span trace of the run (JSON lines)",
    )
    serve.add_argument(
        "--telemetry", action="store_true",
        help="enable live runtime telemetry (latency sketch, windowed "
             "series, SLO tracking) behind the stats/health/watch "
             "endpoints",
    )

    top = sub.add_parser(
        "top",
        help="terminal monitor for a running statistics server",
    )
    top.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="address of the running server to monitor",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between frames (default 1.0)",
    )
    top.add_argument(
        "--frames", type=int, default=None,
        help="stop after this many frames (default: until interrupted)",
    )
    top.add_argument(
        "--out", metavar="FILE",
        help="write the byte-stable logical telemetry snapshot of the "
             "last frame to FILE",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run another subcommand with metrics collection, then dump "
             "the registry",
    )
    metrics.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="exposition format for the dump (default text; 'prom' is "
             "the strict Prometheus text exposition)",
    )
    metrics.add_argument(
        "--out", metavar="FILE",
        help="write the dump to FILE instead of stdout",
    )
    metrics.add_argument(
        "wrapped", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the subcommand (and its arguments) to run under collection",
    )
    return parser


def _load_values(path: str, column: int) -> np.ndarray:
    if path.endswith(".npy"):
        values = np.load(path)
    else:
        delimiter = "," if path.endswith(".csv") else None
        values = np.loadtxt(path, delimiter=delimiter, ndmin=2)
        if values.ndim == 2:
            if not 0 <= column < values.shape[1]:
                raise ReproError(
                    f"column {column} out of range for {values.shape[1]}-column file"
                )
            values = values[:, column]
    values = np.asarray(values).ravel()
    if values.size == 0:
        raise ReproError(f"no values found in {path}")
    return values


def _print_statistics(stats, show_buckets: int) -> None:
    print(stats.summary())
    print(f"converged: {stats.converged}")
    print(f"histogram: k={stats.histogram.k}, "
          f"range [{stats.histogram.min_value:g}, {stats.histogram.max_value:g}]")
    if show_buckets:
        for i, bucket in enumerate(stats.histogram.buckets()[:show_buckets]):
            print(
                f"  bucket {i:>3}: ({bucket.lo:g}, {bucket.hi:g}] "
                f"count={bucket.count}"
            )


def _cmd_analyze(args) -> int:
    values = _load_values(args.path, args.column)
    table = Table("cli", {"value": values})
    manager = StatisticsManager()
    stats = manager.analyze(
        table,
        "value",
        k=args.k,
        f=args.f,
        gamma=args.gamma,
        method=args.method,
        layout=args.layout,
        rng=ensure_rng(args.seed),
    )
    _print_statistics(stats, args.show_buckets)
    if args.save:
        from .durability import atomic_write_text
        from .engine.serialization import statistics_to_json

        atomic_write_text(args.save, statistics_to_json(stats))
        print(f"statistics written to {args.save}")
    return 0


def _cmd_estimate(args) -> int:
    from .engine.serialization import statistics_from_json

    with open(args.stats) as handle:
        stats = statistics_from_json(handle.read())
    print(stats.summary())
    answered = False
    if args.range is not None:
        lo, hi = args.range
        print(
            f"rows with {lo:g} <= value <= {hi:g}: "
            f"{stats.estimate_range(lo, hi):,.0f}"
        )
        answered = True
    if args.equals is not None:
        print(
            f"rows with value = {args.equals:g}: "
            f"{stats.estimate_equality(args.equals):,.1f}"
        )
        answered = True
    if args.distinct:
        print(f"distinct values: ~{stats.distinct_estimate:,.0f}")
        answered = True
    if not answered:
        print("(no query given: pass --range, --equals and/or --distinct)")
    return 0


def _cmd_plan(args) -> int:
    known = [name for name in ("k", "f", "r") if getattr(args, name) is not None]
    if len(known) != 2:
        print(
            "plan needs exactly two of --k / --f / --r "
            f"(got {len(known)}: {known})",
            file=sys.stderr,
        )
        return 2
    if args.r is None:
        r = bounds.corollary1_sample_size(args.n, args.k, args.f, args.gamma)
        print(f"required sample size r = {r:,} ({r / args.n:.2%} of rows)")
    elif args.f is None:
        f = bounds.corollary1_error_fraction(args.n, args.k, args.r, args.gamma)
        print(f"guaranteed max error fraction f = {f:.4f} ({f:.1%})")
    else:
        k = bounds.corollary1_max_buckets(args.n, args.r, args.f, args.gamma)
        print(f"maximum supported buckets k = {k}")
    return 0


def _cmd_demo(args) -> int:
    dataset = make_dataset(args.dataset, args.n, rng=args.seed)
    print(dataset.describe())
    table = Table("demo", {"value": dataset.values})
    manager = StatisticsManager()
    stats = manager.analyze(
        table,
        "value",
        k=args.k,
        f=args.f,
        layout=args.layout,
        rng=args.seed + 1,
    )
    _print_statistics(stats, show_buckets=0)
    print(
        f"true distinct: {dataset.num_distinct:,} "
        f"(estimated {stats.distinct_estimate:,.0f})"
    )
    return 0


@contextmanager
def _maybe_tracing(trace_path: str | None, command: str):
    """Record a span trace of the wrapped block when *trace_path* is given.

    The root span is ``cli.command`` so every library span recorded during
    the run hangs off one common ancestor; the trace file is written after
    the block exits (even on error, so partial traces of failed runs are
    still inspectable).
    """
    if not trace_path:
        yield
        return
    from .obs import trace as obs_trace

    recorder = obs_trace.TraceRecorder()
    try:
        with obs_trace.tracing(recorder):
            with obs_trace.span("cli.command", command=command):
                yield
    finally:
        recorder.write(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)


def _checkpoint_from(args):
    """Build the :class:`RunCheckpoint` requested by --checkpoint/--resume.

    Returns ``None`` when no checkpointing was requested; ``--resume``
    without ``--checkpoint`` is a usage error surfaced by the caller.
    """
    if args.checkpoint is None:
        return None
    from .durability import RunCheckpoint

    return RunCheckpoint(args.checkpoint, resume=args.resume)


def _reject_bare_resume(args) -> bool:
    """True (after printing the error) when --resume lacks --checkpoint."""
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return True
    return False


def _figure_scale(args):
    """Resolve the experiment scale, applying any CLI overrides."""
    import dataclasses

    from .experiments.config import get_scale

    scale = get_scale(args.scale)
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
        overrides["n_sweep"] = tuple(
            max(args.n // 2 * (i + 1), 1) for i in range(4)
        )
    if args.k is not None:
        overrides["k"] = args.k
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.rates is not None:
        overrides["rates"] = args.rates
    return dataclasses.replace(scale, **overrides) if overrides else scale


def _cmd_figure(args) -> int:
    if args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(
            f"error: --chunk-size must be >= 1, got {args.chunk_size}",
            file=sys.stderr,
        )
        return 2
    if _reject_bare_resume(args):
        return 2

    with _maybe_tracing(args.trace, "figure"):
        return _figure_run(args)


def _figure_run(args) -> int:
    from .experiments import figures
    from .experiments.reporting import format_series

    scale = _figure_scale(args)
    kwargs = dict(
        scale=scale,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        checkpoint=_checkpoint_from(args),
    )
    name = args.name
    if name == "3_4":
        result = figures.figures_3_and_4(**kwargs)
        text = format_series("Figure 3 (sampling rate vs n)", [result["rate"]])
        text += "\n" + format_series(
            "Figure 4 (blocks sampled vs n)", [result["blocks"]]
        )
    elif name in ("5", "6", "7"):
        driver = {
            "5": figures.figure5, "6": figures.figure6, "7": figures.figure7
        }[name]
        result = driver(**kwargs)
        series = result["series"]
        if not isinstance(series, list):
            series = [series]
        text = format_series(f"Figure {name}", series)
    elif name == "8":
        result = figures.figure8(**kwargs)
        text = format_series(
            "Figure 8 (blocks sampled vs record size)", [result["blocks"]]
        )
        text += "\n" + format_series(
            "Figure 8 (row sampling rate vs record size)", [result["rate"]]
        )
    else:
        dataset = "zipf2" if name in ("9", "11") else "unif_dup"
        driver = figures.figure9_10 if name in ("9", "10") else figures.figure11_12
        result = driver(dataset, **kwargs)
        keys = (
            ("real", "sample", "estimate")
            if name in ("9", "10")
            else ("err_sample", "err_estimate")
        )
        text = format_series(
            f"Figure {name} ({dataset})", [result[k] for k in keys]
        )

    print(text)
    if args.out:
        from .durability import atomic_write_text

        atomic_write_text(args.out, text + "\n")
        print(f"series written to {args.out}", file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    if args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    for rate in args.fault_rates:
        if not 0.0 <= rate < 1.0:
            print(
                f"error: fault rates must be in [0, 1), got {rate}",
                file=sys.stderr,
            )
            return 2
    if _reject_bare_resume(args):
        return 2

    with _maybe_tracing(args.trace, "chaos"):
        return _chaos_run(args)


def _chaos_run(args) -> int:
    from .experiments.chaos import chaos_sweep, format_chaos_report

    result = chaos_sweep(
        fault_rates=args.fault_rates,
        n=args.n,
        k=args.k,
        f=args.f,
        corrupt_fraction=args.corrupt,
        blocking_factor=args.blocking_factor,
        dataset=args.dataset,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        max_attempts=args.max_attempts,
        checkpoint=_checkpoint_from(args),
    )
    text = format_chaos_report(result)
    print(text)
    if args.out:
        from .durability import atomic_write_text

        atomic_write_text(args.out, text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        print(
            f"error: --repeats must be >= 1, got {args.repeats}",
            file=sys.stderr,
        )
        return 2
    if args.warmup < 0:
        print(
            f"error: --warmup must be >= 0, got {args.warmup}",
            file=sys.stderr,
        )
        return 2
    if args.wall_tolerance is not None and args.wall_tolerance <= 0:
        print(
            f"error: --wall-tolerance must be positive, "
            f"got {args.wall_tolerance}",
            file=sys.stderr,
        )
        return 2

    from .obs import bench

    if args.list:
        for name in bench.scenario_names():
            scenario = bench.SCENARIOS[name]
            print(f"{name:<22} {scenario.help}")
            print(f"{'':<22} paper: {scenario.paper}")
        return 0

    with _maybe_tracing(args.trace, "bench"):
        return _bench_run(args, bench)


def _bench_run(args, bench) -> int:
    import json

    report = bench.run_bench(
        scenarios=args.scenarios,
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        warmup=args.warmup,
        profile_dir=args.profile,
        progress=lambda name: print(f"bench: {name} ...", file=sys.stderr),
    )
    print(bench.format_report(report))

    out = args.out or bench.default_report_name()
    bench.write_report(report, out)
    print(f"bench report written to {out}", file=sys.stderr)
    if args.profile:
        print(
            f"profiles written to {args.profile}/<scenario>.pstats",
            file=sys.stderr,
        )
    if args.update_baseline:
        baseline_path = "benchmarks/baseline.json"
        bench.write_report(report, baseline_path)
        print(f"baseline updated at {baseline_path}", file=sys.stderr)

    status = 0
    gate_failures = bench.gate_failures(report)
    if gate_failures:
        print("bench wall gates FAILED:", file=sys.stderr)
        for failure in gate_failures:
            print(f"  gate: {failure}", file=sys.stderr)
        status = 3
    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        failures, notes = bench.compare_reports(
            report, baseline, wall_tolerance=args.wall_tolerance
        )
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        if failures:
            print(
                f"bench comparison FAILED against {args.compare}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  regression: {failure}", file=sys.stderr)
            return 3
        print(f"bench comparison passed against {args.compare}", file=sys.stderr)
    return status


def _cmd_lint(args) -> int:
    from . import lint as lint_mod

    if args.list_rules:
        for rule_id in lint_mod.rule_ids():
            rule = lint_mod.RULES[rule_id]
            print(f"{rule_id:<8} [{rule.severity}] {rule.summary}")
        return 0

    paths = None
    if args.changed_only:
        from .lint.engine import changed_files

        paths = changed_files(args.root)
        if not paths:
            print("lint: no lintable files changed vs main", file=sys.stderr)
    if args.graph:
        from .durability import atomic_write_text
        from .lint.engine import default_root
        from .lint.flowrules import get_project

        root = pathlib.Path(args.root) if args.root else default_root()
        project = get_project(root)
        atomic_write_text(args.graph, project.graph.to_dot())
        print(
            f"call graph written to {args.graph} "
            f"({project.work_measure['modules']} modules, "
            f"{project.work_measure['call_edges']} edges)",
            file=sys.stderr,
        )

    report = lint_mod.run_lint(
        root=args.root, rules=args.rules, paths=paths, flow=args.flow
    )
    if args.write_baseline:
        lint_mod.write_baseline(report, args.write_baseline)
        print(
            f"lint baseline written to {args.write_baseline} "
            f"({len(report.findings)} finding(s))",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        baseline = lint_mod.load_baseline(args.baseline)
        report = lint_mod.apply_baseline(report, baseline)
    rendered = (
        lint_mod.render_json(report)
        if args.format == "json"
        else lint_mod.render_text(report) + "\n"
    )
    if args.out:
        from .durability import atomic_write_text

        atomic_write_text(args.out, rendered)
        print(f"lint report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 1 if report.errors else 0


def _parse_table_specs(specs, seed: int):
    """Materialise ``NAME=DATASET:N`` specs into Table objects.

    Each table gets one ``value`` column drawn from the named synthetic
    dataset with an rng derived from (seed, table index) — so the served
    data is a pure function of the CLI arguments.
    """
    from .engine import Table as _Table

    tables = {}
    for index, spec in enumerate(specs or ["orders=zipf2:20000"]):
        try:
            name, rest = spec.split("=", 1)
            dataset, n_text = rest.split(":", 1)
            n = int(n_text)
        except ValueError:
            raise ReproError(
                f"bad --table spec {spec!r}; expected NAME=DATASET:N"
            ) from None
        if dataset not in DATASET_NAMES:
            raise ReproError(
                f"unknown dataset {dataset!r}; pick one of "
                f"{', '.join(DATASET_NAMES)}"
            )
        data = make_dataset(dataset, n, rng=np.random.default_rng([seed, index]))
        tables[name] = _Table(name, {"value": data.values})
    return tables


def _serve_loadgen_report(args, summary) -> int:
    """Print/write a loadgen summary: logical JSON + wall latencies."""
    import json as _json

    logical_text = (
        _json.dumps(summary["logical"], indent=2, sort_keys=True) + "\n"
    )
    wall = summary["wall"]
    wall_text = _json.dumps(wall, indent=2, sort_keys=True) + "\n"
    if args.out:
        from .durability import atomic_write_text

        atomic_write_text(args.out, logical_text)
        print(f"logical summary written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(logical_text)
    if args.wall_out:
        from .durability import atomic_write_text

        atomic_write_text(args.wall_out, wall_text)
    checksums = summary["logical"]["checksums"]
    print(
        f"loadgen: {summary['logical']['requests']} requests by endpoint, "
        f"{checksums['answers']} answers "
        f"(rows_fsum={checksums['rows_fsum']:.6g}), "
        f"errors={summary['logical']['errors']}",
        file=sys.stderr,
    )
    print(
        f"latency: p50={wall['p50_s'] * 1e3:.3f} ms "
        f"p99={wall['p99_s'] * 1e3:.3f} ms "
        f"max={wall['max_s'] * 1e3:.3f} ms "
        f"over {wall['requests_timed']} timed requests",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    from .serve import (
        AdmissionController,
        LoadGenerator,
        LoadProfile,
        StatsServer,
        serve_forever,
    )

    if args.connect and args.loadgen:
        print(
            "error: pass --loadgen (in-process) or --connect HOST:PORT, "
            "not both",
            file=sys.stderr,
        )
        return 2
    with _maybe_tracing(args.trace, "serve"):
        if args.connect:
            try:
                host, port_text = args.connect.rsplit(":", 1)
                port = int(port_text)
            except ValueError:
                print(
                    f"error: bad --connect {args.connect!r}; expected "
                    "HOST:PORT",
                    file=sys.stderr,
                )
                return 2
            profile = LoadProfile(
                requests=args.requests, clients=args.clients,
                seed=args.loadgen_seed, churn_rows=args.churn_rows,
                analyze_params=(("k", args.k),),
            )
            summary = LoadGenerator(
                address=(host, port), profile=profile
            ).run()
            return _serve_loadgen_report(args, summary)

        server = StatsServer(
            _parse_table_specs(args.tables, args.seed),
            seed=args.seed,
            cache_capacity=args.cache_capacity,
            admission=AdmissionController(
                max_inflight=args.max_inflight, max_queue=args.max_queue
            ),
            store=args.store,
            build_params={"k": args.k},
            telemetry=args.telemetry,
        )
        if args.loadgen:
            profile = LoadProfile(
                requests=args.requests, clients=args.clients,
                seed=args.loadgen_seed, churn_rows=args.churn_rows,
                analyze_params=(("k", args.k),),
            )
            summary = LoadGenerator(server=server, profile=profile).run()
            server.checkpoint()
            return _serve_loadgen_report(args, summary)
        serve_forever(
            server, host=args.host, port=args.port,
            ready_path=args.ready_file,
        )
        return 0


def _cmd_top(args) -> int:
    from .serve.monitor import run_top

    try:
        host, port_text = args.connect.rsplit(":", 1)
        port = int(port_text)
    except ValueError:
        print(
            f"error: bad --connect {args.connect!r}; expected HOST:PORT",
            file=sys.stderr,
        )
        return 2
    if args.frames is not None and args.frames < 1:
        print(
            f"error: --frames must be >= 1, got {args.frames}",
            file=sys.stderr,
        )
        return 2
    code = run_top(
        host, port,
        once=args.once, interval=args.interval, frames=args.frames,
        out=args.out,
    )
    if args.out:
        print(f"logical snapshot written to {args.out}", file=sys.stderr)
    return code


def _cmd_metrics(args) -> int:
    from .obs import metrics as obs_metrics

    wrapped = list(args.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        print(
            "error: metrics needs a subcommand to wrap, e.g. "
            "`python -m repro metrics demo zipf2`",
            file=sys.stderr,
        )
        return 2
    if wrapped[0] == "metrics":
        print("error: metrics cannot wrap itself", file=sys.stderr)
        return 2
    with obs_metrics.collecting() as registry:
        code = main(wrapped)
    renderers = {
        "text": obs_metrics.render_text,
        "json": obs_metrics.render_json,
        "prom": obs_metrics.render_prom,
    }
    rendered = renderers[args.format](registry)
    if args.out:
        from .durability import atomic_write_text

        atomic_write_text(args.out, rendered)
        print(f"metrics written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "estimate": _cmd_estimate,
        "plan": _cmd_plan,
        "demo": _cmd_demo,
        "figure": _cmd_figure,
        "chaos": _cmd_chaos,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "metrics": _cmd_metrics,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
