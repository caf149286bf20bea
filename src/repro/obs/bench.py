"""Deterministic benchmark harness: the library's own cost story, measured.

The paper's central claim is a *cost* claim — the Theorem 4/5 sample sizes
and the CVB stopping rule buy bounded histogram error for a small,
predictable I/O and CPU budget.  This module closes the loop on that claim
for the reproduction itself: a registry of named **scenarios** covering
every hot path the cost story runs through (record sampling, block
sampling, the CVB build, histogram merging, distinct estimation,
selectivity lookup, :class:`~repro.experiments.parallel.TrialPool`
scaling at 1/2/4 workers, a full :mod:`repro.lint` static-analysis
sweep, and the :mod:`repro.durability` machinery — catalog
checkpoint/recovery and resumable map splicing), each measured two ways:

- **logical costs** — pages read (via
  :class:`~repro.storage.iostats.IOStats`), counters from the
  :class:`~repro.obs.metrics.MetricsRegistry`, and the scenario's own
  deterministic outputs.  These are RNG-inert: two runs with the same seed
  produce byte-identical logical sections, so a regression (an extra page
  read per build, a changed CVB round count) is detectable *exactly*, even
  on a noisy CI runner.
- **wall-clock** — median over ``repeats`` timed runs after ``warmup``
  untimed runs, reported but never part of the deterministic section and
  never compared across runs.  A scenario may declare a :class:`WallGate`
  over two of its own wall readings (e.g. "a cache hit costs at most a
  tenth of a cold ANALYZE"), a ratio within one run that machine speed
  does not move; the verdict lands in the wall section and
  :func:`gate_failures` lists the gates a report failed.

:func:`run_bench` produces a schema-versioned report
(:data:`BENCH_SCHEMA_VERSION`), written only where ``--out`` says, and
:func:`compare_reports` gates a report against the checked-in baseline
(``benchmarks/baseline.json``): logical costs must match exactly.  The
baseline keeps only what :func:`baseline_of` takes from a smoke run —
schema version, scale, seed and logical sections — so regenerating it on
an unchanged commit rewrites the same bytes.  Cross-commit wall-clock
claims belong to the end-to-end benchmark (``benchmarks/e2e/run.py
compare`` over paired seeds), not to this harness.  ``--profile DIR``
wraps each scenario in :mod:`cProfile` and dumps a loadable ``.pstats``
plus a top-N hot-function text report per scenario.

Layering note: unlike the rest of :mod:`repro.obs`, this module imports
*downward* into sampling/core/engine/experiments — it is a harness that
drives the library, not infrastructure the library reports into.  It is
therefore **not** imported by ``repro.obs.__init__`` (that would cycle);
import it explicitly as ``from repro.obs import bench``.

Shell entry point::

    python -m repro bench --out bench.json      # run, write the report
    python -m repro bench --list                # show the scenario registry
    python -m repro bench --compare benchmarks/baseline.json
    python -m repro bench --update-baseline
    python -m repro bench --profile prof/ --trace bench-trace.jsonl
"""

from __future__ import annotations

import cProfile
import datetime
import io
import json
import math
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..exceptions import ParameterError
from . import metrics as _metrics
from . import trace as _trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchScale",
    "SCALES",
    "WallGate",
    "Scenario",
    "SCENARIOS",
    "scenario_names",
    "run_scenario",
    "run_bench",
    "gate_failures",
    "logical_section",
    "baseline_of",
    "compare_reports",
    "write_report",
    "git_short_sha",
    "write_profile",
    "format_report",
]

#: Version stamp of the bench report layout.  Bump on any breaking
#: change to the report structure; :func:`compare_reports` refuses to
#: compare across versions.
BENCH_SCHEMA_VERSION = 1

#: Histogram metrics whose observations are wall-clock measurements; they
#: are excluded from the deterministic logical section.
_TIMING_METRICS = frozenset(
    {"repro_pool_trial_seconds", "repro_serve_request_seconds"}
)

#: Counter metrics whose values are serialization byte sizes (pickle
#: protocol, platform path lengths) and therefore vary across Python
#: versions; excluded from the logical section so the baseline gate stays
#: portable across the CI matrix.
_NONPORTABLE_METRICS = frozenset({"repro_checkpoint_bytes_total"})


# ----------------------------------------------------------------------
# Scales
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchScale:
    """Workload sizing for one bench run.

    ``smoke`` keeps every scenario under a couple of seconds so the full
    registry fits in a CI gate; ``default`` is a heavier local profile for
    investigating a regression the smoke gate caught.
    """

    name: str
    #: Table rows for the synthetic dataset behind every scenario.
    n: int
    #: Records per simulated disk page.
    blocking_factor: int
    #: Histogram bucket count.
    k: int
    #: Tuples drawn by the record-sampling scenario.
    record_sample: int
    #: Pages drawn by the block-sampling scenario.
    block_sample: int
    #: Range queries answered by the selectivity scenario.
    queries: int
    #: Monte-Carlo trials per TrialPool scenario.
    pool_trials: int
    #: Block-sampling rate used inside the TrialPool scenarios.
    pool_rate: float


#: The available workload sizes, keyed by name.
SCALES: dict[str, BenchScale] = {
    scale.name: scale
    for scale in (
        BenchScale(
            name="smoke",
            n=20_000,
            blocking_factor=50,
            k=20,
            record_sample=500,
            block_sample=80,
            queries=200,
            pool_trials=6,
            pool_rate=0.1,
        ),
        BenchScale(
            name="default",
            n=100_000,
            blocking_factor=50,
            k=50,
            record_sample=2_000,
            block_sample=400,
            queries=1_000,
            pool_trials=12,
            pool_rate=0.1,
        ),
    )
}


def _get_scale(scale: str | BenchScale) -> BenchScale:
    if isinstance(scale, BenchScale):
        return scale
    if scale not in SCALES:
        raise ParameterError(
            f"unknown bench scale {scale!r}; choose one of {sorted(SCALES)}"
        )
    return SCALES[scale]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WallGate:
    """A declared wall-clock claim: ``reading <= factor * reference + floor_s``.

    *reading* and *reference* name readings in the scenario's own ``wall``
    section (seconds).  The harness checks the gate on the scenario's
    fastest timed run and records the verdict in that wall section, never
    in the logical one, so the baseline comparison stays independent of
    machine speed.
    """

    reading: str
    reference: str
    factor: float
    floor_s: float = 0.0

    def verdict(self, wall: dict) -> dict:
        """Check the gate against one wall section; returns the verdict."""
        bound = self.factor * wall[self.reference] + self.floor_s
        return {
            "rule": (
                f"{self.reading} <= {self.factor:g} x {self.reference} "
                f"+ {self.floor_s:g} s"
            ),
            "reading_s": wall[self.reading],
            "bound_s": bound,
            "passed": wall[self.reading] <= bound,
        }


@dataclass(frozen=True)
class Scenario:
    """One named benchmark: a setup, a measured kernel, and its paper hook.

    ``setup(scale, seed)`` builds a context dict once per bench run (data
    materialisation is never timed); ``run(ctx)`` executes the measured
    kernel and returns a dict of deterministic outputs that become part of
    the logical section; ``teardown(ctx)``, when given, releases resources
    (worker pools) after the scenario completes.  A context may carry a
    ``"heapfile"`` entry, in which case the harness also records the
    :class:`~repro.storage.iostats.IOStats` delta of the logical run, and a
    ``"wall_extra"`` dict of extra wall readings (seconds) that join the
    report's wall section.
    """

    name: str
    #: Paper symbol / figure the scenario's cost maps to (see EXPERIMENTS.md).
    paper: str
    help: str
    setup: Callable[[BenchScale, int], dict]
    run: Callable[[dict], dict]
    teardown: Callable[[dict], None] | None = None
    #: Declared wall-clock claim, checked on the fastest timed run.
    gate: WallGate | None = None


SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ParameterError(f"duplicate bench scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> list[str]:
    """Registered scenario names, in registration (execution) order."""
    return list(SCENARIOS)


def _make_table(scale: BenchScale, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared synthetic column: zipf2 values plus their sorted copy."""
    from ..workloads.datasets import make_dataset

    values = make_dataset("zipf2", scale.n, rng=seed).values
    return values, np.sort(values)


def _make_heapfile(scale: BenchScale, seed: int):
    """Materialise the shared column as a randomly laid-out heap file."""
    from ..storage.heapfile import HeapFile

    values, sorted_values = _make_table(scale, seed)
    heapfile = HeapFile.from_values(
        values,
        layout="random",
        rng=seed + 1,
        blocking_factor=scale.blocking_factor,
    )
    return values, sorted_values, heapfile


def _sample_result(sample: np.ndarray) -> dict:
    """Logical fingerprint of a tuple sample: its size and exact sum."""
    return {
        "tuples": int(sample.size),
        "sample_sum": float(math.fsum(sample.tolist())),
    }


def _histogram_result(histogram) -> dict:
    """Logical fingerprint of a histogram: k, total, exact separator sum."""
    return {
        "k": int(histogram.k),
        "total": int(histogram.total),
        "separator_sum": float(math.fsum(histogram.separators.tolist())),
    }


# --- record sampling ---------------------------------------------------


def _record_sampling_setup(scale: BenchScale, seed: int) -> dict:
    """Heap file plus the draw size for the record-sampling kernel."""
    _, _, heapfile = _make_heapfile(scale, seed)
    return {"heapfile": heapfile, "r": scale.record_sample, "seed": seed + 2}


def _record_sampling_run(ctx: dict) -> dict:
    """Draw ``r`` tuples through the page-per-tuple cost model."""
    from ..sampling.record_sampler import sample_records_from_file

    return _sample_result(
        sample_records_from_file(ctx["heapfile"], ctx["r"], rng=ctx["seed"])
    )


_register(
    Scenario(
        name="record_sampling",
        paper="Section 3 / Theorem 4: r tuples cost r page reads",
        help="sample_records_from_file at the Theorem 4 cost model",
        setup=_record_sampling_setup,
        run=_record_sampling_run,
    )
)


# --- block sampling ----------------------------------------------------


def _block_sampling_setup(scale: BenchScale, seed: int) -> dict:
    """Heap file plus the page-draw size for the block-sampling kernel."""
    _, _, heapfile = _make_heapfile(scale, seed)
    return {
        "heapfile": heapfile,
        "num_blocks": scale.block_sample,
        "seed": seed + 3,
    }


def _block_sampling_run(ctx: dict) -> dict:
    """Sample whole pages — the Section 4 alternative the paper argues for."""
    from ..sampling.block_sampler import sample_blocks

    return _sample_result(
        sample_blocks(ctx["heapfile"], ctx["num_blocks"], rng=ctx["seed"])
    )


_register(
    Scenario(
        name="block_sampling",
        paper="Section 4 / Figure 4: blocks sampled are the I/O unit",
        help="sample_blocks page-level draws",
        setup=_block_sampling_setup,
        run=_block_sampling_run,
    )
)


# --- CVB build ---------------------------------------------------------


def _cvb_setup(scale: BenchScale, seed: int) -> dict:
    """Heap file plus target parameters for the adaptive CVB build."""
    _, _, heapfile = _make_heapfile(scale, seed)
    return {"heapfile": heapfile, "k": scale.k, "seed": seed + 4}


def _cvb_run(ctx: dict) -> dict:
    """One full cross-validation-based adaptive build (Theorem 7)."""
    from ..core.adaptive import cvb_build

    result = cvb_build(ctx["heapfile"], k=ctx["k"], f=0.25, rng=ctx["seed"])
    return {
        "pages_sampled": int(result.pages_sampled),
        "tuples_sampled": int(result.tuples_sampled),
        "iterations": len(result.iterations),
        "converged": bool(result.converged),
    }


_register(
    Scenario(
        name="cvb_build",
        paper="Section 6 / Theorem 7 and Figure 6: adaptive stopping cost",
        help="cvb_build adaptive sampling to a target error",
        setup=_cvb_setup,
        run=_cvb_run,
    )
)


# --- histogram merge ---------------------------------------------------


def _merge_setup(scale: BenchScale, seed: int) -> dict:
    """Two partition histograms over disjoint halves of the column."""
    from ..core.histogram import EquiHeightHistogram

    values, _ = _make_table(scale, seed)
    half = values.size // 2
    return {
        "left": EquiHeightHistogram.from_values(values[:half], scale.k),
        "right": EquiHeightHistogram.from_values(values[half:], scale.k),
        "k": scale.k,
    }


def _merge_run(ctx: dict) -> dict:
    """Merge the two partition histograms into one k-bucket summary."""
    from ..core.merge import merge_equi_height

    return _histogram_result(
        merge_equi_height(ctx["left"], ctx["right"], ctx["k"])
    )


_register(
    Scenario(
        name="merge_equi_height",
        paper="DESIGN.md partitioned ANALYZE: union-apportion-rebucket merge",
        help="merge_equi_height partition-histogram merging",
        setup=_merge_setup,
        run=_merge_run,
    )
)


# --- distinct estimation ----------------------------------------------


def _distinct_setup(scale: BenchScale, seed: int) -> dict:
    """A with-replacement tuple sample for the GEE frequency profile."""
    from ..sampling.record_sampler import sample_with_replacement

    values, _ = _make_table(scale, seed)
    sample = sample_with_replacement(values, scale.record_sample, rng=seed + 5)
    return {"sample": sample, "n": scale.n}


def _distinct_run(ctx: dict) -> dict:
    """Profile the sample and run the paper's GEE distinct estimator."""
    from ..distinct.estimators import GEEEstimator
    from ..distinct.frequency import FrequencyProfile

    profile = FrequencyProfile.from_sample(ctx["sample"])
    estimate = GEEEstimator().estimate(profile, ctx["n"])
    return {
        "estimate": float(estimate),
        "distinct_in_sample": int(profile.distinct_in_sample),
    }


_register(
    Scenario(
        name="distinct_gee",
        paper="Section 6.3 / Theorem 8 and Figures 9-10: the GEE estimator",
        help="FrequencyProfile + GEE distinct-value estimation",
        setup=_distinct_setup,
        run=_distinct_run,
    )
)


# --- selectivity lookup ------------------------------------------------


def _selectivity_setup(scale: BenchScale, seed: int) -> dict:
    """A histogram-backed estimator plus a random range-query workload."""
    from ..core.histogram import EquiHeightHistogram
    from ..engine.selectivity import RangeSelectivityEstimator
    from ..workloads.queries import random_range_queries

    values, sorted_values = _make_table(scale, seed)
    histogram = EquiHeightHistogram.from_values(values, scale.k)
    return {
        "estimator": RangeSelectivityEstimator(histogram, scale.n),
        "queries": random_range_queries(
            sorted_values, scale.queries, rng=seed + 6
        ),
    }


def _selectivity_run(ctx: dict) -> dict:
    """Answer the whole workload — the optimizer's per-query hot path."""
    estimator = ctx["estimator"]
    estimates = [estimator.estimate(query) for query in ctx["queries"]]
    return {
        "queries": len(estimates),
        "estimate_sum": float(math.fsum(estimates)),
    }


_register(
    Scenario(
        name="selectivity_lookup",
        paper="Section 2 / Theorem 3: range estimates from the histogram",
        help="RangeSelectivityEstimator over a random range workload",
        setup=_selectivity_setup,
        run=_selectivity_run,
    )
)


# --- TrialPool scaling -------------------------------------------------


def _pool_setup(workers: int) -> Callable[[BenchScale, int], dict]:
    """Build a setup function binding the TrialPool worker count."""

    def _setup(scale: BenchScale, seed: int) -> dict:
        from ..experiments.parallel import TrialPool

        _, sorted_values, heapfile = _make_heapfile(scale, seed)
        return {
            "heapfile": heapfile,
            "sorted_values": sorted_values,
            "pool": TrialPool(max_workers=workers),
            "scale": scale,
            "seed": seed + 7,
        }

    return _setup


def _pool_run(ctx: dict) -> dict:
    """One ``mean_error_at_rate`` fan-out through the trial pool."""
    from ..experiments.runner import mean_error_at_rate

    scale: BenchScale = ctx["scale"]
    error = mean_error_at_rate(
        ctx["heapfile"],
        ctx["sorted_values"],
        scale.pool_rate,
        scale.k,
        trials=scale.pool_trials,
        rng=ctx["seed"],
        pool=ctx["pool"],
    )
    stats = ctx["pool"].last_stats.to_dict()
    return {
        "median_error": float(error),
        "trials": stats["trials"],
        "workers": stats["workers"],
        "mode": stats["mode"],
        "num_chunks": stats["num_chunks"],
        "page_reads": stats["page_reads"],
    }


def _pool_teardown(ctx: dict) -> None:
    """Release the scenario's worker processes."""
    ctx["pool"].close()


for _workers in (1, 2, 4):
    _register(
        Scenario(
            name=f"trialpool_w{_workers}",
            paper=(
                "Trial engine (PR 1): bit-identical Monte-Carlo fan-out at "
                f"{_workers} worker(s)"
            ),
            help=f"mean_error_at_rate through a TrialPool of {_workers}",
            setup=_pool_setup(_workers),
            run=_pool_run,
            teardown=_pool_teardown,
        )
    )


# --- static analysis ---------------------------------------------------


def _lint_setup(scale: BenchScale, seed: int) -> dict:
    """Resolve the repo root the lint scenario will sweep."""
    from .. import lint

    return {"root": lint.default_root()}


def _lint_run(ctx: dict) -> dict:
    """One full ``repro.lint`` sweep; logical cost = rules and findings.

    Runs with ``flow=True`` so the whole-program pass (symbol table, call
    graph, SEED/CON rules) is inside the measured work.  The corpus is this
    repo itself, so its size (files, AST nodes, flow modules and call
    edges) moves whenever the source or the doc set is edited: those
    counts are reported under ``wall_extra``, never gated.
    """
    from .. import lint

    report = lint.run_lint(root=ctx["root"], flow=True)
    ctx["wall_extra"] = {
        "files": report.files,
        "nodes": report.nodes,
        "flow_modules": report.flow["modules"],
        "flow_call_edges": report.flow["call_edges"],
    }
    return {
        "rules": len(report.rules),
        "findings": len(report.findings),
        "errors": len(report.errors),
    }


_register(
    Scenario(
        name="lint_full_repo",
        paper=(
            "Determinism contract (PR 5): the invariants behind "
            "Theorems 4-7 reproductions, checked statically"
        ),
        help="full repro.lint sweep over src/repro plus the Markdown docs",
        setup=_lint_setup,
        run=_lint_run,
    )
)


# --- vectorized kernels ------------------------------------------------


def _kernel_gather_setup(scale: BenchScale, seed: int) -> dict:
    """Heap file plus a with-replacement page-id batch for the gather."""
    rng = np.random.default_rng(seed + 8)
    _, _, heapfile = _make_heapfile(scale, seed)
    page_ids = rng.integers(0, heapfile.num_pages, size=4 * scale.block_sample)
    return {"heapfile": heapfile, "page_ids": page_ids}


def _kernel_gather_run(ctx: dict) -> dict:
    """One batched multi-page read — the block-sampling access path."""
    payload = ctx["heapfile"].read_pages(ctx["page_ids"])  # repro: noqa[FLT001]
    return _sample_result(payload)


_register(
    Scenario(
        name="kernel_page_gather",
        paper="Hot-path kernels: batched page draws (gather_pages kernel)",
        help="HeapFile.read_pages over a with-replacement page batch",
        setup=_kernel_gather_setup,
        run=_kernel_gather_run,
    )
)


def _kernel_histogram_setup(scale: BenchScale, seed: int) -> dict:
    """The unsorted shared column plus the bucket count."""
    values, _ = _make_table(scale, seed)
    return {"values": values, "k": scale.k}


def _kernel_histogram_run(ctx: dict) -> dict:
    """Build an equi-height histogram from unsorted values.

    Prices the adaptive sort-probe separator extraction plus run-boundary
    counting of :mod:`repro.core.kernels`.
    """
    from ..core.histogram import EquiHeightHistogram

    hist = EquiHeightHistogram.from_values(ctx["values"], ctx["k"])
    return {
        **_histogram_result(hist),
        "eq_count_sum": int(hist.eq_counts.sum()),
    }


_register(
    Scenario(
        name="kernel_histogram_build",
        paper="Hot-path kernels: adaptive sort-probe separator extraction",
        help="EquiHeightHistogram.from_values on the unsorted column",
        setup=_kernel_histogram_setup,
        run=_kernel_histogram_run,
    )
)


def _kernel_recount_setup(scale: BenchScale, seed: int) -> dict:
    """A sample-derived histogram plus the sorted full column to recount."""
    from ..core.histogram import EquiHeightHistogram
    from ..sampling.record_sampler import sample_with_replacement

    values, sorted_values = _make_table(scale, seed)
    sample = sample_with_replacement(values, scale.record_sample, rng=seed + 9)
    return {
        "histogram": EquiHeightHistogram.from_values(sample, scale.k),
        "values": sorted_values,
    }


def _kernel_recount_run(ctx: dict) -> dict:
    """Ground-truth recount under fixed sample separators (Figures 5/7)."""
    recounted = ctx["histogram"].recount(ctx["values"])
    return {
        "total": int(recounted.total),
        "count_checksum": int(
            np.multiply(
                recounted.counts, np.arange(1, recounted.k + 1)
            ).sum()
        ),
        "eq_count_sum": int(recounted.eq_counts.sum()),
    }


_register(
    Scenario(
        name="kernel_recount",
        paper="Hot-path kernels: sort-free fixed-separator counting",
        help="EquiHeightHistogram.recount of the full column",
        setup=_kernel_recount_setup,
        run=_kernel_recount_run,
    )
)


def _kernel_merge_setup(scale: BenchScale, seed: int) -> dict:
    """Two sorted runs shaped like a CVB accumulated sample + increment."""
    values, sorted_values = _make_table(scale, seed)
    split = values.size * 3 // 4
    return {
        "accumulated": sorted_values[:split],
        "increment": np.sort(values[split:]),
    }


def _kernel_merge_run(ctx: dict) -> dict:
    """One CVB-style sorted merge of increment into accumulated sample."""
    from ..core import kernels

    merged = kernels.merge_sorted(ctx["accumulated"], ctx["increment"])
    return {
        "size": int(merged.size),
        "is_sorted": bool(np.all(merged[1:] >= merged[:-1])),
        "merged_sum": float(math.fsum(merged.tolist())),
    }


_register(
    Scenario(
        name="kernel_merge_sorted",
        paper="Hot-path kernels / Section 7.1 ext. 2: batched increment merge",
        help="kernels.merge_sorted of accumulated sample and increment",
        setup=_kernel_merge_setup,
        run=_kernel_merge_run,
    )
)


# --- durability --------------------------------------------------------


def _next_run_dir(ctx: dict) -> Path:
    """A fresh subdirectory of the scenario's scratch root for this run."""
    directory = Path(ctx["root"]) / f"run{ctx['runs']}"
    ctx["runs"] += 1
    return directory


def _durability_catalog_setup(scale: BenchScale, seed: int) -> dict:
    """A handful of statistics bundles plus a scratch directory tree."""
    import dataclasses
    import tempfile

    from ..engine import StatisticsManager, Table

    values, _ = _make_table(scale, seed)
    table = Table("bench", {"value": values[:4000]})
    base = StatisticsManager().analyze(
        table,
        "value",
        k=10,
        f=0.25,
        method="record",
        record_sample_size=200,
        rng=seed + 12,
    )
    bundles = [
        dataclasses.replace(base, column_name=f"c{i}") for i in range(4)
    ]
    root = tempfile.mkdtemp(prefix="repro-bench-durability-")
    return {"bundles": bundles, "root": root, "runs": 0}


def _durability_catalog_run(ctx: dict) -> dict:
    """Put/checkpoint/put/reopen cycle — the durable-catalog hot path.

    Each run uses a fresh subdirectory so the journal and snapshot are
    built from scratch every time; the reopen at the end replays the
    post-checkpoint tail, proving recovery inside the measured kernel.
    """
    from ..durability import CatalogStore

    directory = _next_run_dir(ctx)
    store = CatalogStore(directory)
    for stats in ctx["bundles"]:
        store.put(stats)
    store.checkpoint()
    for stats in ctx["bundles"][:2]:
        store.put(stats)
    reopened = CatalogStore(directory)
    catalog = reopened.catalog
    version_sum = sum(  # repro: noqa[DET004]
        catalog.version(table, column) for table, column in catalog.keys()
    )
    recoveries = sum(  # repro: noqa[DET004]
        reopened.recoveries.values()
    )
    return {
        "entries": len(catalog),
        "replayed": reopened.replayed,
        "version_sum": version_sum,
        "recoveries": recoveries,
    }


def _durability_teardown(ctx: dict) -> None:
    """Remove the scenario's scratch directory tree."""
    import shutil

    shutil.rmtree(ctx["root"], ignore_errors=True)


_register(
    Scenario(
        name="durability_catalog",
        paper="Crash-safe catalog (PR 7): snapshot+journal persistence cost",
        help="CatalogStore put/checkpoint/reopen cycle with journal replay",
        setup=_durability_catalog_setup,
        run=_durability_catalog_run,
        teardown=_durability_teardown,
    )
)


def _durability_trial(seed: int) -> float:
    """Tiny deterministic trial kernel for the resume scenario."""
    draws = np.random.default_rng(seed).standard_normal(64)
    return float(math.fsum(draws.tolist()))


def _durability_resume_setup(scale: BenchScale, seed: int) -> dict:
    """Per-trial seeds plus a scratch directory for the run journals."""
    import tempfile

    from .._rng import spawn_seeds

    root = tempfile.mkdtemp(prefix="repro-bench-resume-")
    return {
        "root": root,
        "seeds": spawn_seeds(seed + 13, scale.pool_trials),
        "runs": 0,
    }


def _durability_resume_run(ctx: dict) -> dict:
    """A checkpointed map followed by a full resume of the same map.

    ``identical`` entering the baseline means the resume-equals-rerun
    contract is re-checked by the bench gate on every run; the resumed
    map splices every chunk from the journal without re-executing.
    """
    from ..durability import RunCheckpoint
    from ..experiments.parallel import TrialPool

    directory = _next_run_dir(ctx)
    with TrialPool(
        max_workers=1, chunk_size=2, checkpoint=RunCheckpoint(directory)
    ) as pool:
        first = pool.map(_durability_trial, ctx["seeds"])
    with TrialPool(
        max_workers=1,
        chunk_size=2,
        checkpoint=RunCheckpoint(directory, resume=True),
    ) as resumed_pool:
        second = resumed_pool.map(_durability_trial, ctx["seeds"])
    stats = resumed_pool.last_stats
    return {
        "trials": stats.trials,
        "chunks": stats.num_chunks,
        "resumed_chunks": stats.chunks_resumed,
        "identical": first == second,
    }


_register(
    Scenario(
        name="durability_resume_map",
        paper="Resumable sweeps (PR 7): journal splice vs re-execution",
        help="checkpointed TrialPool map, then a bit-identical full resume",
        setup=_durability_resume_setup,
        run=_durability_resume_run,
        teardown=_durability_teardown,
    )
)


# --- serve -------------------------------------------------------------


def _serve_queries(values: np.ndarray, count: int, seed: int) -> list:
    """Deterministic range-query schedule over the column's domain."""
    rng = np.random.default_rng(seed)
    lo_d, hi_d = float(values.min()), float(values.max())
    width = hi_d - lo_d
    queries = []
    for _ in range(count):
        a, b = sorted((float(rng.random()), float(rng.random())))
        queries.append((lo_d + a * width, lo_d + b * width))
    return queries


def _server(values: np.ndarray, k: int, seed: int, **kwargs):
    """A fresh statistics server over the shared column, nothing built."""
    from ..engine import Table
    from ..serve import StatsServer

    return StatsServer(
        {"bench": Table("bench", {"value": values})},
        seed=seed,
        build_params={"k": k},
        **kwargs,
    )


def _analyze(server) -> None:
    """Warm *server* up with one ANALYZE of the column."""
    response = server.handle(
        {"op": "analyze", "table": "bench", "column": "value"}
    )
    if not response["ok"]:  # pragma: no cover - setup invariant
        raise ParameterError(f"serve warmup failed: {response}")


def _serve_cache_setup(scale: BenchScale, seed: int) -> dict:
    """A warmed statistics server: one column built, cache+index hot.

    The warm-up is a cold ANALYZE on a fresh server (admission, sampling
    build, cache install), so it is timed here as the gate's reference.
    """
    values, _ = _make_table(scale, seed)
    server = _server(values, scale.k, seed + 21)
    # Wall-clock gate reference: lands in the wall section, never logical.
    start = time.perf_counter()  # repro: noqa[DET002]
    _analyze(server)
    cold_s = time.perf_counter() - start  # repro: noqa[DET002]
    return {
        "server": server,
        "queries": _serve_queries(values, scale.queries, seed + 22),
        "wall_extra": {"cold_analyze_s": cold_s},
    }


def _serve_cache_run(ctx: dict) -> dict:
    """Pure cache-hit serving: every request answered from the hot bundle.

    This is the latency floor of the serving path (no build, no staleness
    miss); the scenario's gate holds the mean per-request time to a tenth
    of the cold ANALYZE its setup timed.
    """
    server = ctx["server"]
    hits_before = server.cache.hits
    rows = []
    errors = 0
    start = time.perf_counter()  # repro: noqa[DET002]
    for lo, hi in ctx["queries"]:
        response = server.handle(
            {
                "op": "estimate_range", "table": "bench",
                "column": "value", "lo": lo, "hi": hi,
            }
        )
        if response["ok"]:
            rows.append(float(response["result"]["rows"]))
        else:
            errors += 1
    elapsed = time.perf_counter() - start  # repro: noqa[DET002]
    ctx["wall_extra"]["hit_request_s"] = elapsed / len(ctx["queries"])
    return {
        "requests": len(ctx["queries"]),
        "rows_fsum": math.fsum(rows),
        "cache_hits": server.cache.hits - hits_before,
        "errors": errors,
    }


_register(
    Scenario(
        name="serve_cache",
        paper="Serving layer: statistics-cache hit path",
        help="estimate_range against a hot StatsServer cache + BucketIndex",
        setup=_serve_cache_setup,
        run=_serve_cache_run,
        gate=WallGate(
            reading="hit_request_s", reference="cold_analyze_s", factor=0.1
        ),
    )
)


def _loadgen_setup(scale: BenchScale, seed: int) -> dict:
    """Inputs for a full closed-loop loadgen run (servers built per run)."""
    values, _ = _make_table(scale, seed)
    return {
        "values": values,
        "k": scale.k,
        "seed": seed,
        "requests": scale.queries,
        # Past the RefreshPolicy threshold max(500, 0.2 n), so the churn
        # phase triggers exactly one auto-refresh of the column.
        "churn": scale.n // 4 + 500,
    }


def _loadgen(ctx: dict, telemetry: bool = False):
    """One deterministic loadgen run (warmup build, churn refresh, queries).

    Runs against a fresh server; returns ``(summary, server)``.
    """
    from ..serve import LoadGenerator, LoadProfile

    server = _server(
        ctx["values"], ctx["k"], ctx["seed"] + 31, telemetry=telemetry
    )
    profile = LoadProfile(
        requests=ctx["requests"],
        clients=2,
        seed=ctx["seed"] + 32,
        churn_rows=ctx["churn"],
        analyze_params=(("k", ctx["k"]),),
    )
    return LoadGenerator(server=server, profile=profile).run(), server


def _serve_latency_run(ctx: dict) -> dict:
    """One deterministic loadgen run: warmup build, churn refresh, queries.

    The loadgen's logical summary is bit-identical across client counts;
    its request-latency p50/p99 land in the report's wall section via
    ``wall_extra``.
    """
    summary, _ = _loadgen(ctx)
    logical = summary["logical"]
    ctx["wall_extra"] = {
        "p50_s": summary["wall"]["p50_s"],
        "p99_s": summary["wall"]["p99_s"],
    }
    return {
        "requests": logical["requests"],
        "answers": logical["checksums"]["answers"],
        "rows_fsum": logical["checksums"]["rows_fsum"],
        "refreshes": logical["builds"]["refreshes"],
        "errors": logical["errors"],
    }


_register(
    Scenario(
        name="serve_latency",
        paper="Serving layer: closed-loop load, p50/p99 wall",
        help="deterministic loadgen run (warmup + churn refresh + queries)",
        setup=_loadgen_setup,
        run=_serve_latency_run,
    )
)


def _serve_degraded_setup(scale: BenchScale, seed: int) -> dict:
    """A server whose only column aborts every rebuild (poisoned budget).

    Mirrors the resilience tests' sabotage: the remembered build params
    gain a 50% transient-fault policy with a 2-failed-reads budget, so
    every auto-refresh raises BuildAbortedError and the serving path falls
    back to the degraded last-known-good bundle.
    """
    from ..serve import AdmissionController
    from ..storage import FaultPolicy, ReadBudget, RetryPolicy

    values, _ = _make_table(scale, seed)
    server = _server(
        values,
        scale.k,
        seed + 41,
        admission=AdmissionController(max_inflight=1, max_queue=0),
    )
    _analyze(server)
    stats = server.auto.manager.statistics("bench", "value")
    stats.build_params["fault_policy"] = FaultPolicy(
        transient_rate=0.5, seed=seed + 42
    )
    stats.build_params["retry"] = RetryPolicy(max_attempts=2, seed=seed + 43)
    stats.build_params["read_budget"] = ReadBudget(max_failed_reads=2)
    return {
        "server": server,
        "queries": _serve_queries(values, scale.queries // 4, seed + 44),
        "churn": scale.n // 4 + 500,
    }


def _serve_degraded_run(ctx: dict) -> dict:
    """Degraded-mode serving: aborted refreshes + an admission shed.

    Every estimate finds stale statistics, attempts the (sabotaged)
    rebuild, and serves the last-known-good bundle flagged degraded; the
    final ANALYZE arrives while the only build slot is held and is shed,
    still answering from the degraded bundle.
    """
    server = ctx["server"]
    degraded_before = server.degraded_served
    shed_before = server.admission.shed
    server.handle(
        {
            "op": "modify", "table": "bench", "column": "value",
            "rows": ctx["churn"],
        }
    )
    rows = []
    all_degraded = True
    for lo, hi in ctx["queries"]:
        response = server.handle(
            {
                "op": "estimate_range", "table": "bench",
                "column": "value", "lo": lo, "hi": hi,
            }
        )
        rows.append(float(response["result"]["rows"]))
        all_degraded = all_degraded and response["result"]["degraded"]
    server.admission.try_acquire()  # hold the only slot
    try:
        shed_response = server.handle(
            {"op": "analyze", "table": "bench", "column": "value"}
        )
    finally:
        server.admission.release()
    shed_result = shed_response["result"]
    return {
        "requests": len(ctx["queries"]) + 1,
        "rows_fsum": math.fsum(rows),
        "all_degraded": all_degraded,
        "degraded_served": server.degraded_served - degraded_before,
        "shed": server.admission.shed - shed_before,
        "shed_served_degraded": bool(
            shed_response["ok"]
            and shed_result["degraded"]
            and shed_result["admission"] == "shed"
        ),
    }


_register(
    Scenario(
        name="serve_degraded",
        paper="Serving layer: degraded-mode + admission shed",
        help="aborted refreshes served from last-known-good; ANALYZE shed",
        setup=_serve_degraded_setup,
        run=_serve_degraded_run,
    )
)


def _telemetry_sketch_setup(scale: BenchScale, seed: int) -> dict:
    """A latency-like stream: the shared zipf2 column scaled into (0, 1]s."""
    values, _ = _make_table(scale, seed)
    return {"latencies": values.astype(float) / float(values.max())}


def _telemetry_sketch_run(ctx: dict) -> dict:
    """Sketch ingest + quantile queries, with a merge-order identity check.

    The stream is folded serially and through four shards merged in two
    different orders; all three exports must be byte-identical (the
    mergeability contract of docs/TELEMETRY.md, re-proved per bench run).
    Everything here is a pure function of the input stream, so the whole
    result is logical.
    """
    from ..obs.live import StreamingQuantileSketch

    latencies = ctx["latencies"]

    def _sketch() -> StreamingQuantileSketch:
        return StreamingQuantileSketch("serve_request_latency")

    serial = _sketch()
    for value in latencies.tolist():
        serial.observe(value)

    bounds = np.linspace(0, latencies.size, 5).astype(int)
    shards = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        shard = _sketch()
        for value in latencies[lo:hi].tolist():
            shard.observe(value)
        shards.append(shard)
    forward = _sketch()
    for shard in shards:
        forward.merge(shard)
    backward = _sketch()
    for shard in reversed(shards):
        backward.merge(shard)

    exports = {serial.to_json(), forward.to_json(), backward.to_json()}
    percentiles = serial.percentiles()
    return {
        "observations": serial.count,
        "occupied_buckets": len(serial),
        "merge_identical": len(exports) == 1,
        "p50": percentiles["p50"],
        "p99": percentiles["p99"],
        "cdf_half": serial.cdf(0.5),
    }


_register(
    Scenario(
        name="telemetry_sketch",
        paper="PR 9: equi-height histograms as streaming quantile sketches",
        help="sketch ingest + quantiles; merge-order bit-identity re-proved",
        setup=_telemetry_sketch_setup,
        run=_telemetry_sketch_run,
    )
)


def _telemetry_overhead_run(ctx: dict) -> dict:
    """The identical loadgen run against telemetry-off and -on servers.

    The two logical summaries must match byte-for-byte (telemetry is
    RNG-inert — the off-by-default contract, re-proved per bench run);
    the two request-latency p99s land in the wall section for the gate.
    A smoke-scale request takes tens of microseconds, so the gate's 1 ms
    floor absorbs jitter and it trips only on a structural regression.
    """
    off, _ = _loadgen(ctx)
    on, server = _loadgen(ctx, telemetry=True)
    ctx["wall_extra"] = {
        "baseline_p99_s": off["wall"]["p99_s"],
        "telemetry_p99_s": on["wall"]["p99_s"],
    }
    return {
        "requests": on["logical"]["requests"],
        "answers": on["logical"]["checksums"]["answers"],
        "rows_fsum": on["logical"]["checksums"]["rows_fsum"],
        "identical": (
            json.dumps(off["logical"], sort_keys=True)
            == json.dumps(on["logical"], sort_keys=True)
        ),
        "telemetry_clock": server.telemetry.clock,
    }


_register(
    Scenario(
        name="telemetry_overhead",
        paper="PR 9: telemetry-on request path vs the uninstrumented one",
        help="loadgen vs telemetry on/off; identical logical summaries",
        setup=_loadgen_setup,
        run=_telemetry_overhead_run,
        gate=WallGate(
            reading="telemetry_p99_s",
            reference="baseline_p99_s",
            factor=5.0,
            floor_s=1e-3,
        ),
    )
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _registry_logical(registry: _metrics.MetricsRegistry) -> dict:
    """Flatten a registry snapshot into a deterministic {series: value} map.

    Counter and gauge series map to their values; histogram series map to
    ``_count`` / ``_sum`` pairs (the exactly-rounded ``fsum``), except the
    wall-clock-valued series in :data:`_TIMING_METRICS`, which are dropped
    so the logical section stays RNG-inert and machine-independent.
    """
    snap = registry.snapshot()
    out: dict[str, float] = {}

    def _series(name: str, labels: dict) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{name}{{{inner}}}"

    for name, labels, value in snap["counters"]:
        if name in _NONPORTABLE_METRICS:
            continue
        out[_series(name, labels)] = value
    for name, labels, value in snap["gauges"]:
        out[_series(name, labels)] = value
    for name, labels, values in snap["histograms"]:
        if name in _TIMING_METRICS:
            continue
        key = _series(name, labels)
        out[key + "_count"] = len(values)
        out[key + "_sum"] = math.fsum(values)
    return out


def write_profile(
    profiler: cProfile.Profile, directory: Path, name: str, top: int = 25
) -> Path:
    """Dump *profiler* as ``<name>.pstats`` plus a top-*top* text report.

    Returns the ``.pstats`` path; the companion ``<name>_top.txt`` lists the
    hottest functions by cumulative time, for reading without a pstats
    viewer.
    """
    from ..durability import atomic_write_text

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stats_path = directory / f"{name}.pstats"
    profiler.dump_stats(stats_path)
    buffer = io.StringIO()
    stats = pstats.Stats(str(stats_path), stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    atomic_write_text(directory / f"{name}_top.txt", buffer.getvalue())
    return stats_path


def run_scenario(
    scenario: Scenario,
    scale: BenchScale,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    profile_dir: str | Path | None = None,
) -> dict:
    """Measure one scenario; returns its report entry.

    Phases, in order (each wrapped in a ``bench.scenario`` trace span):

    1. ``setup`` — build the context (never timed, never collected);
    2. ``logical`` — one run under a fresh metrics registry with the
       heap file's ``IOStats`` delta captured: the deterministic section;
    3. ``measure`` — *warmup* untimed runs, then *repeats* timed runs
       summarised as median/min/max wall-clock.  The fastest timed run's
       ``wall_extra`` readings join the wall section, and the scenario's
       :class:`WallGate`, if any, is checked on them;
    4. ``profile`` — with *profile_dir*, one extra run under
       :mod:`cProfile`, dumped via :func:`write_profile`.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ParameterError(f"warmup must be >= 0, got {warmup}")

    with _trace.span("bench.scenario", scenario=scenario.name, phase="setup"):
        ctx = scenario.setup(scale, seed)
    try:
        heapfile = ctx.get("heapfile")
        with _trace.span(
            "bench.scenario", scenario=scenario.name, phase="logical"
        ):
            with _metrics.collecting() as registry:
                if heapfile is not None:
                    with heapfile.iostats.delta() as io_delta:
                        result = scenario.run(ctx)
                else:
                    io_delta = {}
                    result = scenario.run(ctx)
        logical = {
            "result": result,
            "io": io_delta,
            "counters": _registry_logical(registry),
        }

        timed: list[tuple[float, dict]] = []
        with _trace.span(
            "bench.scenario",
            scenario=scenario.name,
            phase="measure",
            repeats=repeats,
            warmup=warmup,
        ):
            for _ in range(warmup):
                scenario.run(ctx)
            for _ in range(repeats):
                # Wall-clock observability: the measure phase feeds the
                # report's "wall" section, never the logical section.
                start = time.perf_counter()  # repro: noqa[DET002]
                scenario.run(ctx)
                elapsed = time.perf_counter() - start  # repro: noqa[DET002]
                timed.append((elapsed, dict(ctx.get("wall_extra", {}))))

        durations = [elapsed for elapsed, _ in timed]
        wall = {
            "median_s": statistics.median(durations),
            "min_s": min(durations),
            "max_s": max(durations),
            "repeats": repeats,
            "warmup": warmup,
        }
        # Extra readings (e.g. the serve scenarios' request-latency p50/p99)
        # come from the fastest timed run; only a declared gate reads them.
        _, best_extra = min(timed, key=lambda run: run[0])
        for key, value in sorted(best_extra.items()):
            wall.setdefault(key, value)
        if scenario.gate is not None:
            wall["gate"] = scenario.gate.verdict(wall)
        entry = {
            "help": scenario.help,
            "paper": scenario.paper,
            "logical": logical,
            "wall": wall,
        }

        if profile_dir is not None:
            with _trace.span(
                "bench.scenario", scenario=scenario.name, phase="profile"
            ):
                profiler = cProfile.Profile()
                profiler.runcall(scenario.run, ctx)
                write_profile(profiler, Path(profile_dir), scenario.name)
        return entry
    finally:
        if scenario.teardown is not None:
            scenario.teardown(ctx)


def run_bench(
    scenarios: list[str] | None = None,
    scale: str | BenchScale = "smoke",
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    profile_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run *scenarios* (default: the whole registry) and build a report.

    The report holds ``schema_version``, the run parameters, one entry per
    scenario (see :func:`run_scenario`), and a ``meta`` block (timestamp,
    git sha, python version) that :func:`baseline_of` drops.  Gate
    verdicts sit in each scenario's wall section; :func:`gate_failures`
    lists the failed ones.
    """
    bench_scale = _get_scale(scale)
    names = scenario_names() if scenarios is None else list(scenarios)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ParameterError(
            f"unknown bench scenario(s) {unknown}; "
            f"choose from {scenario_names()}"
        )
    report: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "scale": bench_scale.name,
        "seed": seed,
        "repeats": repeats,
        "warmup": warmup,
        "scenarios": {},
    }
    with _trace.span("bench.run", scale=bench_scale.name, scenarios=len(names)):
        for name in names:
            if progress is not None:
                progress(name)
            report["scenarios"][name] = run_scenario(
                SCENARIOS[name],
                bench_scale,
                seed=seed,
                repeats=repeats,
                warmup=warmup,
                profile_dir=profile_dir,
            )
    # Report provenance only: "meta" is excluded from logical comparison.
    now_utc = datetime.datetime.now(  # repro: noqa[DET002]
        datetime.timezone.utc
    )
    report["meta"] = {
        "generated_at": now_utc.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": git_short_sha(),
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }
    return report


def gate_failures(report: dict) -> list[str]:
    """One line per scenario in *report* whose declared wall gate failed."""
    failures = []
    for name, entry in report["scenarios"].items():
        verdict = entry["wall"].get("gate")
        if verdict is not None and not verdict["passed"]:
            failures.append(
                f"{name}: {verdict['rule']} failed: "
                f"{verdict['reading_s'] * 1e3:.3f} ms > bound "
                f"{verdict['bound_s'] * 1e3:.3f} ms"
            )
    return failures


# ----------------------------------------------------------------------
# Report I/O and comparison
# ----------------------------------------------------------------------


def git_short_sha(cwd: str | Path | None = None) -> str:
    """The repository's short HEAD sha, or ``"nogit"`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "nogit"


def write_report(report: dict, path: str | Path) -> Path:
    """Durably write *report* as stable (sorted-key, indented) JSON.

    Parent directories are created as needed (the baseline lives under
    ``benchmarks/``, which may not exist in a scratch checkout).  The
    write goes through :func:`repro.durability.atomic_write_json`, so a
    crash mid-write can never leave a truncated baseline behind.
    """
    from ..durability import atomic_write_json

    return atomic_write_json(Path(path), report)


def logical_section(report: dict) -> str:
    """Canonical JSON of the report's logical costs only.

    This is the byte-comparable determinism surface: two runs with the same
    seed and scale must produce identical strings (wall-clock and ``meta``
    are excluded by construction).
    """
    logical = {
        name: entry["logical"]
        for name, entry in sorted(report.get("scenarios", {}).items())
    }
    return json.dumps(logical, indent=2, sort_keys=True) + "\n"


def baseline_of(report: dict) -> dict:
    """The part of *report* that :func:`compare_reports` reads.

    Schema version, scale, seed and each scenario's logical section: no
    wall readings, run parameters or provenance, so the baseline written
    from an unchanged commit is the same bytes on any machine.
    """
    return {
        "schema_version": report["schema_version"],
        "scale": report["scale"],
        "seed": report["seed"],
        "scenarios": {
            name: {"logical": entry["logical"]}
            for name, entry in report["scenarios"].items()
        },
    }


def compare_reports(
    current: dict, baseline: dict
) -> tuple[list[str], list[str]]:
    """Gate *current* against *baseline*; returns ``(failures, notes)``.

    Logical costs must match **exactly** (any drift is a failure — page
    reads, counters and deterministic outputs cannot change without a code
    change explaining it).  Wall-clock is never compared: a reading from
    another run on another machine says nothing about this change.
    Scenarios present only on one side are a failure (missing from
    current) or a note (new in current).
    """
    failures: list[str] = []
    notes: list[str] = []
    if current.get("schema_version") != baseline.get("schema_version"):
        failures.append(
            "schema_version mismatch: current "
            f"{current.get('schema_version')!r} vs baseline "
            f"{baseline.get('schema_version')!r}"
        )
        return failures, notes
    for key in ("scale", "seed"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"{key} mismatch: current {current.get(key)!r} vs baseline "
                f"{baseline.get(key)!r} (logical costs are only comparable "
                f"at identical {key})"
            )
    if failures:
        return failures, notes

    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in sorted(base_scenarios):
        if name not in cur_scenarios:
            failures.append(f"{name}: missing from the current report")
            continue
        base_logical = base_scenarios[name]["logical"]
        cur_logical = cur_scenarios[name]["logical"]
        if cur_logical != base_logical:
            for detail in _logical_diff(base_logical, cur_logical):
                failures.append(f"{name}: {detail}")
    for name in sorted(set(cur_scenarios) - set(base_scenarios)):
        notes.append(
            f"{name}: new scenario, not in baseline "
            "(run --update-baseline to record it)"
        )
    return failures, notes


def _flatten(prefix: str, value: Any, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    else:
        out[prefix] = value


def _logical_diff(base: dict, cur: dict) -> list[str]:
    """Human-readable per-key differences between two logical sections."""
    flat_base: dict[str, Any] = {}
    flat_cur: dict[str, Any] = {}
    _flatten("", base, flat_base)
    _flatten("", cur, flat_cur)
    details = []
    for key in sorted(set(flat_base) | set(flat_cur)):
        if key not in flat_cur:
            details.append(f"logical cost {key!r} disappeared")
        elif key not in flat_base:
            details.append(f"new logical cost {key!r} = {flat_cur[key]!r}")
        elif flat_base[key] != flat_cur[key]:
            details.append(
                f"logical cost {key!r} changed: "
                f"{flat_base[key]!r} -> {flat_cur[key]!r}"
            )
    return details or ["logical section differs"]


def format_report(report: dict) -> str:
    """Human-readable summary table of a bench report."""
    lines = [
        f"bench scale={report['scale']} seed={report['seed']} "
        f"repeats={report['repeats']} warmup={report['warmup']} "
        f"(schema v{report['schema_version']})",
        "",
        f"{'scenario':<22} {'median ms':>10} {'min ms':>10} "
        f"{'page reads':>11} {'gate':>5}  paper hook",
    ]
    for name, entry in report["scenarios"].items():
        wall = entry["wall"]
        page_reads = entry["logical"]["result"].get("page_reads") or entry[
            "logical"
        ]["io"].get("page_reads", 0)
        verdict = wall.get("gate")
        gate = "-" if verdict is None else "ok" if verdict["passed"] else "FAIL"
        lines.append(
            f"{name:<22} {wall['median_s'] * 1e3:>10.2f} "
            f"{wall['min_s'] * 1e3:>10.2f} {page_reads:>11} {gate:>5}  "
            f"{entry['paper']}"
        )
    return "\n".join(lines)
