"""Chaos sweep: CVB histogram quality under storage fault injection.

The paper's guarantees (Theorem 7 and the ``f·s/k`` stopping rule) are
about what a *uniform sample* certifies; this experiment checks that the
resilient build keeps delivering on them when the storage layer misbehaves.
Each trial builds a heap file, wraps it in a
:class:`~repro.storage.faults.FaultyHeapFile` at a given transient-fault
rate (plus a fixed fraction of permanently corrupt pages), runs the
retrying CVB build, and measures the achieved duplicate-safe max error f′
(Definition 4 — what the stopping rule actually thresholds against ``f``)
over the *readable* portion of the table — the population a sample can
possibly represent once pages are permanently lost.

Trials fan out over the deterministic
:class:`~repro.experiments.parallel.TrialPool`: per-trial seeds are spawned
up front, so the sweep is bit-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._rng import RngLike, spawn_seeds
from ..obs import trace as _trace
from ..core.adaptive import cvb_build
from ..core.error_metrics import fractional_max_error
from ..exceptions import BuildAbortedError, ParameterError
from ..storage.faults import FaultPolicy, FaultyHeapFile, ReadBudget, RetryPolicy
from ..storage.heapfile import HeapFile
from ..storage.iostats import IOStats
from ..workloads.datasets import make_dataset
from .parallel import TrialPool
from .reporting import Series, format_table

__all__ = ["ChaosTrialResult", "ChaosPoint", "chaos_sweep", "format_chaos_report"]


@dataclass(frozen=True)
class ChaosTrialResult:
    """One trial's outcome (picklable: crosses TrialPool workers)."""

    fault_rate: float
    error: float  # achieved f' (Def. 4) over readable data; NaN if aborted
    converged: bool
    aborted: bool
    pages_sampled: int
    pages_skipped: int
    iostats: IOStats


@dataclass(frozen=True)
class ChaosPoint:
    """Aggregated trials at one fault rate."""

    fault_rate: float
    trials: int
    aborted: int
    converged: int
    mean_error: float
    worst_error: float
    iostats: IOStats


def _chaos_trial(task: tuple) -> ChaosTrialResult:
    """Picklable trial kernel: one resilient CVB build under faults."""
    (
        seed,
        n,
        k,
        f,
        fault_rate,
        corrupt_fraction,
        blocking_factor,
        dataset_name,
        max_attempts,
        max_skipped_fraction,
    ) = task
    data_seed, layout_seed, fault_seed, retry_seed, build_seed = spawn_seeds(
        seed, 5
    )
    dataset = make_dataset(dataset_name, n, rng=data_seed)
    base = HeapFile.from_values(
        dataset.values,
        layout="random",
        rng=layout_seed,
        blocking_factor=blocking_factor,
    )
    policy = FaultPolicy(
        transient_rate=fault_rate,
        corrupt_fraction=corrupt_fraction,
        seed=fault_seed,
    )
    faulty = FaultyHeapFile(base, policy)
    retry = RetryPolicy(max_attempts=max_attempts, seed=retry_seed)
    budget = ReadBudget(max_skipped_fraction=max_skipped_fraction)
    try:
        result = cvb_build(
            faulty, k=k, f=f, rng=build_seed, retry=retry, budget=budget
        )
        truth = np.sort(faulty.readable_values_unaccounted())
        # f' of Definition 4 (duplicate-safe), evaluated against the full
        # readable data — the same quantity the stopping rule thresholds
        # against f, so the report's target columns are commensurable.
        error = fractional_max_error(
            result.histogram.separators, result.sample, truth
        )
        return ChaosTrialResult(
            fault_rate=fault_rate,
            error=float(error),
            converged=result.converged,
            aborted=False,
            pages_sampled=result.pages_sampled,
            pages_skipped=result.pages_skipped,
            iostats=faulty.iostats,
        )
    except BuildAbortedError:
        return ChaosTrialResult(
            fault_rate=fault_rate,
            error=float("nan"),
            converged=False,
            aborted=True,
            pages_sampled=faulty.iostats.page_reads,
            pages_skipped=faulty.iostats.pages_skipped,
            iostats=faulty.iostats,
        )


def chaos_sweep(
    fault_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1),
    n: int = 100_000,
    k: int = 50,
    f: float = 0.2,
    corrupt_fraction: float = 0.01,
    blocking_factor: int = 50,
    dataset: str = "zipf2",
    trials: int = 3,
    seed: RngLike = 0,
    workers: int | None = 1,
    chunk_size: int | None = None,
    max_attempts: int = 5,
    max_skipped_fraction: float = 0.5,
    checkpoint=None,
) -> dict:
    """Sweep transient-fault rates and aggregate resilient-build quality.

    Returns a dict with per-rate :class:`ChaosPoint` aggregates, the error
    :class:`~repro.experiments.reporting.Series`, the Theorem-7-style
    targets (the stopping rule certifies ``~f``; ``2f`` is the loose side
    of the theorem's separation), and the pool's trial stats.  Results are
    bit-identical for any *workers* / *chunk_size*.
    """
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    rate_seeds = spawn_seeds(seed, len(fault_rates))
    tasks = []
    for rate, rate_seed in zip(fault_rates, rate_seeds):
        for trial_seed in spawn_seeds(rate_seed, trials):
            tasks.append(
                (
                    trial_seed,
                    n,
                    k,
                    f,
                    rate,
                    corrupt_fraction,
                    blocking_factor,
                    dataset,
                    max_attempts,
                    max_skipped_fraction,
                )
            )
    with _trace.span(
        "chaos.sweep", rates=len(fault_rates), trials=trials, n=n, k=k, f=f
    ):
        with TrialPool(
            max_workers=workers,
            chunk_size=chunk_size,
            checkpoint=checkpoint,
        ) as pool:
            results = pool.map(_chaos_trial, tasks)
            pool_stats = pool.last_stats

    points = []
    error_series = Series("CVB under faults", "fault_rate", "max_error_fraction")
    for index, rate in enumerate(fault_rates):
        batch = results[index * trials : (index + 1) * trials]
        errors = [r.error for r in batch if not math.isnan(r.error)]
        merged = IOStats()
        for r in batch:
            merged.merge(r.iostats)
        point = ChaosPoint(
            fault_rate=rate,
            trials=len(batch),
            aborted=sum(r.aborted for r in batch),
            converged=sum(r.converged for r in batch),
            mean_error=float(np.mean(errors)) if errors else float("nan"),
            worst_error=float(np.max(errors)) if errors else float("nan"),
            iostats=merged,
        )
        points.append(point)
        error_series.add(rate, point.mean_error)
    return {
        "points": points,
        "series": error_series,
        "target_f": f,
        "theorem7_bound": 2.0 * f,
        "params": {
            "n": n,
            "k": k,
            "f": f,
            "corrupt_fraction": corrupt_fraction,
            "dataset": dataset,
            "trials": trials,
            "blocking_factor": blocking_factor,
        },
        "pool_stats": pool_stats,
    }


def format_chaos_report(result: dict) -> str:
    """Render a :func:`chaos_sweep` result as an aligned text report."""
    params = result["params"]
    headers = [
        "fault_rate",
        "mean_err",
        "worst_err",
        "target_f",
        "2f_bound",
        "converged",
        "aborted",
        "page_reads",
        "retries",
        "failed",
        "skipped",
    ]
    rows = []
    for point in result["points"]:
        io = point.iostats
        rows.append(
            [
                point.fault_rate,
                point.mean_error,
                point.worst_error,
                result["target_f"],
                result["theorem7_bound"],
                f"{point.converged}/{point.trials}",
                f"{point.aborted}/{point.trials}",
                io.page_reads,
                io.retries,
                io.failed_reads,
                io.pages_skipped,
            ]
        )
    title = (
        "Chaos sweep: CVB f' max-error vs transient fault rate "
        f"(dataset={params['dataset']}, n={params['n']:,}, k={params['k']}, "
        f"f={params['f']}, corrupt_fraction={params['corrupt_fraction']}, "
        f"trials={params['trials']})"
    )
    return f"{title}\n{format_table(headers, rows)}"
