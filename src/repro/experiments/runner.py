"""Shared measurement kernels for the figure experiments.

Two kinds of measurement appear in Section 7:

- *error at a fixed sampling rate* (Figures 5, 7): sample that fraction of
  disk blocks, build the histogram, and evaluate it against the full data;
- *sampling required to reach a fixed error* (Figures 3, 4, 6, 8): run the
  CVB algorithm with the target error and report what it actually sampled.

Histogram quality is measured with the duplicate-safe fractional max error
f′ (Definition 4) by default, which coincides with the plain fraction ``f``
on duplicate-free data; the count metric is available for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .._rng import RngLike, ensure_rng, spawn_seeds
from ..core.adaptive import CVBConfig, CVBResult, CVBSampler
from ..core.error_metrics import fractional_max_error, histogram_max_error_fraction
from ..core.histogram import EquiHeightHistogram
from ..exceptions import ParameterError
from ..sampling.block_sampler import sample_blocks
from ..sampling.schedule import StepSchedule
from ..storage.heapfile import HeapFile
from .parallel import TrialPool, TrialRecord, run_trials

__all__ = [
    "build_heapfile",
    "histogram_quality",
    "error_at_rate",
    "mean_error_at_rate",
    "required_blocks_for_error",
    "CVBCost",
    "cvb_sampling_cost",
    "mean_cvb_cost",
]


def build_heapfile(
    values: np.ndarray,
    layout: str,
    blocking_factor: int,
    rng: RngLike = None,
    cluster_fraction: float = 0.2,
) -> HeapFile:
    """Materialise *values* as a heap file with an exact blocking factor."""
    return HeapFile.from_values(
        values,
        layout=layout,
        rng=rng,
        blocking_factor=blocking_factor,
        cluster_fraction=cluster_fraction,
    )


def histogram_quality(
    sample: np.ndarray,
    sorted_values: np.ndarray,
    k: int,
    metric: str = "fractional",
) -> float:
    """Error of the histogram built from *sample*, against the full data."""
    histogram = EquiHeightHistogram.from_values(sample, k)
    if metric == "fractional":
        return fractional_max_error(histogram.separators, sample, sorted_values)
    if metric == "count":
        return histogram_max_error_fraction(histogram, sorted_values)
    raise ParameterError(f"metric must be 'fractional' or 'count', got {metric!r}")


def error_at_rate(
    heapfile: HeapFile,
    sorted_values: np.ndarray,
    rate: float,
    k: int,
    rng: RngLike = None,
    metric: str = "fractional",
) -> float:
    """Sample *rate* of the file's blocks once and measure histogram error."""
    if not 0 < rate <= 1:
        raise ParameterError(f"rate must be in (0, 1], got {rate}")
    num_blocks = max(1, round(rate * heapfile.num_pages))
    sample = sample_blocks(heapfile, num_blocks, rng=rng)
    return histogram_quality(sample, sorted_values, k, metric=metric)


def _error_at_rate_trial(task: tuple, seed: int) -> TrialRecord:
    """Picklable per-trial kernel behind :func:`mean_error_at_rate`."""
    heapfile, sorted_values, rate, k, metric = task
    before = heapfile.iostats.page_reads
    err = error_at_rate(heapfile, sorted_values, rate, k, rng=seed, metric=metric)
    return TrialRecord(err, page_reads=heapfile.iostats.page_reads - before)


def mean_error_at_rate(
    heapfile: HeapFile,
    sorted_values: np.ndarray,
    rate: float,
    k: int,
    trials: int,
    rng: RngLike = None,
    metric: str = "fractional",
    workers: int | None = None,
    chunk_size: int | None = None,
    pool: TrialPool | None = None,
) -> float:
    """Central :func:`error_at_rate` over *trials* independent samples.

    The median, not the mean: the fractional max error has a heavy upper
    tail (one under-sampled separator range dominates the max), and a mean
    over a handful of trials chases that tail.

    Trials fan out over *workers* processes (or an existing *pool*); each
    trial's stream derives only from its own spawned seed, so any worker
    count returns bit-identical floats to the serial loop.
    """
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    seeds = spawn_seeds(rng, trials)
    fn = partial(
        _error_at_rate_trial, (heapfile, sorted_values, rate, k, metric)
    )
    errors = run_trials(
        fn, seeds, max_workers=workers, chunk_size=chunk_size, pool=pool
    )
    return float(np.median(errors))


def _probe_trial(task: tuple, seed: int) -> TrialRecord:
    """Picklable per-trial kernel behind :func:`required_blocks_for_error`."""
    heapfile, sorted_values, k, metric, num_blocks = task
    before = heapfile.iostats.page_reads
    sample = sample_blocks(heapfile, num_blocks, rng=seed)
    err = histogram_quality(sample, sorted_values, k, metric=metric)
    return TrialRecord(err, page_reads=heapfile.iostats.page_reads - before)


def required_blocks_for_error(
    heapfile: HeapFile,
    sorted_values: np.ndarray,
    k: int,
    f: float,
    trials: int = 9,
    rng: RngLike = None,
    metric: str = "fractional",
    workers: int | None = None,
    chunk_size: int | None = None,
    pool: TrialPool | None = None,
) -> int:
    """Smallest number of sampled blocks whose median measured error is <= *f*.

    This is the ground-truth sampling requirement behind Figures 3, 4, 6
    and 8: binary search over the block count, evaluating the mean error of
    *trials* independent block samples at each probe.  (The CVB algorithm's
    own stopping point tracks this quantity from the data side; the
    ablation benchmark compares the two.)

    The grid scan itself stays sequential (each probe decides the next),
    but the *trials* inside every probe fan out over *workers* processes
    with bit-identical results to the serial loop.
    """
    if not 0 < f <= 1:
        raise ParameterError(f"f must be in (0, 1], got {f}")
    generator = ensure_rng(rng)

    def mean_error(num_blocks: int) -> float:
        seeds = spawn_seeds(int(generator.integers(0, 2**63)), trials)
        fn = partial(
            _probe_trial, (heapfile, sorted_values, k, metric, num_blocks)
        )
        errors = run_trials(
            fn, seeds, max_workers=workers, chunk_size=chunk_size, pool=pool
        )
        # Median: the fractional max error has a heavy upper tail near the
        # threshold (one under-sampled range dominates the max), and a mean
        # over few trials would chase that tail.
        return float(np.median(errors))

    # Geometric grid scan with confirmation: a plain binary search is
    # fragile against one optimistically noisy probe; here a candidate only
    # wins if the next grid point also clears the threshold.
    total = heapfile.num_pages
    g = 1
    grid = []
    while g < total:
        grid.append(g)
        g = max(g + 1, int(g * 1.4))
    grid.append(total)
    means = {}

    def err(g: int) -> float:
        if g not in means:
            means[g] = mean_error(g)
        return means[g]

    for i, g in enumerate(grid):
        if err(g) <= f:
            confirm = grid[i + 1 : i + 3]
            if all(err(c) <= f for c in confirm):
                return g
    return total


@dataclass(frozen=True)
class CVBCost:
    """What one CVB run spent and achieved."""

    sampling_rate: float
    blocks_sampled: int
    tuples_sampled: int
    iterations: int
    converged: bool
    achieved_error: float


def cvb_sampling_cost(
    heapfile: HeapFile,
    sorted_values: np.ndarray,
    k: int,
    f: float,
    gamma: float = 0.01,
    rng: RngLike = None,
    metric: str = "fractional",
    schedule: StepSchedule | None = None,
    **config_kwargs,
) -> CVBCost:
    """Run CVB targeting error *f* and report the sampling it needed.

    ``achieved_error`` is the final histogram's error against the *full*
    data — the check that convergence wasn't declared spuriously.

    Scheduling defaults to :class:`CVBSampler`'s own: doubling from the
    prototype's ``5*sqrt(n)``-tuple initial sample (Section 7.1).
    """
    config = CVBConfig(k=k, f=f, gamma=gamma, metric=metric, **config_kwargs)
    result: CVBResult = CVBSampler(config, schedule=schedule).run(heapfile, rng=rng)
    if metric == "fractional":
        achieved = fractional_max_error(
            result.histogram.separators, result.sample, sorted_values
        )
    else:
        achieved = histogram_max_error_fraction(result.histogram, sorted_values)
    return CVBCost(
        sampling_rate=result.tuples_sampled / heapfile.num_records,
        blocks_sampled=result.pages_sampled,
        tuples_sampled=result.tuples_sampled,
        iterations=len(result.iterations),
        converged=result.converged,
        achieved_error=float(achieved),
    )


def _cvb_trial(task: tuple, seed_pair: tuple) -> TrialRecord:
    """Picklable per-trial kernel behind :func:`mean_cvb_cost`."""
    make_heapfile, sorted_values, k, f, kwargs = task
    build_seed, run_seed = seed_pair
    heapfile = make_heapfile(np.random.default_rng(build_seed))
    cost = cvb_sampling_cost(
        heapfile, sorted_values, k, f, rng=run_seed, **kwargs
    )
    return TrialRecord(cost, page_reads=heapfile.iostats.page_reads)


def mean_cvb_cost(
    make_heapfile,
    sorted_values: np.ndarray,
    k: int,
    f: float,
    trials: int,
    rng: RngLike = None,
    workers: int | None = None,
    chunk_size: int | None = None,
    pool: TrialPool | None = None,
    **kwargs,
) -> CVBCost:
    """Average CVB cost over *trials* runs.

    *make_heapfile* is a callable ``(rng) -> HeapFile`` so each trial gets an
    independent physical layout as well as an independent sample (matching
    how the paper repeats runs).  When it (and the extra config) pickles,
    trials fan out over *workers* processes; a closure or lambda silently
    degrades to the equivalent in-process loop, so results are identical
    either way.
    """
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    seeds = spawn_seeds(rng, 2 * trials)
    seed_pairs = [(seeds[2 * i], seeds[2 * i + 1]) for i in range(trials)]
    fn = partial(_cvb_trial, (make_heapfile, sorted_values, k, f, kwargs))
    costs = run_trials(
        fn, seed_pairs, max_workers=workers, chunk_size=chunk_size, pool=pool
    )
    return CVBCost(
        sampling_rate=float(np.mean([c.sampling_rate for c in costs])),
        blocks_sampled=int(round(np.mean([c.blocks_sampled for c in costs]))),
        tuples_sampled=int(round(np.mean([c.tuples_sampled for c in costs]))),
        iterations=int(round(np.mean([c.iterations for c in costs]))),
        converged=all(c.converged for c in costs),
        achieved_error=float(np.mean([c.achieved_error for c in costs])),
    )
