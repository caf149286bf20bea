"""Series builders for every figure in the paper's evaluation (Section 7).

Each ``figure*`` function regenerates the data series behind the
corresponding paper figure and returns :class:`~repro.experiments.reporting.Series`
objects plus enough metadata to print a comparison.  The benchmarks under
``benchmarks/`` are thin wrappers that call these, print the tables, and
assert the qualitative shape the paper reports.

Scaled-down defaults come from :mod:`repro.experiments.config`; pass
``scale="paper"`` (or set ``REPRO_SCALE=paper``) for full-scale runs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .._rng import RngLike, spawn_rngs, spawn_seeds
from ..distinct.estimators import GEEEstimator
from ..distinct.frequency import FrequencyProfile
from ..distinct.metrics import rel_error
from ..sampling.block_sampler import sample_blocks
from ..storage.record import RecordSpec
from ..workloads.datasets import make_dataset
from .config import ExperimentScale, get_scale
from .parallel import TrialPool
from .runner import (
    build_heapfile,
    mean_error_at_rate,
    required_blocks_for_error,
)
from .reporting import Series

__all__ = [
    "figures_3_and_4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9_10",
    "figure11_12",
]


def figures_3_and_4(
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    f: float | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figures 3 & 4: sampling rate and disk blocks sampled vs table size.

    Zipf Z=2, random layout, max error <= *f*.  Paper expectation: the
    *rate* (Figure 3) falls roughly like ``log(n)/n`` as ``n`` grows, while
    the *number of blocks* (Figure 4) stays nearly constant (``log n``
    growth only).
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    if f is None:
        f = scale.f_target
    rate_series = Series("Z=2", "n", "sampling_rate")
    blocks_series = Series("Z=2", "n", "blocks_sampled")
    # Hold the value universe fixed across the sweep: the paper varies N
    # under one fixed Zipf distribution, so only the tuple count changes.
    universe = max(16, scale.n // 100)
    data_seed, sweep_seed = spawn_rngs(seed, 2)
    data_seed = int(data_seed.integers(0, 2**31))
    rngs = spawn_rngs(sweep_seed, len(scale.n_sweep))
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for n, rng in zip(scale.n_sweep, rngs):
            layout_rng, search_rng = spawn_rngs(rng, 2)
            # One shared data seed: the same Zipf frequency permutation at
            # every n, so only the tuple count varies along the sweep.
            dataset = make_dataset(
                "zipf2", n, rng=data_seed, num_distinct=universe
            )
            heapfile = build_heapfile(
                dataset.values, "random", scale.blocking_factor, rng=layout_rng
            )
            blocks = required_blocks_for_error(
                heapfile, dataset.values, scale.k, f,
                trials=max(scale.trials, 9), rng=search_rng, pool=pool,
            )
            rate_series.add(n, blocks * scale.blocking_factor / n)
            blocks_series.add(n, blocks)
    return {
        "rate": rate_series,
        "blocks": blocks_series,
        "f": f,
        "k": scale.k,
        "scale": scale.name,
    }


def figure5(
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    zs: tuple[float, ...] = (0, 2, 4),
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figure 5: max error vs sampling rate for Z in {0, 2, 4}.

    Random layout, fixed k.  Paper expectation: the three error curves fall
    with rate and converge at essentially the same point — the required
    sampling is independent of the data distribution (Corollary 1).
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    series_list = []
    rngs = spawn_rngs(seed, len(zs))
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for z, rng in zip(zs, rngs):
            data_rng, layout_rng, sample_rng = spawn_rngs(rng, 3)
            dataset = make_dataset(f"zipf{int(z)}", scale.n, rng=data_rng)
            heapfile = build_heapfile(
                dataset.values, "random", scale.blocking_factor, rng=layout_rng
            )
            series = Series(f"Z={z:g}", "sampling_rate", "max_error")
            trial_rngs = spawn_rngs(sample_rng, len(scale.rates))
            for rate, trial_rng in zip(scale.rates, trial_rngs):
                error = mean_error_at_rate(
                    heapfile,
                    dataset.values,
                    rate,
                    scale.k,
                    trials=scale.trials,
                    rng=trial_rng,
                    pool=pool,
                )
                series.add(rate, error)
            series_list.append(series)
    return {"series": series_list, "k": scale.k, "scale": scale.name}


def figure6(
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    f: float | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figure 6: sampling rate required vs number of bins (max error <= f).

    Zipf Z=2, random layout.  Paper expectation: the required rate grows
    linearly with the bucket count (Corollary 1: ``r`` is linear in ``k``).
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    if f is None:
        f = scale.f_bins
    data_rng, sweep_rng = spawn_rngs(seed, 2)
    dataset = make_dataset("zipf2", scale.n, rng=data_rng)
    series = Series("Z=2", "bins", "sampling_rate")
    layout_rng, rest_rng = spawn_rngs(sweep_rng, 2)
    heapfile = build_heapfile(
        dataset.values, "random", scale.blocking_factor, rng=layout_rng
    )
    rngs = spawn_rngs(rest_rng, len(scale.bins_sweep))
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for k, rng in zip(scale.bins_sweep, rngs):
            blocks = required_blocks_for_error(
                heapfile, dataset.values, k, f,
                trials=max(scale.trials, 9), rng=rng, pool=pool,
            )
            series.add(k, blocks * scale.blocking_factor / dataset.n)
    return {"series": series, "f": f, "scale": scale.name}


def figure7(
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    cluster_fraction: float = 0.2,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figure 7: max error vs sampling rate, random vs partially clustered.

    Zipf Z=2.  Paper expectation: the partially clustered layout needs a
    visibly higher sampling rate for the same error — intra-block
    correlation reduces the effective sample per block.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    data_rng, sweep_rng = spawn_rngs(seed, 2)
    dataset = make_dataset("zipf2", scale.n, rng=data_rng)
    series_list = []
    layout_rngs = spawn_rngs(sweep_rng, 2)
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for layout, layout_rng in zip(("random", "partial"), layout_rngs):
            build_rng, sample_rng = spawn_rngs(layout_rng, 2)
            heapfile = build_heapfile(
                dataset.values,
                layout,
                scale.blocking_factor,
                rng=build_rng,
                cluster_fraction=cluster_fraction,
            )
            series = Series(layout, "sampling_rate", "max_error")
            rate_rngs = spawn_rngs(sample_rng, len(scale.rates))
            for rate, rate_rng in zip(scale.rates, rate_rngs):
                error = mean_error_at_rate(
                    heapfile,
                    dataset.values,
                    rate,
                    scale.k,
                    trials=scale.trials,
                    rng=rate_rng,
                    pool=pool,
                )
                series.add(rate, error)
            series_list.append(series)
    return {"series": series_list, "k": scale.k, "scale": scale.name}


def figure8(
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    f: float | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figure 8: sampling required vs record size (max error <= f, Z=2).

    Larger records mean fewer tuples per page; sampling the tuple budget
    prescribed by Corollary 1 therefore costs proportionally more pages.
    Paper expectation ("as predicted"): the number of disk blocks that must
    be sampled grows linearly with the record size, while the fraction of
    *rows* sampled stays roughly flat.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    if f is None:
        f = scale.f_target
    data_rng, sweep_rng = spawn_rngs(seed, 2)
    dataset = make_dataset("zipf2", scale.n, rng=data_rng)
    blocks_series = Series("Z=2", "record_size", "blocks_sampled")
    rate_series = Series("Z=2", "record_size", "row_sampling_rate")
    rngs = spawn_rngs(sweep_rng, len(scale.record_sizes))
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for record_size, rng in zip(scale.record_sizes, rngs):
            layout_rng, search_rng = spawn_rngs(rng, 2)
            b = RecordSpec(record_size=record_size).blocking_factor
            heapfile = build_heapfile(
                dataset.values, "random", b, rng=layout_rng
            )
            blocks = required_blocks_for_error(
                heapfile, dataset.values, scale.k, f,
                trials=max(scale.trials, 9), rng=search_rng, pool=pool,
            )
            blocks_series.add(record_size, blocks)
            rate_series.add(record_size, blocks * b / dataset.n)
    return {
        "blocks": blocks_series,
        "rate": rate_series,
        "f": f,
        "k": scale.k,
        "scale": scale.name,
    }


def _dv_trial(task: tuple, seed: int) -> tuple[int, float]:
    """Picklable per-trial kernel of the DV sweep: one block sample's
    in-sample distinct count and GEE estimate, both read from one
    frequency profile."""
    heapfile, num_blocks, n = task
    profile = FrequencyProfile.from_sample(
        sample_blocks(heapfile, num_blocks, rng=seed)
    )
    return profile.distinct_in_sample, GEEEstimator().estimate(profile, n)


def _distinct_value_sweep(
    dataset_name: str,
    scale: ExperimentScale,
    seed: RngLike,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Shared kernel of Figures 9-12: DV estimates across sampling rates."""
    data_rng, layout_rng, sweep_rng = spawn_rngs(seed, 3)
    dataset = make_dataset(dataset_name, scale.n, rng=data_rng)
    heapfile = build_heapfile(
        dataset.values, "random", scale.blocking_factor, rng=layout_rng
    )
    real = dataset.num_distinct

    sample_series = Series("numDVSamp", "sampling_rate", "distinct")
    estimate_series = Series("numDVEst", "sampling_rate", "distinct")
    real_series = Series("numDVReal", "sampling_rate", "distinct")
    err_sample = Series("rel_error(samp)", "sampling_rate", "rel_error")
    err_estimate = Series("rel_error(est)", "sampling_rate", "rel_error")

    rate_rngs = spawn_rngs(sweep_rng, len(scale.rates))
    with TrialPool(
        max_workers=workers, chunk_size=chunk_size, checkpoint=checkpoint
    ) as pool:
        for rate, rate_rng in zip(scale.rates, rate_rngs):
            seeds = spawn_seeds(rate_rng, scale.trials)
            num_blocks = max(1, round(rate * heapfile.num_pages))
            outcomes = pool.map(
                partial(_dv_trial, (heapfile, num_blocks, dataset.n)), seeds
            )
            samp_vals = [s for s, _ in outcomes]
            est_vals = [e for _, e in outcomes]
            samp = float(np.mean(samp_vals))
            est = float(np.mean(est_vals))
            sample_series.add(rate, samp)
            estimate_series.add(rate, est)
            real_series.add(rate, real)
            err_sample.add(rate, rel_error(samp, real, dataset.n))
            err_estimate.add(rate, rel_error(est, real, dataset.n))
    return {
        "real": real_series,
        "sample": sample_series,
        "estimate": estimate_series,
        "err_sample": err_sample,
        "err_estimate": err_estimate,
        "num_distinct": real,
        "n": dataset.n,
        "dataset": dataset_name,
        "scale": scale.name,
    }


def figure9_10(
    dataset_name: str,
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figures 9 (Zipf Z=2) and 10 (Unif/Dup): distinct values — real vs
    in-sample vs GEE-estimated — across sampling rates.

    Paper expectation: for Zipf the estimate tracks the true count closely
    even at small rates (few distinct values, easily seen); for Unif/Dup the
    estimate starts far off (every sampled value looks like a singleton) and
    converges to the truth as the rate grows, while the raw in-sample count
    approaches it from below.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    return _distinct_value_sweep(
        dataset_name,
        scale,
        seed,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint=checkpoint,
    )


def figure11_12(
    dataset_name: str,
    scale: ExperimentScale | str | None = None,
    seed: RngLike = 0,
    workers: int = 1,
    chunk_size: int | None = None,
    checkpoint=None,
) -> dict:
    """Figures 11 (Zipf Z=2) and 12 (Unif/Dup): the rel-error metric
    ``|d - e|/n`` of the GEE estimate vs sampling rate.

    Paper expectation: rel-error is small in both cases (tiny for Zipf,
    small and shrinking with rate for Unif/Dup) — the weaker metric is
    reliably estimable even where ratio error cannot be (Theorem 8).
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    return _distinct_value_sweep(
        dataset_name,
        scale,
        seed,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint=checkpoint,
    )
