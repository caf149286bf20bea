"""Tests for the deterministic parallel trial engine.

The load-bearing guarantee is *bit-identical serial/parallel equivalence*:
for any worker count and chunking, ``TrialPool.map(fn, seeds)`` must equal
``[fn(s) for s in seeds]`` element for element.  A Hypothesis harness locks
that down over random trial counts, seeds, and worker counts; the remaining
tests cover validation, the sequential fallback, stats aggregation, and the
runner kernels' wiring.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import spawn_rngs, spawn_seeds
from repro.exceptions import ParameterError
from repro.experiments.parallel import (
    TrialPool,
    TrialRecord,
    resolve_workers,
    run_trials,
)
from repro.experiments.runner import (
    build_heapfile,
    mean_cvb_cost,
    mean_error_at_rate,
    required_blocks_for_error,
)


def _draw_floats(seed: int) -> tuple[float, float]:
    """A picklable trial kernel exercising the RNG stream shape."""
    rng = np.random.default_rng(seed)
    return float(rng.random()), float(rng.normal())


def _record_trial(seed: int) -> TrialRecord:
    rng = np.random.default_rng(seed)
    return TrialRecord(float(rng.random()), page_reads=seed % 7)


def _draw_from(generator) -> float:
    """A trial kernel that takes a generator, not a seed, as its token."""
    return float(generator.random())


def _sum_pair(pair: tuple) -> int:
    return int(pair[0] + pair[1])


class TestSeedSpawning:
    def test_spawn_seeds_matches_spawn_rngs(self):
        """The contract the whole engine rests on: reconstructing a
        generator from a spawned seed reproduces the in-process child."""
        seeds = spawn_seeds(123, 8)
        rngs = spawn_rngs(123, 8)
        for seed, rng in zip(seeds, rngs):
            assert np.random.default_rng(seed).random(5).tolist() == \
                rng.random(5).tolist()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ParameterError):
            TrialPool(max_workers=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ParameterError):
            resolve_workers(-3)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ParameterError):
            TrialPool(max_workers=1, chunk_size=0)

    def test_negative_chunk_rejected_at_map(self):
        pool = TrialPool(max_workers=1)
        with pytest.raises(ParameterError):
            pool.map(_draw_floats, [1, 2], chunk_size=-1)

    def test_bool_workers_rejected(self):
        with pytest.raises(ParameterError):
            resolve_workers(True)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3


class TestGeneratorSeedsRejected:
    """A generator shared by several trials is drawn from in turn by a
    serial map but copied into each worker by a parallel one, so the two
    would disagree; the pool refuses it before running anything."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_generator_rejected_at_any_worker_count(self, workers):
        shared = np.random.default_rng(7)
        with TrialPool(max_workers=workers, chunk_size=1) as pool:
            with pytest.raises(ParameterError, match="numpy Generator"):
                pool.map(_draw_from, [shared] * 6)
            assert pool.last_stats is None
            assert pool._executor is None
        # No trial ran, so the generator was never advanced.
        assert shared.random() == np.random.default_rng(7).random()

    def test_bit_generator_rejected(self):
        with pytest.raises(ParameterError, match="numpy PCG64"):
            run_trials(_draw_from, [np.random.PCG64(1)])

    def test_generator_inside_a_tuple_seed_rejected(self):
        seeds = [(1, 2), (3, np.random.default_rng(0))]
        with pytest.raises(ParameterError, match="seed 1 holds"):
            run_trials(_sum_pair, seeds, max_workers=2)

    def test_ints_and_int_tuples_still_map(self):
        assert run_trials(_draw_floats, [1, 2], max_workers=2) == [
            _draw_floats(1), _draw_floats(2),
        ]
        pairs = [(1, 2), (3, np.int64(4))]
        assert run_trials(_sum_pair, pairs, max_workers=2) == [3, 7]


class TestSequentialFallback:
    def test_single_worker_is_serial(self):
        with TrialPool(max_workers=1) as pool:
            pool.map(_draw_floats, [1, 2, 3])
            assert pool.last_stats.mode == "serial"

    def test_lambda_falls_back_to_serial(self):
        """Pickling-hostile callables degrade gracefully, same results."""
        offset = 10.0
        fn = lambda seed: float(np.random.default_rng(seed).random()) + offset
        with TrialPool(max_workers=2) as pool:
            got = pool.map(fn, [4, 5, 6])
            assert pool.last_stats.mode == "serial"
        assert got == [fn(s) for s in (4, 5, 6)]

    def test_single_trial_is_serial(self):
        with TrialPool(max_workers=4) as pool:
            pool.map(_draw_floats, [9])
            assert pool.last_stats.mode == "serial"

    def test_empty_seeds(self):
        with TrialPool(max_workers=2) as pool:
            assert pool.map(_draw_floats, []) == []
            assert pool.last_stats.trials == 0


class TestStats:
    def test_stats_fields(self):
        with TrialPool(max_workers=2, chunk_size=2) as pool:
            pool.map(_draw_floats, list(range(6)))
            stats = pool.last_stats
        assert stats.trials == 6
        assert stats.mode == "process"
        assert stats.num_chunks == 3
        assert stats.elapsed_s > 0
        assert stats.trial_time_total_s > 0
        assert stats.trial_time_max_s <= stats.trial_time_total_s
        assert stats.trial_time_mean_s == pytest.approx(
            stats.trial_time_total_s / 6
        )

    def test_page_reads_aggregated_and_records_unwrapped(self):
        seeds = list(range(10))
        with TrialPool(max_workers=2, chunk_size=3) as pool:
            got = pool.map(_record_trial, seeds)
            assert pool.last_stats.page_reads == sum(s % 7 for s in seeds)
        assert got == [_record_trial(s).value for s in seeds]

    def test_summary_mentions_mode(self):
        with TrialPool(max_workers=1) as pool:
            pool.map(_draw_floats, [1, 2])
            assert "serial" in pool.last_stats.summary()


class TestSerialParallelEquivalence:
    """The property harness: same seeds -> same floats, order preserved,
    for random trial counts, seeds, worker counts, and chunkings."""

    @given(
        trials=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.sampled_from([1, 2, 4]),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    @settings(max_examples=12, deadline=None)
    def test_pool_map_equals_serial_loop(self, trials, seed, workers, chunk):
        seeds = spawn_seeds(seed, trials)
        expected = [_draw_floats(s) for s in seeds]
        with TrialPool(max_workers=workers, chunk_size=chunk) as pool:
            got = pool.map(_draw_floats, seeds)
        assert got == expected  # element-wise, bit-identical, in order

    def test_worker_count_does_not_change_results(self):
        seeds = spawn_seeds(7, 9)
        baselines = run_trials(_draw_floats, seeds)
        for workers in (2, 4):
            with TrialPool(max_workers=workers) as pool:
                assert pool.map(_draw_floats, seeds) == baselines

    def test_chunking_does_not_change_results(self):
        seeds = spawn_seeds(11, 8)
        expected = [_draw_floats(s) for s in seeds]
        with TrialPool(max_workers=2) as pool:
            for chunk in (1, 2, 3, 8):
                assert pool.map(_draw_floats, seeds, chunk_size=chunk) == expected


class TestRunnerKernelEquivalence:
    """The wired measurement kernels return bit-identical values for any
    worker count."""

    @pytest.fixture(scope="class")
    def heapfile_and_values(self):
        values = np.arange(1, 30_001)
        return build_heapfile(values, "random", 25, rng=0), values

    def test_mean_error_at_rate(self, heapfile_and_values):
        hf, values = heapfile_and_values
        serial = mean_error_at_rate(hf, values, 0.05, 20, trials=5, rng=1)
        for workers in (2, 4):
            par = mean_error_at_rate(
                hf, values, 0.05, 20, trials=5, rng=1, workers=workers
            )
            assert par == serial

    def test_mean_error_at_rate_statistic_mean(self, heapfile_and_values):
        hf, values = heapfile_and_values
        serial = mean_error_at_rate(
            hf, values, 0.1, 20, trials=4, rng=2, statistic="mean"
        )
        par = mean_error_at_rate(
            hf, values, 0.1, 20, trials=4, rng=2, statistic="mean", workers=2
        )
        assert par == serial

    def test_required_blocks_for_error(self, heapfile_and_values):
        hf, values = heapfile_and_values
        serial = required_blocks_for_error(hf, values, 20, 0.25, trials=5, rng=3)
        par = required_blocks_for_error(
            hf, values, 20, 0.25, trials=5, rng=3, workers=2
        )
        assert par == serial

    def test_mean_cvb_cost_with_closure_falls_back(self, heapfile_and_values):
        _, values = heapfile_and_values
        make = lambda r: build_heapfile(values, "random", 25, rng=r)
        serial = mean_cvb_cost(make, values, 10, 0.3, trials=2, rng=5)
        par = mean_cvb_cost(make, values, 10, 0.3, trials=2, rng=5, workers=2)
        assert par == serial

    def test_mean_cvb_cost_parallel_with_picklable_factory(
        self, heapfile_and_values
    ):
        _, values = heapfile_and_values
        make = partial(_make_heapfile, values)
        serial = mean_cvb_cost(make, values, 10, 0.3, trials=3, rng=5)
        pool = TrialPool(max_workers=2)
        try:
            par = mean_cvb_cost(make, values, 10, 0.3, trials=3, rng=5, pool=pool)
            assert pool.last_stats.mode == "process"
        finally:
            pool.close()
        assert par == serial

    def test_shared_pool_is_reused_across_kernels(self, heapfile_and_values):
        hf, values = heapfile_and_values
        with TrialPool(max_workers=2) as pool:
            a = mean_error_at_rate(hf, values, 0.05, 20, trials=4, rng=1, pool=pool)
            b = required_blocks_for_error(
                hf, values, 20, 0.25, trials=4, rng=3, pool=pool
            )
        assert a == mean_error_at_rate(hf, values, 0.05, 20, trials=4, rng=1)
        assert b == required_blocks_for_error(hf, values, 20, 0.25, trials=4, rng=3)


def _poison(seed: int) -> float:
    """A trial kernel that blows up on one specific seed."""
    if seed == 13:
        raise RuntimeError("poisoned trial 13")
    return float(np.random.default_rng(seed).random())


class TestCleanShutdownOnFailure:
    """A crashing trial must surface its exception promptly — not hang the
    map behind surviving workers — and leave the pool reusable."""

    def test_poison_pill_surfaces_original_exception(self):
        pool = TrialPool(max_workers=2, chunk_size=1)
        try:
            with pytest.raises(RuntimeError, match="poisoned trial 13"):
                pool.map(_poison, [1, 2, 13, 4, 5, 6])
        finally:
            pool.close()

    def test_workers_are_torn_down_after_poison(self):
        pool = TrialPool(max_workers=2, chunk_size=1)
        try:
            with pytest.raises(RuntimeError):
                pool.map(_poison, [13, 1, 2, 3])
            # The executor was terminated, not left half-dead.
            assert pool._executor is None
        finally:
            pool.close()

    def test_pool_usable_again_after_poison(self):
        seeds = [1, 2, 3, 4]
        expected = [_poison(s) for s in seeds]
        with TrialPool(max_workers=2, chunk_size=1) as pool:
            with pytest.raises(RuntimeError):
                pool.map(_poison, [5, 13, 6, 7])
            # A fresh executor spins up transparently; results are still
            # bit-identical to the serial loop.
            assert pool.map(_poison, seeds) == expected
            assert pool.last_stats.mode == "process"

    def test_serial_mode_propagates_without_pool_state(self):
        with TrialPool(max_workers=1) as pool:
            with pytest.raises(RuntimeError):
                pool.map(_poison, [13])
            assert pool.map(_poison, [1, 2]) == [_poison(1), _poison(2)]

    def test_close_is_idempotent_after_terminate(self):
        pool = TrialPool(max_workers=2, chunk_size=1)
        with pytest.raises(RuntimeError):
            pool.map(_poison, [13, 1])
        pool.close()
        pool.close()


def _make_heapfile(values, rng):
    return build_heapfile(values, "random", 25, rng=rng)
