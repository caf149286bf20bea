"""Tests for the deterministic parallel trial engine.

The load-bearing guarantee is *bit-identical serial/parallel equivalence*:
for any worker count and chunking, ``TrialPool.map(fn, seeds)`` must equal
``[fn(s) for s in seeds]`` element for element.  A Hypothesis harness locks
that down over random trial counts, seeds, and worker counts; the remaining
tests cover validation, the sequential fallback, the map's account in the
metrics registry and trace, and the runner kernels' wiring.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import spawn_rngs, spawn_seeds
from repro.exceptions import ParameterError
from repro.experiments.parallel import TrialPool, run_trials
from repro.experiments.runner import (
    build_heapfile,
    mean_cvb_cost,
    mean_error_at_rate,
    required_blocks_for_error,
)
from repro.obs import metrics, trace


def _draw_floats(seed: int) -> tuple[float, float]:
    """A picklable trial kernel exercising the RNG stream shape."""
    rng = np.random.default_rng(seed)
    return float(rng.random()), float(rng.normal())


def _draw_from(generator) -> float:
    """A trial kernel that takes a generator, not a seed, as its token."""
    return float(generator.random())


def _sum_pair(pair: tuple) -> int:
    return int(pair[0] + pair[1])


def _recorded_map(pool: TrialPool, fn, seeds):
    """``pool.map(fn, seeds)`` plus the registry it recorded into."""
    with metrics.collecting() as registry:
        results = pool.map(fn, seeds)
    return results, registry


def _mode(registry) -> str:
    """The mode of the one map *registry* recorded."""
    (mode,) = [
        mode
        for mode in ("serial", "process")
        if registry.counter_value("repro_pool_maps_total", mode=mode)
    ]
    return mode


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
            TrialPool(max_workers=-3)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ParameterError):
            TrialPool(max_workers=1, chunk_size=0)

    def test_bool_workers_rejected(self):
        with pytest.raises(ParameterError):
            TrialPool(max_workers=True)

    def test_none_workers_rejected(self):
        # There is no "auto" worker count: every caller passes an int.
        with pytest.raises(ParameterError):
            TrialPool(max_workers=None)


class TestGeneratorSeedsRejected:
    """A generator shared by several trials is drawn from in turn by a
    serial map but copied into each worker by a parallel one, so the two
    would disagree; the pool refuses it before running anything."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_generator_rejected_at_any_worker_count(self, workers):
        shared = np.random.default_rng(7)
        with TrialPool(max_workers=workers, chunk_size=1) as pool:
            with pytest.raises(ParameterError, match="numpy Generator"):
                _recorded_map(pool, _draw_from, [shared] * 6)
            assert pool._executor is None
        # No trial ran, so the generator was never advanced.
        assert shared.random() == np.random.default_rng(7).random()

    def test_bit_generator_rejected(self):
        with pytest.raises(ParameterError, match="numpy PCG64"):
            run_trials(_draw_from, [np.random.PCG64(1)])

    def test_generator_inside_a_tuple_seed_rejected(self):
        seeds = [(1, 2), (3, np.random.default_rng(0))]
        with TrialPool(max_workers=2) as pool:
            with pytest.raises(ParameterError, match="seed 1 holds"):
                run_trials(_sum_pair, seeds, pool=pool)

    def test_ints_and_int_tuples_still_map(self):
        with TrialPool(max_workers=2) as pool:
            assert run_trials(_draw_floats, [1, 2], pool=pool) == [
                _draw_floats(1), _draw_floats(2),
            ]
            pairs = [(1, 2), (3, np.int64(4))]
            assert run_trials(_sum_pair, pairs, pool=pool) == [3, 7]


class TestSequentialFallback:
    def test_single_worker_is_serial(self):
        with TrialPool(max_workers=1) as pool:
            _, registry = _recorded_map(pool, _draw_floats, [1, 2, 3])
        assert _mode(registry) == "serial"

    def test_lambda_falls_back_to_serial(self):
        """Pickling-hostile callables degrade gracefully, same results."""
        offset = 10.0
        fn = lambda seed: float(np.random.default_rng(seed).random()) + offset
        with TrialPool(max_workers=2) as pool:
            got, registry = _recorded_map(pool, fn, [4, 5, 6])
        assert _mode(registry) == "serial"
        assert got == [fn(s) for s in (4, 5, 6)]

    def test_single_trial_is_serial(self):
        with TrialPool(max_workers=4) as pool:
            _, registry = _recorded_map(pool, _draw_floats, [9])
        assert _mode(registry) == "serial"

    def test_empty_seeds(self):
        with TrialPool(max_workers=2) as pool:
            got, registry = _recorded_map(pool, _draw_floats, [])
        assert got == []
        assert _mode(registry) == "serial"
        assert registry.counter_value("repro_pool_trials_total") == 0


def _read_pages_trial(heapfile, seed: int) -> int:
    """A trial that reads pages: the sum of two random pages' values."""
    pages = np.random.default_rng(seed).integers(0, heapfile.num_pages, 2)
    return int(heapfile.read_pages(pages).sum())


class TestStats:
    """The registry and the ``pool.map`` span are a map's only account."""

    def test_stats_fields(self):
        with trace.tracing() as recorder:
            with TrialPool(max_workers=2, chunk_size=2) as pool:
                _, registry = _recorded_map(
                    pool, _draw_floats, list(range(6))
                )
        assert registry.counter_value("repro_pool_trials_total") == 6
        assert _mode(registry) == "process"
        assert registry.gauge_value("repro_pool_workers") == 2
        durations = registry.observations("repro_pool_trial_seconds")
        assert len(durations) == 6 and all(d >= 0 for d in durations)
        (span,) = [r for r in recorder.records if r.name == "pool.map"]
        assert span.attrs == {"trials": 6, "mode": "process", "chunks": 3}

    def test_page_reads_equal_at_any_worker_count(self):
        heapfile = build_heapfile(np.arange(1, 2_001), "random", 25, rng=0)
        fn = partial(_read_pages_trial, heapfile)
        seeds = spawn_seeds(4, 10)
        reads = {}
        for workers in (1, 2):
            with TrialPool(max_workers=workers, chunk_size=3) as pool:
                got, registry = _recorded_map(pool, fn, seeds)
            assert got == [fn(s) for s in seeds]
            reads[workers] = registry.counter_value("repro_page_reads_total")
        assert reads[1] == reads[2] == 20


class _CountedPickles:
    """A trial callable that counts, in the pickling process, its pickles."""

    pickles = 0

    def __call__(self, seed: int) -> float:
        return float(np.random.default_rng(seed).random())

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountedPickles, ())


class TestPickledOncePerMap:
    """A map pickles its callable once and ships the bytes to every chunk."""

    def test_four_chunks_pickle_the_callable_once(self):
        fn = _CountedPickles()
        seeds = spawn_seeds(6, 8)
        _CountedPickles.pickles = 0
        with trace.tracing() as recorder:
            with TrialPool(max_workers=2, chunk_size=2) as pool:
                got, registry = _recorded_map(pool, fn, seeds)
        assert _CountedPickles.pickles == 1
        (span,) = [r for r in recorder.records if r.name == "pool.map"]
        assert span.attrs["chunks"] == 4
        assert _mode(registry) == "process"
        assert got == [fn(s) for s in seeds]

    def test_serial_map_pickles_nothing(self):
        _CountedPickles.pickles = 0
        with TrialPool(max_workers=1) as pool:
            pool.map(_CountedPickles(), [1, 2, 3])
        assert _CountedPickles.pickles == 0

    def test_seeds_that_do_not_pickle_run_serially(self):
        """The one pickle covers the seeds as well as the callable."""
        seeds = [(seed, lambda: None) for seed in (4, 5, 6)]
        with TrialPool(max_workers=2) as pool:
            got, registry = _recorded_map(pool, _first_part, seeds)
        assert _mode(registry) == "serial"
        assert got == [4, 5, 6]


def _first_part(seed: tuple) -> int:
    return seed[0]


def _writable_in_worker(heapfile, seed: int) -> bool:
    """Whether a heap file that crossed into a pool worker takes writes."""
    return bool(heapfile.read_page(seed % heapfile.num_pages).flags.writeable)


class TestHeapFileCrossesReadOnly:
    def test_heap_file_in_a_worker_is_read_only(self):
        heapfile = build_heapfile(np.arange(1, 2_001), "random", 25, rng=0)
        with TrialPool(max_workers=2, chunk_size=2) as pool:
            got, registry = _recorded_map(
                pool, partial(_writable_in_worker, heapfile), list(range(6))
            )
        assert _mode(registry) == "process"
        assert got == [False] * 6


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
        for chunk in (1, 2, 3, 8):
            with TrialPool(max_workers=2, chunk_size=chunk) as pool:
                assert pool.map(_draw_floats, seeds) == expected


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
            with TrialPool(max_workers=workers) as pool:
                par = mean_error_at_rate(
                    hf, values, 0.05, 20, trials=5, rng=1, pool=pool
                )
            assert par == serial

    def test_required_blocks_for_error(self, heapfile_and_values):
        hf, values = heapfile_and_values
        serial = required_blocks_for_error(hf, values, 20, 0.25, trials=5, rng=3)
        with TrialPool(max_workers=2) as pool:
            par = required_blocks_for_error(
                hf, values, 20, 0.25, trials=5, rng=3, pool=pool
            )
        assert par == serial

    def test_mean_cvb_cost_with_closure_falls_back(self, heapfile_and_values):
        _, values = heapfile_and_values
        make = lambda r: build_heapfile(values, "random", 25, rng=r)
        serial = mean_cvb_cost(make, values, 10, 0.3, trials=2, rng=5)
        with TrialPool(max_workers=2) as pool:
            par = mean_cvb_cost(
                make, values, 10, 0.3, trials=2, rng=5, pool=pool
            )
        assert par == serial

    def test_mean_cvb_cost_parallel_with_picklable_factory(
        self, heapfile_and_values
    ):
        _, values = heapfile_and_values
        make = partial(_make_heapfile, values)
        serial = mean_cvb_cost(make, values, 10, 0.3, trials=3, rng=5)
        with TrialPool(max_workers=2) as pool:
            with metrics.collecting() as registry:
                par = mean_cvb_cost(
                    make, values, 10, 0.3, trials=3, rng=5, pool=pool
                )
        assert _mode(registry) == "process"
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
            got, registry = _recorded_map(pool, _poison, seeds)
        assert got == expected
        assert _mode(registry) == "process"

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
