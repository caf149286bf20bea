"""Hypothesis differential suite: production kernels match their oracles.

Every public kernel runs on generated datasets (Zipf, Unif/Dup,
near-duplicate floats, single-value, fully distinct columns) once in
production and once against its oracle (``tests/kernels/oracle.py``), and
the results are compared bit-for-bit: separators, bucket counts, eq_counts,
extrema, merged samples, RNG draw counts (via post-call generator state),
IOStats snapshots, and the rendered obs metrics registry.  The end-to-end
classes push whole CVB builds through both and require the full result
objects to coincide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.adaptive import cvb_build
from repro.core.error_metrics import (
    avg_error,
    fractional_max_error,
    max_error,
    max_error_fraction,
    relative_deviation,
    var_error,
)
from repro.core.histogram import EquiHeightHistogram, equi_height_separators
from repro.obs import metrics
from repro.sampling.block_sampler import BlockSampleStream

from . import oracle
from .conftest import (
    assert_arrays_identical,
    assert_histograms_identical,
    datasets,
    heap_file,
    make_values,
    run_both,
    sorted_pairs,
)

ks = st.integers(min_value=1, max_value=64)


class TestKernelPairEquivalence:
    """Each public kernel, compared directly against its oracle."""

    def test_registry_covers_both_modes(self):
        """Every public kernel has an oracle distinct from production."""
        assert len(oracle.ORACLES) == 8
        for name, reference in oracle.ORACLES.items():
            assert name in kernels.__all__, name
            assert callable(getattr(kernels, name)), name
            assert getattr(kernels, name) is not reference, name

    @given(values=datasets(), k=ks)
    @settings(max_examples=120, deadline=None)
    def test_separators_identical(self, values, k):
        got = run_both(
            lambda: kernels.equi_height_separators_unsorted(values.copy(), k)
        )
        assert_arrays_identical(got["scalar"], got["vector"])

    @given(values=datasets(), k=ks)
    @settings(max_examples=120, deadline=None)
    def test_separators_match_sorted_reference(self, values, k):
        reference = equi_height_separators(np.sort(values), k)
        vectorised = kernels.equi_height_separators_unsorted(values, k)
        assert_arrays_identical(reference, vectorised)

    @given(values=datasets(), k=ks)
    @settings(max_examples=120, deadline=None)
    def test_separator_counts_identical(self, values, k):
        separators = oracle.equi_height_separators_unsorted(values, k)
        got = run_both(lambda: kernels.separator_counts(values.copy(), separators))
        s_counts, s_eq, s_min, s_max = got["scalar"]
        v_counts, v_eq, v_min, v_max = got["vector"]
        assert_arrays_identical(s_counts, v_counts)
        assert_arrays_identical(s_eq, v_eq)
        assert s_min == v_min
        assert s_max == v_max

    @given(
        values=datasets(min_size=1, max_size=3_000),
        blocking_factor=st.integers(min_value=1, max_value=60),
        draw_seed=st.integers(min_value=0, max_value=2**31 - 1),
        strided=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_gather_pages_identical(
        self, values, blocking_factor, draw_seed, strided
    ):
        if strided:
            # The same values, every other element of a twice-as-long array.
            values = np.repeat(values, 2)[::2]
        num_pages = -(-values.size // blocking_factor)
        rng = np.random.default_rng(draw_seed)
        # With replacement: duplicate ids must gather (and later charge) twice.
        page_ids = rng.integers(0, num_pages, size=rng.integers(0, 2 * num_pages))
        got = run_both(
            lambda: kernels.gather_pages(values, page_ids, blocking_factor)
        )
        assert_arrays_identical(got["scalar"], got["vector"])
        assert got["scalar"].tobytes() == got["vector"].tobytes()

    @given(pair=sorted_pairs())
    @settings(max_examples=120, deadline=None)
    def test_merge_sorted_identical(self, pair):
        a, b = pair
        got = run_both(lambda: kernels.merge_sorted(a.copy(), b.copy()))
        assert_arrays_identical(got["scalar"], got["vector"])
        # By bytes too: a tie between -0.0 and 0.0 keeps its order.
        assert got["scalar"].tobytes() == got["vector"].tobytes()

    @given(pair=sorted_pairs())
    @settings(max_examples=120, deadline=None)
    def test_merge_sorted_matches_full_sort(self, pair):
        a, b = pair
        reference = np.sort(np.concatenate([a, b]))
        merged = kernels.merge_sorted(a, b)
        assert_arrays_identical(reference, merged)

    @given(values=datasets(min_size=0), pre_sort=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_ensure_sorted_identical(self, values, pre_sort):
        values = np.sort(values) if pre_sort else values
        got = run_both(lambda: kernels.ensure_sorted(values.copy()))
        assert_arrays_identical(got["scalar"], got["vector"])
        assert np.array_equal(got["vector"], np.sort(values))

    @given(values=datasets(min_size=0))
    @settings(max_examples=120, deadline=None)
    def test_run_lengths_identical(self, values):
        for order in (values, np.sort(values)):
            got = run_both(lambda: kernels.run_lengths(order.copy()))
            assert_arrays_identical(got["scalar"], got["vector"])
            assert got["vector"].sum() == values.size

    @given(values=datasets(min_size=0))
    @settings(max_examples=120, deadline=None)
    def test_unique_counts_identical(self, values):
        for order in (values, np.sort(values)):
            got = run_both(lambda: kernels.unique_counts(order.copy()))
            for scalar, vector in zip(got["scalar"], got["vector"]):
                assert_arrays_identical(scalar, vector)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200), max_size=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_per_block_draws_identical_including_rng_state(self, sizes, seed):
        sizes = np.asarray(sizes, dtype=np.int64)

        def draw():
            generator = np.random.default_rng(seed)
            out = kernels.one_per_block_draws(generator, sizes)
            return out, generator.bit_generator.state

        got = run_both(draw)
        assert_arrays_identical(got["scalar"][0], got["vector"][0])
        # Same post-call state == same number of draws from the same stream.
        assert got["scalar"][1] == got["vector"][1]


class TestHistogramEquivalence:
    """The histogram construction surface, production against oracles."""

    @given(values=datasets(), k=ks)
    @settings(max_examples=120, deadline=None)
    def test_from_values_identical(self, values, k):
        got = run_both(lambda: EquiHeightHistogram.from_values(values.copy(), k))
        assert_histograms_identical(got["scalar"], got["vector"])
        assert got["scalar"] == got["vector"]

    @given(values=datasets(), k=ks)
    @settings(max_examples=120, deadline=None)
    def test_vector_from_values_matches_sorted_scalar_reference(self, values, k):
        reference = EquiHeightHistogram.from_sorted_values(np.sort(values), k)
        vectorised = EquiHeightHistogram.from_values(values, k)
        assert_histograms_identical(reference, vectorised)

    @given(values=datasets(), probe=datasets(), k=ks)
    @settings(max_examples=80, deadline=None)
    def test_recount_identical(self, values, probe, k):
        def build():
            return EquiHeightHistogram.from_values(values, k).recount(probe)

        got = run_both(build)
        assert_histograms_identical(got["scalar"], got["vector"])

    @given(values=datasets(), k=ks)
    @settings(max_examples=80, deadline=None)
    def test_counts_total_preserved_in_both_modes(self, values, k):
        for hist in run_both(
            lambda: EquiHeightHistogram.from_values(values, k)
        ).values():
            assert hist.counts.sum() == values.size
            assert hist.k == k


class TestErrorMetricEquivalence:
    """Δmax / f′ and friends are identical over production and oracles."""

    @given(values=datasets(), probe=datasets(), k=ks)
    @settings(max_examples=100, deadline=None)
    def test_fractional_max_error_identical(self, values, probe, k):
        # f′ reads both value sets sorted, by contract.
        values, probe = np.sort(values), np.sort(probe)

        def compute():
            hist = EquiHeightHistogram.from_values(values, k)
            return fractional_max_error(hist.separators, values, probe)

        got = run_both(compute)
        assert got["scalar"] == got["vector"]

    @given(values=datasets(), probe=datasets(), k=ks)
    @settings(max_examples=100, deadline=None)
    def test_relative_deviation_identical(self, values, probe, k):
        def compute():
            hist = EquiHeightHistogram.from_values(values, k)
            return relative_deviation(hist, probe)

        got = run_both(compute)
        assert got["scalar"] == got["vector"]

    @given(values=datasets(), k=ks)
    @settings(max_examples=100, deadline=None)
    def test_delta_metrics_identical(self, values, k):
        def compute():
            counts = EquiHeightHistogram.from_values(values, k).counts
            return (
                max_error(counts),
                max_error_fraction(counts),
                avg_error(counts),
                var_error(counts),
            )

        got = run_both(compute)
        assert got["scalar"] == got["vector"]


class TestStreamEquivalence:
    """Block sampling: payloads, IOStats, obs metrics, RNG consumption."""

    @staticmethod
    def _heapfile(values, blocking_factor, layout_seed):
        return heap_file(
            values,
            layout="random",
            rng=np.random.default_rng(layout_seed),
            blocking_factor=blocking_factor,
        )

    @given(
        values=datasets(min_size=1, max_size=3_000),
        blocking_factor=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        batches=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_take_identical_with_iostats_and_metrics(
        self, values, blocking_factor, seed, batches
    ):
        def sample():
            heapfile = self._heapfile(values, blocking_factor, seed + 1)
            stream = BlockSampleStream(heapfile, rng=np.random.default_rng(seed))
            with metrics.collecting() as registry:
                taken = [stream.take(want) for want in batches]
            return (
                taken,
                heapfile.iostats.snapshot(),
                metrics.render_json(registry),
                stream.pages_taken,
            )

        got = run_both(sample)
        for s_batch, v_batch in zip(got["scalar"][0], got["vector"][0]):
            assert_arrays_identical(s_batch, v_batch)
        assert got["scalar"][1:] == got["vector"][1:]

    @given(
        values=datasets(min_size=1, max_size=3_000),
        blocking_factor=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        want=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_tuple_per_block_identical_including_rng_state(
        self, values, blocking_factor, seed, want
    ):
        def sample():
            heapfile = self._heapfile(values, blocking_factor, seed + 1)
            stream = BlockSampleStream(heapfile, rng=np.random.default_rng(seed))
            draws = np.random.default_rng(seed + 2)
            with metrics.collecting() as registry:
                full, reps = stream.take_one_tuple_per_block(want, rng=draws)
            return (
                full,
                reps,
                draws.bit_generator.state,
                heapfile.iostats.snapshot(),
                metrics.render_json(registry),
            )

        got = run_both(sample)
        assert_arrays_identical(got["scalar"][0], got["vector"][0])
        assert_arrays_identical(got["scalar"][1], got["vector"][1])
        assert got["scalar"][2:] == got["vector"][2:]

    @given(
        values=datasets(min_size=1, max_size=3_000),
        blocking_factor=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_read_pages_identical(self, values, blocking_factor, seed):
        rng = np.random.default_rng(seed)
        num_pages = -(-values.size // blocking_factor)
        page_ids = rng.integers(0, num_pages, size=rng.integers(0, 2 * num_pages))

        def read():
            heapfile = self._heapfile(values, blocking_factor, seed + 1)
            with metrics.collecting() as registry:
                payload = heapfile.read_pages(page_ids)
            return payload, heapfile.iostats.snapshot(), metrics.render_json(registry)

        got = run_both(read)
        assert_arrays_identical(got["scalar"][0], got["vector"][0])
        assert got["scalar"][1:] == got["vector"][1:]

    @given(
        values=datasets(min_size=1, max_size=2_000),
        blocking_factor=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_identical(self, values, blocking_factor):
        def scan():
            heapfile = self._heapfile(values, blocking_factor, 3)
            with metrics.collecting() as registry:
                out = heapfile.scan()
            return out, heapfile.iostats.snapshot(), metrics.render_json(registry)

        got = run_both(scan)
        assert_arrays_identical(got["scalar"][0], got["vector"][0])
        assert got["scalar"][1:] == got["vector"][1:]


class TestCVBEquivalence:
    """Whole adaptive builds coincide: histogram, sample, trace, accounting."""

    @pytest.mark.parametrize("validation", ["full_increment", "one_per_block"])
    @pytest.mark.parametrize("metric", ["fractional", "count"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_cvb_build_identical(self, validation, metric, seed):
        values = make_values("zipf", 60_000, seed)

        def build():
            heapfile = heap_file(
                values,
                layout="random",
                rng=np.random.default_rng(seed + 1),
                blocking_factor=80,
            )
            with metrics.collecting() as registry:
                result = cvb_build(
                    heapfile,
                    k=40,
                    f=0.15,
                    rng=seed + 2,
                    validation=validation,
                    metric=metric,
                )
            return result, heapfile.iostats.snapshot(), metrics.render_json(registry)

        got = run_both(build)
        scalar_result, vector_result = got["scalar"][0], got["vector"][0]
        assert_histograms_identical(
            scalar_result.histogram, vector_result.histogram
        )
        assert_arrays_identical(scalar_result.sample, vector_result.sample)
        assert len(scalar_result.iterations) == len(vector_result.iterations)
        for left, right in zip(
            scalar_result.iterations, vector_result.iterations
        ):
            # Round 0 records NaN for error/threshold, so dataclass ==
            # would be always-false there; compare field-wise, NaN-aware.
            for name in (
                "index",
                "increment_blocks",
                "increment_tuples",
                "cumulative_blocks",
                "cumulative_tuples",
                "passed",
            ):
                assert getattr(left, name) == getattr(right, name), name
            for name in ("observed_error", "threshold"):
                assert np.array_equal(
                    getattr(left, name), getattr(right, name), equal_nan=True
                ), name
        assert scalar_result.converged == vector_result.converged
        assert_arrays_identical(
            scalar_result.sampled_pages, vector_result.sampled_pages
        )
        # IOStats and the full metrics registry (counter names, labels, and
        # values — hence RNG draw counts and read attempts) coincide.
        assert got["scalar"][1:] == got["vector"][1:]
