"""Degenerate-input regressions, production against the oracles.

Every case runs in production and against the oracles and demands
identical behaviour: same results where results exist, same exception types
(and messages) where the input is rejected.  Covered: empty samples, single
distinct values, all-duplicate columns, more buckets than distinct values
(and than rows), and float columns with exact ties at separator boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.compressed import CompressedHistogram
from repro.core.histogram import EquiHeightHistogram, equi_height_separators
from repro.core.error_metrics import fractional_max_error
from repro.core.maxdiff import MaxDiffHistogram
from repro.engine.joins import true_join_size
from repro.exceptions import EmptyDataError, ParameterError
from repro.sampling.block_sampler import BlockSampleStream
from repro.storage import HeapFile

from . import oracle
from .conftest import (
    MODES,
    assert_arrays_identical,
    assert_histograms_identical,
    heap_file,
    implementation,
    make_values,
    run_both,
)

BOTH = pytest.mark.parametrize("mode", MODES)


class TestEmptyInputs:
    @BOTH
    def test_from_values_rejects_empty(self, mode):
        with implementation(mode):
            with pytest.raises(EmptyDataError, match="empty value set"):
                EquiHeightHistogram.from_values(np.array([]), 4)

    @BOTH
    def test_separator_kernel_rejects_empty(self, mode):
        with implementation(mode):
            with pytest.raises(EmptyDataError, match="empty value set"):
                kernels.equi_height_separators_unsorted(np.array([]), 4)

    @BOTH
    def test_separator_counts_rejects_empty(self, mode):
        with implementation(mode):
            with pytest.raises(EmptyDataError, match="empty value set"):
                kernels.separator_counts(np.array([]), np.array([1.0]))

    @BOTH
    def test_bad_k_rejected_before_work(self, mode):
        with implementation(mode):
            with pytest.raises(ParameterError, match="k must be positive"):
                kernels.equi_height_separators_unsorted(np.arange(5), 0)

    def test_empty_merge_returns_other_side_in_both_modes(self):
        a = np.array([], dtype=np.float64)
        b = np.array([1.0, 2.0, 3.0])
        got = run_both(lambda: (kernels.merge_sorted(a, b), kernels.merge_sorted(b, a)))
        for left, right in got.values():
            assert_arrays_identical(left, b)
            assert_arrays_identical(right, b)

    def test_gather_pages_empty_ids(self):
        values = np.arange(100)
        got = run_both(
            lambda: kernels.gather_pages(values, np.array([], dtype=np.int64), 10)
        )
        assert_arrays_identical(got["scalar"], got["vector"])
        assert got["vector"].size == 0
        assert got["vector"].dtype == values.dtype

    def test_one_per_block_empty_sizes(self):
        got = run_both(
            lambda: kernels.one_per_block_draws(
                np.random.default_rng(0), np.array([], dtype=np.int64)
            )
        )
        assert_arrays_identical(got["scalar"], got["vector"])

    @BOTH
    def test_one_per_block_rejects_empty_blocks(self, mode):
        with implementation(mode):
            with pytest.raises(ParameterError, match="positive"):
                kernels.one_per_block_draws(
                    np.random.default_rng(0), np.array([3, 0, 2])
                )

    def test_exhausted_stream_take_is_empty_and_identical(self):
        def sample():
            heapfile = heap_file(
                np.arange(40), layout="sorted", blocking_factor=10
            )
            stream = BlockSampleStream(heapfile, rng=0)
            stream.take(4)  # consume everything
            return stream.take(3)

        got = run_both(sample)
        assert_arrays_identical(got["scalar"], got["vector"])
        assert got["vector"].size == 0


class TestSingleAndDuplicateValues:
    @BOTH
    def test_single_value_column(self, mode):
        values = np.full(257, 9.5)
        with implementation(mode):
            hist = EquiHeightHistogram.from_values(values, 8)
        assert (hist.separators == 9.5).all()
        assert hist.counts.sum() == values.size
        # Only the first of the repeated separators carries the eq mass.
        assert hist.eq_counts[0] == values.size
        assert (hist.eq_counts[1:] == 0).all()

    def test_single_value_column_identical(self):
        values = np.full(257, 9.5)
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 8))
        assert_histograms_identical(got["scalar"], got["vector"])

    def test_all_duplicates_two_hot_values(self):
        values = np.repeat([3, 7], [900, 100]).astype(np.int64)
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 16))
        assert_histograms_identical(got["scalar"], got["vector"])
        assert got["vector"].counts.sum() == values.size

    def test_single_row(self):
        got = run_both(lambda: EquiHeightHistogram.from_values(np.array([4]), 5))
        assert_histograms_identical(got["scalar"], got["vector"])
        assert got["vector"].total == 1

    def test_fractional_metric_on_all_duplicates_identical(self):
        values = np.full(500, 2.0)
        got = run_both(
            lambda: fractional_max_error(np.full(4, 2.0), values, values)
        )
        assert got["scalar"] == got["vector"] == 0.0


class TestMoreBucketsThanValues:
    @BOTH
    def test_k_exceeds_rows(self, mode):
        values = np.array([5.0, 1.0, 3.0])
        with implementation(mode):
            hist = EquiHeightHistogram.from_values(values, 10)
        assert hist.k == 10
        assert hist.counts.sum() == 3
        reference = equi_height_separators(np.sort(values), 10)
        assert_arrays_identical(
            hist.separators, reference.astype(np.float64)
        )

    def test_k_exceeds_rows_identical(self):
        values = np.array([5.0, 1.0, 3.0])
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 10))
        assert_histograms_identical(got["scalar"], got["vector"])

    def test_k_exceeds_distinct_values_identical(self):
        values = np.repeat([1.0, 2.0], 50)
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 25))
        assert_histograms_identical(got["scalar"], got["vector"])
        # Coincident separators: eq mass still lands once per distinct value.
        hist = got["vector"]
        assert hist.eq_counts.sum() == hist.eq_counts[hist.eq_counts > 0].sum()


class TestFloatTiesAtSeparators:
    def test_ulp_separated_ties_identical(self):
        tie = 1.0
        above = np.nextafter(tie, 2.0)
        values = np.tile([tie, above, tie, 0.5], 300)
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 12))
        assert_histograms_identical(got["scalar"], got["vector"])

    def test_probe_values_exactly_on_separators_identical(self):
        values = np.repeat(np.arange(10, dtype=np.float64), 37)
        got = run_both(
            lambda: EquiHeightHistogram.from_values(values, 5).recount(values)
        )
        assert_histograms_identical(got["scalar"], got["vector"])

    def test_negative_zero_ties_identical(self):
        values = np.tile([-0.0, 0.0, 1.0], 101)
        got = run_both(lambda: EquiHeightHistogram.from_values(values, 6))
        assert_histograms_identical(got["scalar"], got["vector"])

    @BOTH
    def test_nan_rejected_in_both_modes(self, mode):
        values = np.array([1.0, np.nan, 2.0])
        with implementation(mode):
            with pytest.raises(ParameterError, match="NaN"):
                EquiHeightHistogram.from_values(values, 3)

    def test_ensure_sorted_handles_nan_like_a_sort(self):
        values = np.array([3.0, np.nan, 1.0, 2.0])
        got = run_both(lambda: kernels.ensure_sorted(values.copy()))
        assert_arrays_identical(got["scalar"], got["vector"])


class TestRunLengths:
    """``run_lengths`` equals ``np.unique(..., return_counts=True)[1]``."""

    CASES = {
        "empty": np.array([], dtype=np.float64),
        "single": np.array([4], dtype=np.int64),
        "constant": np.full(300, 2.5),
        "all_distinct": np.arange(-50, 250, dtype=np.int64),
        "near_duplicate": np.sort(
            np.tile([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)], 40)
        ),
        "signed_zero": np.array([-0.0, 0.0, -0.0, 1.0]),
        "signed_zero_run": np.array([-0.0, 0.0, 0.0, 1.0]),
        "nan_tail": np.array([1.0, 1.0, 2.0, np.nan, np.nan, np.nan]),
        "only_nan": np.full(3, np.nan),
        "unsorted_nan": np.array([np.nan, 2.0, 1.0, np.nan, 1.0]),
        "unsorted_int": np.array([3, 1, 3, 2, 1, 3], dtype=np.int64),
        "two_d": np.array([[3, 1], [1, 2]], dtype=np.int64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_oracle(self, case):
        values = self.CASES[case]
        got = run_both(lambda: kernels.run_lengths(values.copy()))
        assert_arrays_identical(got["scalar"], got["vector"])

    def test_nans_count_as_one_value(self):
        counts = kernels.run_lengths(self.CASES["nan_tail"])
        assert counts.tolist() == [2, 1, 3]


class TestUniqueCounts:
    """``unique_counts`` equals ``np.unique(..., return_counts=True)``, and
    so do the histograms and the join size that count with it."""

    @pytest.mark.parametrize("case", sorted(TestRunLengths.CASES))
    def test_matches_the_oracle(self, case):
        values = TestRunLengths.CASES[case]
        got = run_both(lambda: kernels.unique_counts(values.copy()))
        for scalar, vector in zip(got["scalar"], got["vector"]):
            assert_arrays_identical(scalar, vector)
            # Bytes too: each distinct value is the first of its run, so
            # a -0.0 leading a run of zeros stays -0.0.
            assert scalar.tobytes() == vector.tobytes()

    COLUMNS = {
        "int": make_values("distinct", 2_000, 1),
        "float": np.random.default_rng(2).normal(size=2_000),
        "duplicate_heavy": make_values("zipf", 2_000, 3),
        "near_duplicate_float": make_values("near_dup", 2_000, 4),
        "single_value": make_values("single", 500, 5),
    }

    @pytest.mark.parametrize("case", sorted(COLUMNS))
    @pytest.mark.parametrize("presorted", [False, True])
    def test_histograms_and_join_size(self, case, presorted):
        values = self.COLUMNS[case]
        values = np.sort(values) if presorted else values

        def build():
            compressed = CompressedHistogram.from_values(values, 8)
            return (
                compressed.singletons,
                compressed.remainder,
                compressed.total,
                MaxDiffHistogram.from_values(values, 8).buckets(),
                true_join_size(values, values[::3]),
            )

        got = run_both(build)
        assert got["scalar"] == got["vector"]


class TestModeDispatch:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            with implementation("simd"):
                pass

    def test_override_wins_and_restores(self):
        production = {name: getattr(kernels, name) for name in oracle.ORACLES}
        with implementation("scalar"):
            for name, reference in oracle.ORACLES.items():
                assert getattr(kernels, name) is reference, name
            inside = heap_file(np.arange(4), blocking_factor=2)
        for name, function in production.items():
            assert getattr(kernels, name) is function, name
        assert type(inside) is oracle.OracleHeapFile
        assert type(heap_file(np.arange(4), blocking_factor=2)) is HeapFile
