"""Tests for range-selectivity estimation (the Theorem 1/3 consumer)."""

import numpy as np
import pytest

from repro.core.histogram import EquiHeightHistogram
from repro.engine.selectivity import (
    RangeEstimate,
    RangeSelectivityEstimator,
    evaluate_workload,
)
from repro.exceptions import ParameterError
from repro.workloads.queries import RangeQuery, random_range_queries


def uniform_histogram(n=10_000, k=20):
    values = np.arange(1, n + 1)
    return EquiHeightHistogram.from_values(values, k), values


class TestEstimator:
    def test_full_data_histogram_scale_is_identity(self):
        hist, values = uniform_histogram()
        est = RangeSelectivityEstimator(hist, table_rows=values.size)
        assert est.estimate(RangeQuery(1, 10_000)) == pytest.approx(
            10_000, rel=0.01
        )

    def test_sample_histogram_scales_to_table(self, rng):
        values = np.arange(1, 100_001)
        sample = rng.choice(values, size=5_000, replace=True)
        hist = EquiHeightHistogram.from_values(sample, 20)
        est = RangeSelectivityEstimator(hist, table_rows=values.size)
        # A half-domain query should estimate about half the table.
        assert est.estimate(RangeQuery(1, 50_000)) == pytest.approx(
            50_000, rel=0.1
        )

    def test_selectivity_fraction(self):
        hist, values = uniform_histogram()
        est = RangeSelectivityEstimator(hist, table_rows=values.size)
        sel = est.selectivity(RangeQuery(1, 5_000))
        assert sel == pytest.approx(0.5, abs=0.02)

    def test_invalid_rows_rejected(self):
        hist, _ = uniform_histogram()
        with pytest.raises(ParameterError):
            RangeSelectivityEstimator(hist, table_rows=0)


class TestRangeEstimate:
    def test_errors(self):
        e = RangeEstimate(RangeQuery(0, 1), estimate=110.0, truth=100)
        assert e.absolute_error == 10.0
        assert e.relative_error() == pytest.approx(0.1)

    def test_relative_floor_guards_tiny_truth(self):
        e = RangeEstimate(RangeQuery(0, 1), estimate=5.0, truth=0)
        assert e.relative_error(floor=1.0) == 5.0


class TestWorkloadEvaluation:
    def test_accuracy_bounded_by_theorem3(self, rng):
        """An approximate histogram with measured max error f keeps all range
        estimates within (1+f)*2n/k of the truth, plus interpolation slack
        inside boundary buckets (Theorem 3)."""
        from repro.core.error_metrics import max_error_fraction

        n, k = 50_000, 25
        values = np.arange(1, n + 1)
        sample = np.sort(rng.choice(values, size=8_000, replace=True))
        hist = EquiHeightHistogram.from_values(sample, k)
        f = max_error_fraction(hist.recount(values).counts)
        estimator = RangeSelectivityEstimator(hist, table_rows=n)
        queries = random_range_queries(values, 100, rng)
        accuracy = evaluate_workload(estimator, values, queries)
        assert accuracy.max_absolute_error <= (1 + f) * 2 * n / k + n / k

    def test_summary_string(self, rng):
        hist, values = uniform_histogram()
        estimator = RangeSelectivityEstimator(hist, table_rows=values.size)
        queries = random_range_queries(values, 10, rng)
        accuracy = evaluate_workload(estimator, values, queries)
        assert "10 queries" in accuracy.summary()

    def test_empty_workload_rejected(self):
        hist, values = uniform_histogram()
        estimator = RangeSelectivityEstimator(hist, table_rows=values.size)
        with pytest.raises(ParameterError):
            evaluate_workload(estimator, values, [])

    @pytest.mark.parametrize(
        "column",
        [
            np.arange(1000.0)[::-1],  # reversed: truth 0 for [100, 199]
            np.arange(1000.0).reshape(10, 100),
            np.array([1.0, 2.0, np.nan, 4.0]),
        ],
        ids=["reversed", "2-d", "nan"],
    )
    def test_column_must_be_sorted_1d_without_nan(self, column):
        estimator = RangeSelectivityEstimator(
            EquiHeightHistogram.from_values(np.arange(1000.0), 10),
            table_rows=1000,
        )
        with pytest.raises(ParameterError, match="non-decreasing"):
            evaluate_workload(estimator, column, [RangeQuery(100, 199)])

    def test_perfect_histogram_beats_coarse_sample(self, rng):
        """More sampling -> better histograms -> better estimates, on
        average over a workload."""
        n, k = 50_000, 25
        values = np.arange(1, n + 1)
        queries = random_range_queries(values, 200, rng)

        tiny_sample = np.sort(rng.choice(values, size=300, replace=True))
        big_sample = np.sort(rng.choice(values, size=30_000, replace=True))
        errors = []
        for sample in (tiny_sample, big_sample):
            hist = EquiHeightHistogram.from_values(sample, k)
            estimator = RangeSelectivityEstimator(hist, table_rows=n)
            errors.append(
                evaluate_workload(estimator, values, queries).mean_absolute_error
            )
        assert errors[1] < errors[0]
