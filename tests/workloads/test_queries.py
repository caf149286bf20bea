"""Tests for range-query workloads and ground truth."""

import numpy as np
import pytest

from repro.exceptions import EmptyDataError, ParameterError
from repro.workloads.queries import (
    RangeQuery,
    fixed_selectivity_queries,
    random_range_queries,
    true_range_count,
)


class TestRangeQuery:
    def test_selects_closed_interval(self):
        q = RangeQuery(3, 7)
        mask = q.selects(np.array([2, 3, 5, 7, 8]))
        np.testing.assert_array_equal(mask, [False, True, True, True, False])

    def test_point_query(self):
        q = RangeQuery(5, 5)
        assert q.selects(np.array([4, 5, 6])).sum() == 1

    def test_reversed_rejected(self):
        with pytest.raises(ParameterError):
            RangeQuery(10, 5)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 50), (0, np.nan)])
    def test_nan_bound_rejected(self, lo, hi):
        with pytest.raises(ParameterError):
            RangeQuery(lo, hi)


class TestTrueRangeCount:
    def test_matches_brute_force(self, rng):
        values = np.sort(rng.integers(0, 1000, size=5000))
        for _ in range(25):
            lo, hi = np.sort(rng.integers(0, 1000, size=2))
            q = RangeQuery(float(lo), float(hi))
            assert true_range_count(values, q) == int(q.selects(values).sum())

    def test_empty_range(self):
        values = np.arange(0, 100, 10)
        assert true_range_count(values, RangeQuery(1, 9)) == 0

    def test_duplicates_counted(self):
        values = np.array([5, 5, 5, 7])
        assert true_range_count(values, RangeQuery(5, 5)) == 3


class TestRandomQueries:
    def test_count_and_validity(self, rng):
        values = np.arange(0, 1000)
        queries = random_range_queries(values, 50, rng)
        assert len(queries) == 50
        for q in queries:
            assert q.lo <= q.hi
            assert 0 <= q.lo <= 999

    def test_empty_data_rejected(self, rng):
        with pytest.raises(EmptyDataError):
            random_range_queries(np.array([]), 5, rng)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ParameterError):
            random_range_queries(np.arange(10), -1, rng)


class TestFixedSelectivityQueries:
    def test_exact_output_size_on_distinct_data(self, rng):
        values = np.arange(0, 10_000)
        queries = fixed_selectivity_queries(values, output_size=250, count=20, rng=rng)
        for q in queries:
            assert true_range_count(values, q) == 250

    def test_output_size_bounds(self, rng):
        values = np.arange(100)
        with pytest.raises(ParameterError):
            fixed_selectivity_queries(values, output_size=0, count=1, rng=rng)
        with pytest.raises(ParameterError):
            fixed_selectivity_queries(values, output_size=101, count=1, rng=rng)

    def test_full_table_query(self, rng):
        values = np.arange(100)
        queries = fixed_selectivity_queries(values, output_size=100, count=3, rng=rng)
        for q in queries:
            assert true_range_count(values, q) == 100

    def test_duplicates_can_only_increase_count(self, rng):
        values = np.sort(np.repeat(np.arange(100), 5))
        queries = fixed_selectivity_queries(values, output_size=50, count=20, rng=rng)
        for q in queries:
            assert true_range_count(values, q) >= 50
