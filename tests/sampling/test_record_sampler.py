"""Tests for record-level sampling primitives."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.obs import metrics
from repro.sampling.record_sampler import (
    sample_records_from_file,
    sample_with_replacement,
)
from repro.storage import HeapFile


class TestWithReplacement:
    def test_size(self, rng):
        out = sample_with_replacement(np.arange(100), 250, rng)
        assert out.size == 250

    def test_values_come_from_population(self, rng):
        pop = np.array([2, 4, 8])
        out = sample_with_replacement(pop, 100, rng)
        assert set(out) <= set(pop)

    def test_zero_size(self, rng):
        assert sample_with_replacement(np.arange(10), 0, rng).size == 0

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_with_replacement(np.array([]), 5, rng)

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_with_replacement(np.arange(10), -1, rng)

    def test_approximately_uniform(self, rng):
        pop = np.arange(10)
        out = sample_with_replacement(pop, 100_000, rng)
        counts = np.bincount(out, minlength=10)
        assert abs(counts - 10_000).max() < 600  # ~6 sigma


class TestFromFile:
    def test_each_record_costs_a_page(self, rng):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        out = sample_records_from_file(hf, 50, rng)
        assert out.size == 50
        assert hf.iostats.page_reads == 50

    def test_without_replacement(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        out = sample_records_from_file(hf, 100, rng, with_replacement=False)
        np.testing.assert_array_equal(np.sort(out), np.arange(100))

    def test_without_replacement_oversample_rejected(self, rng):
        hf = HeapFile(np.arange(10), blocking_factor=5)
        with pytest.raises(ParameterError):
            sample_records_from_file(hf, 11, rng, with_replacement=False)

    def test_empty_file_rejected(self, rng):
        hf = HeapFile(np.array([]), blocking_factor=5)
        with pytest.raises(ParameterError):
            sample_records_from_file(hf, 1, rng)

    @pytest.mark.parametrize(
        "with_replacement, mode",
        [(True, "with_replacement"), (False, "without_replacement")],
    )
    def test_samples_counted_by_mode(self, rng, with_replacement, mode):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        with metrics.collecting() as registry:
            out = sample_records_from_file(
                hf, 40, rng, with_replacement=with_replacement
            )
        assert out.size == 40
        assert registry.counter_value(
            "repro_record_samples_total", mode=mode
        ) == 40
        assert hf.iostats.page_reads == 40
