"""Tests for Bernoulli and systematic page sampling."""

import numpy as np
import pytest

from repro.core.histogram import EquiHeightHistogram
from repro.core.error_metrics import max_error_fraction
from repro.exceptions import PageCorruptionError, ParameterError
from repro.sampling.page_samplers import (
    bernoulli_page_sample,
    systematic_page_sample,
)
from repro.storage import FaultPolicy, FaultyHeapFile, HeapFile


class TestBernoulli:
    def test_expected_size(self, rng):
        hf = HeapFile(np.arange(100_000), blocking_factor=100)
        out = bernoulli_page_sample(hf, 0.2, rng)
        assert out.size == pytest.approx(20_000, rel=0.25)
        # Whole pages: size is a multiple of the blocking factor.
        assert out.size % 100 == 0

    def test_p_zero_and_one(self, rng):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        assert bernoulli_page_sample(hf, 0.0, rng).size == 0
        assert bernoulli_page_sample(hf, 1.0, rng).size == 1000

    def test_charges_page_reads(self, rng):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        out = bernoulli_page_sample(hf, 0.5, rng)
        assert hf.iostats.page_reads == out.size // 10

    def test_invalid_p_rejected(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        with pytest.raises(ParameterError):
            bernoulli_page_sample(hf, 1.5, rng)


class TestSystematic:
    def test_reads_every_stride_th_page(self, rng):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        out = systematic_page_sample(hf, stride=4, rng=rng)
        assert out.size in (250, 260)  # 25 pages, +-1 from the offset
        assert hf.iostats.page_reads == out.size // 10

    def test_stride_one_is_full_scan(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        out = systematic_page_sample(hf, stride=1, rng=rng)
        np.testing.assert_array_equal(np.sort(out), np.arange(100))

    def test_invalid_stride_rejected(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        with pytest.raises(ParameterError):
            systematic_page_sample(hf, stride=0, rng=rng)

    def test_empty_file(self, rng):
        hf = HeapFile(np.array([]), blocking_factor=10)
        assert systematic_page_sample(hf, stride=3, rng=rng).size == 0

    def test_bias_on_periodic_layout(self):
        """The documented failure mode: when the layout is periodic with a
        period sharing a factor with the stride, systematic sampling sees a
        biased slice while Bernoulli sampling does not."""
        # Period-4 pages: page i holds only values congruent to i mod 4.
        b = 10
        pages = [np.full(b, i % 4) for i in range(400)]
        hf = HeapFile(np.concatenate(pages), blocking_factor=b)

        systematic_errors, bernoulli_errors = [], []
        data = np.sort(hf.values_unaccounted())
        for seed in range(10):
            sys_sample = systematic_page_sample(hf, stride=4, rng=seed)
            hist = EquiHeightHistogram.from_values(sys_sample, 4)
            systematic_errors.append(
                max_error_fraction(hist.recount(data).counts)
            )
            bern_sample = bernoulli_page_sample(hf, 0.25, rng=seed)
            hist = EquiHeightHistogram.from_values(bern_sample, 4)
            bernoulli_errors.append(
                max_error_fraction(hist.recount(data).counts)
            )
        assert np.mean(systematic_errors) > 2 * np.mean(bernoulli_errors)


class TestCorruptFile:
    """Both samplers read through the file's faulty path: no silent skips."""

    @pytest.mark.parametrize(
        "sample",
        [
            lambda hf, rng: bernoulli_page_sample(hf, 1.0, rng),
            lambda hf, rng: systematic_page_sample(hf, 1, rng),
        ],
        ids=["bernoulli", "systematic"],
    )
    def test_raises_at_first_bad_page(self, sample, rng):
        # p = 1 and stride 1 both read every page in order, so the first
        # corrupt page raises after exactly the pages before it.
        faulty = FaultyHeapFile(
            HeapFile(np.arange(1000), blocking_factor=10),
            FaultPolicy(corrupt_fraction=0.2, seed=9),
        )
        bad = min(faulty.corrupt_pages)
        with pytest.raises(PageCorruptionError) as exc_info:
            sample(faulty, rng)
        assert exc_info.value.page_id == bad
        assert faulty.iostats.page_reads == bad
        assert faulty.iostats.failed_reads == 1
