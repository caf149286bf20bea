"""Tests for block-level sampling and the incremental stream CVB uses."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.sampling.block_sampler import (
    BlockSampleStream,
    sample_block_ids,
    sample_blocks,
)
from repro.storage import HeapFile


class TestSampleBlockIds:
    def test_without_replacement_unique(self, rng):
        ids = sample_block_ids(100, 50, rng)
        assert np.unique(ids).size == 50
        assert ids.max() < 100

    def test_with_replacement_allows_duplicates(self, rng):
        ids = sample_block_ids(5, 100, rng, with_replacement=True)
        assert ids.size == 100

    def test_oversample_without_replacement_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_block_ids(10, 11, rng)

    def test_zero_count(self, rng):
        assert sample_block_ids(10, 0, rng).size == 0

    def test_empty_file_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_block_ids(0, 1, rng)


class TestSampleBlocks:
    def test_returns_whole_pages(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        out = sample_blocks(hf, 3, rng)
        assert out.size == 30
        assert hf.iostats.page_reads == 3

    def test_all_blocks_is_full_file(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        out = sample_blocks(hf, 10, rng)
        np.testing.assert_array_equal(np.sort(out), np.arange(100))


class TestBlockSampleStream:
    def test_batches_are_disjoint_pages(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        a = stream.take(4)
        b = stream.take(4)
        # Values are distinct integers, so disjoint pages mean disjoint values.
        assert np.intersect1d(a, b).size == 0

    def test_union_covers_file_when_exhausted(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        chunks = [stream.take(3) for _ in range(4)]
        assert stream.exhausted
        union = np.concatenate(chunks)
        np.testing.assert_array_equal(np.sort(union), np.arange(100))

    def test_take_beyond_end_returns_short(self, rng):
        hf = HeapFile(np.arange(50), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        out = stream.take(100)
        assert out.size == 50
        assert stream.exhausted
        assert stream.take(5).size == 0

    def test_counters(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        assert stream.pages_remaining == 10
        stream.take(3)
        assert stream.pages_taken == 3
        assert stream.pages_remaining == 7

    def test_negative_take_rejected(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        with pytest.raises(ParameterError):
            stream.take(-1)

    def test_order_is_the_generators_permutation_of_the_pages(self):
        hf = HeapFile(np.arange(1000), blocking_factor=10)
        stream = BlockSampleStream(hf, 7)
        stream.take(5)
        stream.take(20)
        expected = np.random.default_rng(7).permutation(hf.num_pages)
        np.testing.assert_array_equal(stream.taken_ids, expected[:25])

    def test_uniformity_of_first_batch(self):
        """The first batch is a uniform page sample: over many seeds every
        page appears roughly equally often."""
        hf = HeapFile(np.arange(100), blocking_factor=10)
        hits = np.zeros(10)
        for seed in range(2000):
            stream = BlockSampleStream(hf, seed)
            payload = stream.take(2)
            pages = np.unique(payload // 10)
            hits[pages] += 1
        expected = 2000 * 2 / 10
        assert abs(hits - expected).max() < 100

    def test_one_tuple_per_block(self, rng):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        full, reps = stream.take_one_tuple_per_block(4, rng=rng)
        assert full.size == 40
        assert reps.size == 4
        # Each representative comes from a distinct sampled page.
        rep_pages = np.unique(reps // 10)
        assert rep_pages.size == 4
        assert set(reps) <= set(full)

    def test_one_tuple_per_block_exhaustion(self, rng):
        hf = HeapFile(np.arange(30), blocking_factor=10)
        stream = BlockSampleStream(hf, rng)
        full, reps = stream.take_one_tuple_per_block(10, rng=rng)
        assert full.size == 30
        assert reps.size == 3
