"""Tests for the samplers' fault-tolerant access paths.

The load-bearing claims: without retry/budget the samplers are byte-for-byte
the original code paths (same values, same RNG stream, same accounting); with
them, unreadable pages are skipped and *replaced by fresh draws*, so batches
stay full-size and samples stay uniform over the readable portion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    BuildAbortedError,
    PageCorruptionError,
    TransientIOError,
)
from repro.sampling.block_sampler import BlockSampleStream, sample_blocks
from repro.sampling.record_sampler import sample_records_from_file
from repro.storage.faults import (
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
)
from repro.storage.heapfile import HeapFile

N, BF = 2000, 20


def make_file(rng=0):
    return HeapFile.from_values(
        np.arange(1, N + 1), layout="random", rng=rng, blocking_factor=BF
    )


def make_faulty(transient=0.3, corrupt=0.1, seed=11, rng=0):
    return FaultyHeapFile(
        make_file(rng=rng),
        FaultPolicy(transient_rate=transient, corrupt_fraction=corrupt, seed=seed),
    )


RETRY = RetryPolicy(max_attempts=8, seed=1)


class TestFaultFreeEquivalence:
    """retry/budget must not change results on a healthy file."""

    def test_sample_blocks_same_values_same_reads(self):
        a, b = make_file(), make_file()
        plain = sample_blocks(a, 10, rng=42)
        resilient = sample_blocks(b, 10, rng=42, retry=RETRY)
        np.testing.assert_array_equal(plain, resilient)
        assert a.iostats.page_reads == b.iostats.page_reads

    def test_stream_same_values_same_reads(self):
        a, b = make_file(), make_file()
        s1 = BlockSampleStream(a, rng=7)
        s2 = BlockSampleStream(b, rng=7, retry=RETRY)
        np.testing.assert_array_equal(s1.take(12), s2.take(12))
        assert s2.pages_skipped == 0
        assert a.iostats.snapshot() == b.iostats.snapshot()

    def test_record_sampler_same_draws(self):
        # The resilient path consumes the RNG differently by design, so
        # equivalence here means distributional sanity, not bit-equality:
        # on a healthy file it returns exactly r readable records.
        hf = make_file()
        sample = sample_records_from_file(hf, 50, rng=3, retry=RETRY)
        assert sample.size == 50
        assert set(sample).issubset(set(range(1, N + 1)))


class TestBlockStreamSkipAndRedraw:
    def test_batches_stay_full_size(self):
        faulty = make_faulty()
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY)
        batch = stream.take(20)
        # 20 full readable pages: skipped pages were replaced by redraws.
        assert batch.size == 20 * BF
        assert stream.pages_taken == 20 + stream.pages_skipped

    def test_skipped_pages_are_the_unreadable_ones(self):
        faulty = make_faulty(transient=0.0)  # only corruption: deterministic
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY)
        stream.take(faulty.num_pages)  # ask for everything
        assert stream.exhausted
        assert set(stream.skipped_ids) == set(faulty.corrupt_pages)

    def test_sample_values_all_from_readable_pages(self):
        faulty = make_faulty()
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY)
        batch = stream.take(30)
        readable = set(faulty.readable_values_unaccounted().tolist())
        assert set(batch.tolist()).issubset(readable)

    def test_skipped_pages_never_reoffered(self):
        faulty = make_faulty(transient=0.0)
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY)
        stream.take(faulty.num_pages)
        taken = stream.taken_ids.tolist()
        assert len(taken) == len(set(taken))  # each page consumed once

    def test_without_retry_faults_propagate(self):
        faulty = make_faulty(transient=0.0)
        stream = BlockSampleStream(faulty, rng=5)
        with pytest.raises(PageCorruptionError):
            stream.take(faulty.num_pages)

    @pytest.mark.parametrize(
        "transient, corrupt, error",
        [(0.0, 0.1, PageCorruptionError), (0.3, 0.0, TransientIOError)],
    )
    def test_propagated_fault_consumes_through_faulting_page(
        self, transient, corrupt, error
    ):
        # With no retry policy the fault propagates; the stream has then
        # consumed exactly the pages up to and including the faulting one.
        faulty = make_faulty(transient=transient, corrupt=corrupt)
        twin = BlockSampleStream(make_file(), rng=5)
        twin.take(faulty.num_pages)
        order = twin.taken_ids.tolist()
        first_bad = next(
            i
            for i, pid in enumerate(order)
            if pid in faulty.corrupt_pages
            or faulty.policy.transient_fault(pid, 0)
        )
        stream = BlockSampleStream(faulty, rng=5)
        with pytest.raises(error):
            stream.take(faulty.num_pages)
        assert stream.pages_taken == first_bad + 1
        assert stream.taken_ids.tolist() == order[: first_bad + 1]
        assert stream.pages_skipped == 0
        assert faulty.iostats.page_reads == first_bad

    def test_budget_abort_propagates(self):
        faulty = make_faulty(transient=0.0, corrupt=0.3)
        tracker = ReadBudget(max_skipped_pages=1).tracker()
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY, budget=tracker)
        with pytest.raises(BuildAbortedError):
            stream.take(faulty.num_pages)

    def test_take_one_tuple_per_block_skips_too(self):
        faulty = make_faulty()
        stream = BlockSampleStream(faulty, rng=5, retry=RETRY)
        all_tuples, reps = stream.take_one_tuple_per_block(15, rng=6)
        assert reps.size == 15
        assert all_tuples.size == 15 * BF


class TestResilientRecordSampler:
    def test_sample_uniform_over_readable_records(self):
        faulty = make_faulty()
        sample = sample_records_from_file(faulty, 100, rng=9, retry=RETRY)
        assert sample.size == 100
        readable = set(faulty.readable_values_unaccounted().tolist())
        assert set(sample.tolist()).issubset(readable)

    def test_without_replacement_terminates_and_is_readable_only(self):
        faulty = make_faulty()
        sample = sample_records_from_file(
            faulty, 100, rng=9, with_replacement=False, retry=RETRY
        )
        assert sample.size == 100
        assert len(set(sample.tolist())) == 100  # genuinely without replacement

    def test_short_sample_when_readable_records_run_out(self):
        # Corrupt most pages: fewer readable records than requested.
        faulty = make_faulty(transient=0.0, corrupt=0.9, seed=2)
        readable_records = faulty.num_readable_pages * BF
        assert readable_records < N
        sample = sample_records_from_file(
            faulty, N, rng=9, with_replacement=False, retry=RETRY
        )
        assert 0 < sample.size <= readable_records

    def test_deterministic_across_runs(self):
        def run():
            faulty = make_faulty()
            return sample_records_from_file(
                faulty, 80, rng=13, retry=RETRY
            ).tolist()

        assert run() == run()

    def test_budget_abort_propagates(self):
        faulty = make_faulty(transient=0.5, corrupt=0.0, seed=4)
        tracker = ReadBudget(max_failed_reads=1).tracker()
        with pytest.raises(BuildAbortedError):
            sample_records_from_file(
                faulty, 200, rng=9, retry=RetryPolicy(max_attempts=2), budget=tracker
            )
