"""Tests for the fault-injection layer and the retrying access paths.

The contracts under test:

- fault decisions are pure functions of the policy seed (never of draw
  order), so every faulty read sequence is reproducible;
- an all-zero :class:`FaultPolicy` makes :class:`FaultyHeapFile` behave
  byte-identically to the wrapped file, including ``IOStats.page_reads``;
- corruption is detected *through the checksum*, transients are retried
  with deterministic jittered backoff, and a :class:`ReadBudget` converts
  runaway failure into :class:`BuildAbortedError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    BuildAbortedError,
    PageCorruptionError,
    ParameterError,
    ReproError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import (
    BudgetTracker,
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
    read_page_resilient,
    read_record_resilient,
    resilient_scan,
)
from repro.storage.heapfile import HeapFile


def make_file(n=1000, bf=20, rng=0):
    return HeapFile.from_values(
        np.arange(1, n + 1), layout="random", rng=rng, blocking_factor=bf
    )


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FaultPolicy(transient_rate=1.0)
        with pytest.raises(ParameterError):
            FaultPolicy(transient_rate=-0.1)
        with pytest.raises(ParameterError):
            FaultPolicy(corrupt_fraction=1.5)
        with pytest.raises(ParameterError):
            FaultPolicy(read_latency_s=-1.0)
        with pytest.raises(ParameterError):
            FaultPolicy(seed=-1)

    def test_transient_fault_is_deterministic_and_order_free(self):
        policy = FaultPolicy(transient_rate=0.3, seed=42)
        # Query in two different orders: identical answers.
        forward = [policy.transient_fault(p, a) for p in range(50) for a in range(3)]
        backward = [
            policy.transient_fault(p, a)
            for p in reversed(range(50))
            for a in reversed(range(3))
        ]
        backward_reordered = list(reversed(backward))
        assert forward == backward_reordered
        # And it actually fires at roughly the configured rate.
        rate = sum(forward) / len(forward)
        assert 0.15 < rate < 0.45

    def test_transient_fault_varies_per_attempt(self):
        policy = FaultPolicy(transient_rate=0.5, seed=7)
        outcomes = {
            (p, a): policy.transient_fault(p, a)
            for p in range(20)
            for a in range(4)
        }
        # Some page must fail on one attempt and succeed on another —
        # otherwise retries could never help.
        per_page = [
            {outcomes[(p, a)] for a in range(4)} for p in range(20)
        ]
        assert any(len(s) == 2 for s in per_page)

    def test_corrupt_page_ids_fixed_and_sized(self):
        policy = FaultPolicy(corrupt_fraction=0.1, seed=3)
        ids = policy.corrupt_page_ids(100)
        assert ids == policy.corrupt_page_ids(100)  # stable
        assert len(ids) == 10
        assert all(0 <= p < 100 for p in ids)
        assert policy.corrupt_page_ids(0) == frozenset()
        assert FaultPolicy().corrupt_page_ids(100) == frozenset()

    def test_different_seeds_differ(self):
        a = FaultPolicy(corrupt_fraction=0.2, seed=1).corrupt_page_ids(200)
        b = FaultPolicy(corrupt_fraction=0.2, seed=2).corrupt_page_ids(200)
        assert a != b

    def test_seeded_constructor_spawns_from_rng(self):
        a = FaultPolicy.seeded(123, transient_rate=0.1)
        b = FaultPolicy.seeded(123, transient_rate=0.1)
        c = FaultPolicy.seeded(124, transient_rate=0.1)
        assert a == b
        assert a.seed != c.seed


class TestRateZeroEquivalence:
    """FaultPolicy() wrapping must be invisible: same bytes, same accounting."""

    def test_payloads_and_iostats_identical(self):
        base = make_file()
        faulty = FaultyHeapFile(make_file(), FaultPolicy())
        for pid in range(base.num_pages):
            np.testing.assert_array_equal(
                base.read_page(pid), faulty.read_page(pid)
            )
        assert faulty.iostats.page_reads == base.iostats.page_reads
        assert faulty.iostats.snapshot() == base.iostats.snapshot()

    def test_scan_identical(self):
        base = make_file(n=500, bf=13)
        faulty = FaultyHeapFile(make_file(n=500, bf=13), FaultPolicy())
        np.testing.assert_array_equal(base.scan(), faulty.scan())

    def test_default_policy_when_none(self):
        faulty = FaultyHeapFile(make_file())
        assert faulty.policy == FaultPolicy()
        assert faulty.corrupt_pages == frozenset()
        assert faulty.num_readable_pages == faulty.num_pages

    def test_shares_geometry_with_inner(self):
        inner = make_file(n=777, bf=19)
        faulty = FaultyHeapFile(inner, FaultPolicy())
        assert faulty.num_pages == inner.num_pages
        assert faulty.num_records == inner.num_records
        assert faulty.blocking_factor == inner.blocking_factor
        np.testing.assert_array_equal(
            faulty.values_unaccounted(), inner.values_unaccounted()
        )


class TestTransientFaults:
    def test_read_raises_transient_and_counts_failure(self):
        policy = FaultPolicy(transient_rate=0.6, seed=5)
        faulty = FaultyHeapFile(make_file(), policy)
        # Find a page whose first attempt fails under this seed.
        bad = next(
            p for p in range(faulty.num_pages) if policy.transient_fault(p, 0)
        )
        with pytest.raises(TransientIOError) as exc_info:
            faulty.read_page(bad)
        assert exc_info.value.page_id == bad
        assert exc_info.value.attempt == 0
        assert faulty.iostats.failed_reads == 1
        assert faulty.iostats.page_reads == 0

    def test_attempt_counter_advances_so_retries_can_succeed(self):
        policy = FaultPolicy(transient_rate=0.6, seed=5)
        faulty = FaultyHeapFile(make_file(), policy)
        # A page that fails attempt 0 but succeeds attempt 1.
        pid = next(
            p
            for p in range(faulty.num_pages)
            if policy.transient_fault(p, 0) and not policy.transient_fault(p, 1)
        )
        with pytest.raises(TransientIOError):
            faulty.read_page(pid)
        payload = faulty.read_page(pid)  # second physical attempt succeeds
        lo, hi = faulty.page_bounds(pid)
        np.testing.assert_array_equal(
            payload, faulty.values_unaccounted()[lo:hi]
        )

    def test_latency_charged_per_attempt(self):
        policy = FaultPolicy(read_latency_s=0.01, seed=0)
        faulty = FaultyHeapFile(make_file(), policy)
        faulty.read_page(0)
        faulty.read_page(1)
        assert faulty.iostats.simulated_latency_s == pytest.approx(0.02)


class TestCorruption:
    def test_checksum_detects_tampered_payload(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        assert faulty.corrupt_pages  # the fraction resolved to >= 1 page
        bad = min(faulty.corrupt_pages)
        with pytest.raises(PageCorruptionError) as exc_info:
            faulty.read_page(bad)
        assert exc_info.value.page_id == bad
        assert faulty.iostats.failed_reads == 1

    def test_corruption_is_permanent(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        bad = min(faulty.corrupt_pages)
        for _ in range(3):
            with pytest.raises(PageCorruptionError):
                faulty.read_page(bad)

    def test_readable_values_excludes_corrupt_pages(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        inner = make_file()
        faulty = FaultyHeapFile(inner, policy)
        readable = faulty.readable_values_unaccounted()
        lost = sum(
            faulty.page_bounds(p)[1] - faulty.page_bounds(p)[0]
            for p in faulty.corrupt_pages
        )
        assert len(readable) == inner.num_records - lost
        assert faulty.num_readable_pages == (
            faulty.num_pages - len(faulty.corrupt_pages)
        )

    def test_read_record_routes_through_faulty_page(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        bad = min(faulty.corrupt_pages)
        with pytest.raises(PageCorruptionError):
            faulty.read_record(bad * faulty.blocking_factor)
        good = next(
            p for p in range(faulty.num_pages) if p not in faulty.corrupt_pages
        )
        value = faulty.read_record(good * faulty.blocking_factor)
        lo, _ = faulty.page_bounds(good)
        assert value == faulty.values_unaccounted()[lo]

    def test_read_pages_raises_at_first_bad_page(self):
        # A batch read must not gather past a corrupt page: it raises there,
        # with the clean pages before it charged and none after it.
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        bad = min(faulty.corrupt_pages)
        clean = [
            p for p in range(faulty.num_pages) if p not in faulty.corrupt_pages
        ]
        with pytest.raises(PageCorruptionError) as exc_info:
            faulty.read_pages(clean[:3] + [bad] + clean[3:6])
        assert exc_info.value.page_id == bad
        assert faulty.iostats.page_reads == 3
        assert faulty.iostats.failed_reads == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ParameterError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ParameterError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ParameterError):
            RetryPolicy(seed=-2)

    def test_backoff_grows_exponentially(self):
        retry = RetryPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.0)
        assert retry.backoff_s(0, 0) == pytest.approx(0.01)
        assert retry.backoff_s(0, 1) == pytest.approx(0.02)
        assert retry.backoff_s(0, 2) == pytest.approx(0.04)

    def test_jitter_is_deterministic_and_bounded(self):
        retry = RetryPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.2, seed=3)
        delays = [retry.backoff_s(p, a) for p in range(10) for a in range(3)]
        again = [retry.backoff_s(p, a) for p in range(10) for a in range(3)]
        assert delays == again
        for (p, a), d in zip(
            [(p, a) for p in range(10) for a in range(3)], delays
        ):
            base = 0.01 * 2.0**a
            assert base * 0.8 <= d <= base * 1.2
        # Jitter actually varies across pages.
        assert len({round(d, 12) for d in delays}) > 1

    def test_seeded_constructor(self):
        assert RetryPolicy.seeded(5) == RetryPolicy.seeded(5)
        assert RetryPolicy.seeded(5).seed != RetryPolicy.seeded(6).seed


class TestResilientReads:
    def test_plain_heapfile_passthrough(self):
        hf = make_file()
        payload = read_page_resilient(hf, 0, retry=RetryPolicy())
        np.testing.assert_array_equal(payload, hf.values_unaccounted()[:20])
        assert hf.iostats.page_reads == 1
        assert hf.iostats.retries == 0

    def test_transient_retried_to_success(self):
        policy = FaultPolicy(transient_rate=0.6, seed=5)
        faulty = FaultyHeapFile(make_file(), policy)
        pid = next(
            p
            for p in range(faulty.num_pages)
            if policy.transient_fault(p, 0) and not policy.transient_fault(p, 1)
        )
        payload = read_page_resilient(faulty, pid, retry=RetryPolicy(max_attempts=3))
        assert payload is not None
        assert faulty.iostats.retries == 1
        assert faulty.iostats.failed_reads == 1
        assert faulty.iostats.page_reads == 1
        assert faulty.iostats.simulated_latency_s > 0  # backoff charged

    def test_exhausted_retries_skip(self):
        policy = FaultPolicy(transient_rate=0.6, seed=5)
        faulty = FaultyHeapFile(make_file(), policy)
        pid = next(
            p
            for p in range(faulty.num_pages)
            if all(policy.transient_fault(p, a) for a in range(2))
        )
        payload = read_page_resilient(faulty, pid, retry=RetryPolicy(max_attempts=2))
        assert payload is None
        assert faulty.iostats.pages_skipped == 1
        assert faulty.iostats.failed_reads == 2

    def test_corruption_never_retried(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        bad = min(faulty.corrupt_pages)
        payload = read_page_resilient(
            faulty, bad, retry=RetryPolicy(max_attempts=10)
        )
        assert payload is None
        assert faulty.iostats.failed_reads == 1  # one attempt, no retries
        assert faulty.iostats.retries == 0
        assert faulty.iostats.pages_skipped == 1

    def test_read_record_resilient_none_on_loss(self):
        policy = FaultPolicy(corrupt_fraction=0.2, seed=9)
        faulty = FaultyHeapFile(make_file(), policy)
        bad = min(faulty.corrupt_pages)
        assert (
            read_record_resilient(faulty, bad * faulty.blocking_factor) is None
        )

    def test_resilient_scan_returns_readable_values(self):
        policy = FaultPolicy(
            transient_rate=0.3, corrupt_fraction=0.1, seed=11
        )
        faulty = FaultyHeapFile(make_file(), policy)
        got = resilient_scan(faulty, retry=RetryPolicy(max_attempts=8, seed=1))
        expected = faulty.readable_values_unaccounted()
        # With 8 attempts at rate 0.3, every readable page comes through.
        np.testing.assert_array_equal(np.sort(got), np.sort(expected))

    def test_faulty_reads_are_bit_identical_across_runs(self):
        def run():
            policy = FaultPolicy(
                transient_rate=0.4, corrupt_fraction=0.1, seed=21
            )
            faulty = FaultyHeapFile(make_file(), policy)
            values = resilient_scan(
                faulty, retry=RetryPolicy(max_attempts=5, seed=2)
            )
            return values.tolist(), faulty.iostats.snapshot()

        assert run() == run()


class TestReadBudget:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ReadBudget(max_failed_reads=-1)
        with pytest.raises(ParameterError):
            ReadBudget(max_skipped_pages=-1)
        with pytest.raises(ParameterError):
            ReadBudget(max_skipped_fraction=1.5)
        with pytest.raises(ParameterError):
            ReadBudget(max_simulated_s=-0.1)

    def test_tracker_resolves_fraction(self):
        tracker = ReadBudget(max_skipped_fraction=0.25).tracker(num_pages=40)
        assert tracker.max_skipped_pages == 10
        # Explicit page cap wins when tighter.
        tracker = ReadBudget(
            max_skipped_pages=3, max_skipped_fraction=0.5
        ).tracker(num_pages=40)
        assert tracker.max_skipped_pages == 3

    def test_unlimited_budget_never_aborts(self):
        tracker = ReadBudget().tracker()
        for _ in range(1000):
            tracker.charge_failure()
            tracker.charge_skip()
            tracker.charge_delay(1.0)

    def test_failure_cap_aborts_with_snapshot(self):
        tracker = BudgetTracker(max_failed_reads=2)
        tracker.charge_failure()
        tracker.charge_failure()
        with pytest.raises(BuildAbortedError) as exc_info:
            tracker.charge_failure()
        assert exc_info.value.snapshot["failed_reads"] == 3
        assert "failed reads" in str(exc_info.value)

    def test_skip_cap_aborts(self):
        tracker = BudgetTracker(max_skipped_pages=1)
        tracker.charge_skip()
        with pytest.raises(BuildAbortedError):
            tracker.charge_skip()

    def test_delay_cap_aborts(self):
        tracker = BudgetTracker(max_simulated_s=0.5)
        tracker.charge_delay(0.4)
        with pytest.raises(BuildAbortedError):
            tracker.charge_delay(0.2)

    def test_budget_abort_propagates_from_resilient_read(self):
        policy = FaultPolicy(transient_rate=0.6, seed=5)
        faulty = FaultyHeapFile(make_file(), policy)
        tracker = ReadBudget(max_failed_reads=0).tracker()
        bad = next(
            p for p in range(faulty.num_pages) if policy.transient_fault(p, 0)
        )
        with pytest.raises(BuildAbortedError):
            read_page_resilient(
                faulty, bad, retry=RetryPolicy(max_attempts=3), budget=tracker
            )

    def test_new_exceptions_are_repro_and_storage_errors(self):
        assert issubclass(TransientIOError, StorageError)
        assert issubclass(TransientIOError, IOError)
        assert issubclass(PageCorruptionError, StorageError)
        assert issubclass(BuildAbortedError, ReproError)
        assert issubclass(StorageError, ReproError)
