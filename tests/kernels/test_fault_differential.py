"""Fault-path differential: batched skip-and-redraw matches per-page reads.

Production resolves faulty reads in batches (runs of clean pages between
corrupt ones gather in one call) while the oracle files force one
``read_page_resilient`` per page.  These tests prove the *observable*
contract: with identical fault injection, both deliver the same payloads,
skip the same pages, charge the same retries/failed reads/latency, abort a
budget at the same page, and build the same final histogram.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import cvb_build
from repro.core.histogram import EquiHeightHistogram
from repro.exceptions import BuildAbortedError
from repro.obs import metrics
from repro.sampling.block_sampler import BlockSampleStream, sample_blocks
from repro.storage import FaultPolicy, FaultyHeapFile, HeapFile, RetryPolicy
from repro.storage.faults import ReadBudget

from .conftest import (
    assert_arrays_identical,
    assert_histograms_identical,
    faulty_file,
    heap_file,
    make_values,
    run_both,
)

RETRY = RetryPolicy(max_attempts=3, seed=11)

FAULTS = [
    FaultPolicy(transient_rate=0.3, seed=5),
    FaultPolicy(corrupt_fraction=0.2, seed=5),
    FaultPolicy(transient_rate=0.25, corrupt_fraction=0.15, seed=9),
    # Majority-corrupt: most draws hit the skip-and-redraw path, so the
    # batched redraw loop is exercised far past its common case.
    FaultPolicy(corrupt_fraction=0.6, seed=3),
]


def _faulty(policy: FaultPolicy, seed: int = 0) -> FaultyHeapFile:
    values = make_values("zipf", 12_000, seed)
    inner = HeapFile.from_values(
        values,
        layout="random",
        rng=np.random.default_rng(seed + 1),
        blocking_factor=40,
    )
    return faulty_file(inner, policy)


class TestStreamFaultDifferential:
    @pytest.mark.parametrize("policy", FAULTS)
    def test_skip_and_redraw_identical(self, policy):
        def sample():
            faulty = _faulty(policy)
            stream = BlockSampleStream(
                faulty, rng=np.random.default_rng(3), retry=RETRY
            )
            with metrics.collecting() as registry:
                first = stream.take(60)
                second = stream.take(60)
            return (
                first,
                second,
                stream.pages_skipped,
                stream.skipped_ids,
                stream.taken_ids,
                faulty.iostats.snapshot(),
                metrics.render_json(registry),
            )

        got = run_both(sample)
        for index in (0, 1, 3, 4):
            assert_arrays_identical(got["scalar"][index], got["vector"][index])
        assert got["scalar"][2] == got["vector"][2]
        assert got["scalar"][5] == got["vector"][5]
        assert got["scalar"][6] == got["vector"][6]
        # The injection actually fired — otherwise this proves nothing.
        snapshot = got["vector"][5]
        assert snapshot["failed_reads"] > 0
        assert snapshot["retries"] > 0 or snapshot["pages_skipped"] > 0

    @pytest.mark.parametrize("policy", FAULTS)
    def test_final_histogram_identical(self, policy):
        def build():
            faulty = _faulty(policy)
            stream = BlockSampleStream(
                faulty, rng=np.random.default_rng(3), retry=RETRY
            )
            sample = stream.take(120)
            return EquiHeightHistogram.from_values(sample, 20)

        got = run_both(build)
        assert_histograms_identical(got["scalar"], got["vector"])

    def test_sample_blocks_resilient_identical(self):
        def sample():
            faulty = _faulty(FAULTS[2])
            with metrics.collecting() as registry:
                out = sample_blocks(faulty, 80, rng=4, retry=RETRY)
            return out, faulty.iostats.snapshot(), metrics.render_json(registry)

        got = run_both(sample)
        assert_arrays_identical(got["scalar"][0], got["vector"][0])
        assert got["scalar"][1:] == got["vector"][1:]

    def test_faulty_file_without_retry_raises_identically(self):
        # Without a retry policy the *type guard* (not the fault knobs) is
        # what keeps production honest: FaultyHeapFile overrides read_page,
        # so batched reads must not bypass injection.
        policy = FaultPolicy(corrupt_fraction=0.5, seed=2)

        def sample():
            faulty = _faulty(policy)
            stream = BlockSampleStream(faulty, rng=np.random.default_rng(1))
            try:
                stream.take(100)
            except Exception as exc:  # noqa: BLE001 - compared with the oracle
                return type(exc).__name__, faulty.iostats.snapshot()
            return None, faulty.iostats.snapshot()

        got = run_both(sample)
        assert got["scalar"] == got["vector"]
        assert got["vector"][0] is not None


class TestResilientBoundaryDifferential:
    def test_healthy_file_with_retry_and_budget_identical(self):
        # retry/budget on a plain (fault-free) HeapFile: the resilient
        # path must produce exactly the unguarded path's sample and spend
        # nothing, in production and against the oracle.
        def sample():
            values = make_values("zipf", 12_000, 3)
            plain = heap_file(
                values,
                layout="random",
                rng=np.random.default_rng(4),
                blocking_factor=40,
            )
            tracker = ReadBudget(max_failed_reads=0).tracker()
            guarded = BlockSampleStream(
                plain,
                rng=np.random.default_rng(3),
                retry=RETRY,
                budget=tracker,
            )
            bare = BlockSampleStream(plain, rng=np.random.default_rng(3))
            return guarded.take(80), bare.take(80), tracker.snapshot()

        got = run_both(sample)
        for mode in ("scalar", "vector"):
            assert_arrays_identical(got[mode][0], got[mode][1])
            assert got[mode][2] == {
                "failed_reads": 0,
                "skipped_pages": 0,
                "simulated_s": 0.0,
            }
        assert_arrays_identical(got["scalar"][0], got["vector"][0])

    @staticmethod
    def _take_under_budget(policy: FaultPolicy):
        """take(120) under a five-failure budget; the state it ends in."""
        faulty = _faulty(policy, seed=2)
        tracker = ReadBudget(max_failed_reads=5).tracker()
        stream = BlockSampleStream(
            faulty,
            rng=np.random.default_rng(3),
            retry=RETRY,
            budget=tracker,
        )
        try:
            stream.take(120)
        except BuildAbortedError as exc:
            outcome, snapshot = "aborted", exc.snapshot
        else:
            outcome, snapshot = "completed", None
        return (
            outcome,
            snapshot,
            tracker.snapshot(),
            faulty.iostats.snapshot(),
            stream.pages_skipped,
            stream.pages_taken,
            stream.skipped_ids.tolist(),
            stream.taken_ids.tolist(),
        )

    def test_budget_abort_mid_batch_identical(self):
        # A tight budget that dies partway through a take under transient
        # and corrupt faults: both must abort at the same spend with the
        # same accounting and the same stream state.
        policy = FaultPolicy(transient_rate=0.4, corrupt_fraction=0.3, seed=13)
        got = run_both(lambda: self._take_under_budget(policy))
        assert got["scalar"] == got["vector"]
        assert got["vector"][0] == "aborted"
        assert got["vector"][1]["failed_reads"] > 5

    def test_corruption_only_budget_abort_mid_batch_identical(self):
        # Corruption only: production resolves the window in one batched
        # read, which aborts mid-window.  The stream must still consume
        # exactly the pages a per-page loop would have: the five skipped
        # pages and the aborting one, with no pages beyond it.
        policy = FaultPolicy(corrupt_fraction=0.3, seed=13)
        got = run_both(lambda: self._take_under_budget(policy))
        assert got["scalar"] == got["vector"]
        outcome, snapshot, _, iostats, skipped, taken = got["vector"][:6]
        assert outcome == "aborted"
        assert snapshot["failed_reads"] == 6
        assert (skipped, taken) == (5, 15)
        assert iostats["page_reads"] == 9


class TestCVBFaultDifferential:
    @pytest.mark.parametrize("policy", FAULTS)
    def test_cvb_under_faults_identical(self, policy):
        def build():
            faulty = _faulty(policy, seed=6)
            with metrics.collecting() as registry:
                result = cvb_build(
                    faulty, k=24, f=0.2, rng=8, retry=RETRY
                )
            return result, faulty.iostats.snapshot(), metrics.render_json(registry)

        got = run_both(build)
        scalar_result, vector_result = got["scalar"][0], got["vector"][0]
        assert_histograms_identical(
            scalar_result.histogram, vector_result.histogram
        )
        assert_arrays_identical(scalar_result.sample, vector_result.sample)
        assert scalar_result.pages_skipped == vector_result.pages_skipped
        assert scalar_result.converged == vector_result.converged
        assert_arrays_identical(
            scalar_result.sampled_pages, vector_result.sampled_pages
        )
        assert got["scalar"][1:] == got["vector"][1:]
