"""TrialPool resilience: worker deaths, wedged workers, poison chunks.

The trial callables here communicate with their worker processes through
sentinel files (the seeds are ``(value, sentinel_dir)`` tuples), so a
"crash exactly once, then succeed" script is deterministic across the
re-dispatch that follows the first death.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.durability import RunCheckpoint, read_records
from repro.exceptions import TaskQuarantinedError
from repro.experiments.parallel import TrialPool
from repro.obs import metrics
from repro.storage.heapfile import HeapFile


def _die_once_trial(token):
    """Kill the worker the first time seed 13 is attempted; then succeed."""
    seed, sentinel_dir = token
    if seed == 13:
        sentinel = os.path.join(sentinel_dir, "died-once")
        if not os.path.exists(sentinel):
            with open(sentinel, "x"):
                pass
            os._exit(1)  # SIGKILL-grade death: no exception, no cleanup
    return float(seed) * 2.0


def _always_die_trial(token):
    """A poison task: kills its worker on every dispatch."""
    seed, _ = token
    if seed == 13:
        os._exit(1)
    return float(seed) * 2.0


def _wedge_once_trial(token):
    """Wedge (sleep far past the heartbeat) the first time; then succeed."""
    seed, sentinel_dir = token
    if seed == 13:
        sentinel = os.path.join(sentinel_dir, "wedged-once")
        if not os.path.exists(sentinel):
            with open(sentinel, "x"):
                pass
            time.sleep(120.0)
    return float(seed) * 2.0


def _read_then_fail_trial(token):
    """Read one page; seed 13 raises once the three other trials are done."""
    seed, sentinel_dir = token
    if seed == 13:
        deadline = time.monotonic() + 30.0
        while len(os.listdir(sentinel_dir)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let the parent collect those chunks first
        raise ValueError("trial 13 failed")
    HeapFile(np.arange(10), blocking_factor=10).read_page(0)
    with open(os.path.join(sentinel_dir, f"done-{seed}"), "x"):
        pass
    return float(seed)


def _tokens(tmp_path):
    return [(seed, str(tmp_path)) for seed in (1, 13, 3, 4)]


EXPECTED = [2.0, 26.0, 6.0, 8.0]


class TestWorkerLoss:
    @pytest.mark.parametrize("heartbeat_s", [60.0, None])
    def test_worker_crash_redispatches_deterministically(
        self, tmp_path, heartbeat_s
    ):
        # Re-dispatch needs neither a heartbeat nor a checkpoint: every
        # parallel map survives a dead worker.
        with TrialPool(
            max_workers=2, chunk_size=1, heartbeat_s=heartbeat_s
        ) as pool:
            results = pool.map(_die_once_trial, _tokens(tmp_path))
        assert results == EXPECTED
        assert (tmp_path / "died-once").exists()

    def test_heartbeat_timeout_redispatches(self, tmp_path):
        with TrialPool(max_workers=2, chunk_size=1, heartbeat_s=1.0) as pool:
            results = pool.map(_wedge_once_trial, _tokens(tmp_path))
        assert results == EXPECTED
        assert (tmp_path / "wedged-once").exists()

    def test_crash_recovery_composes_with_checkpointing(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        with TrialPool(
            max_workers=2,
            chunk_size=1,
            heartbeat_s=60.0,
            checkpoint=RunCheckpoint(checkpoint_dir),
        ) as pool:
            results = pool.map(_die_once_trial, _tokens(tmp_path))
        assert results == EXPECTED
        records, _, tail = read_records(checkpoint_dir / "run.journal")
        assert tail is None
        chunk_records = [r for r in records if r.get("op") == "chunk"]
        assert sorted(r["chunk"] for r in chunk_records) == [0, 1, 2, 3]


class TestWorkerMetrics:
    def test_raising_trial_keeps_completed_chunks_metrics(self, tmp_path):
        # The chunks that finished before a trial raised are journaled, so
        # their worker-side counters must reach the parent's registry too.
        done_dir = tmp_path / "done"
        done_dir.mkdir()
        checkpoint_dir = tmp_path / "ckpt"
        tokens = [(seed, str(done_dir)) for seed in (1, 13, 3, 4)]
        with metrics.collecting() as registry:
            with TrialPool(
                max_workers=2,
                chunk_size=1,
                checkpoint=RunCheckpoint(checkpoint_dir),
            ) as pool:
                with pytest.raises(ValueError, match="trial 13 failed"):
                    pool.map(_read_then_fail_trial, tokens)
        records, _, _ = read_records(checkpoint_dir / "run.journal")
        journaled = [r for r in records if r.get("op") == "chunk"]
        assert journaled
        assert registry.counter_value("repro_page_reads_total") == len(
            journaled
        )


class TestQuarantine:
    def test_poison_chunk_is_quarantined(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        with TrialPool(
            max_workers=2,
            chunk_size=1,
            heartbeat_s=60.0,
            max_redispatch=1,
            checkpoint=RunCheckpoint(checkpoint_dir),
        ) as pool:
            with pytest.raises(TaskQuarantinedError) as excinfo:
                pool.map(_always_die_trial, _tokens(tmp_path))
        # The poison chunk is identified, and its seeds ship in the error
        # so the failure can be reproduced serially.
        assert excinfo.value.chunk_index == 1
        assert excinfo.value.seeds == [(13, str(tmp_path))]
        records, _, _ = read_records(checkpoint_dir / "run.journal")
        quarantined = [r for r in records if r.get("op") == "quarantine"]
        assert [q["chunk"] for q in quarantined] == [1]

    def test_zero_redispatch_budget_quarantines_immediately(self, tmp_path):
        with TrialPool(
            max_workers=2, chunk_size=1, heartbeat_s=60.0, max_redispatch=0
        ) as pool:
            with pytest.raises(TaskQuarantinedError):
                pool.map(_always_die_trial, _tokens(tmp_path))
