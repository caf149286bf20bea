"""RunCheckpoint: chunk splicing, key pinning, bit-identical resume."""

from __future__ import annotations

import base64
import math

import pytest

from repro.durability import RunCheckpoint, read_records
from repro.durability.runjournal import seeds_key
from repro.exceptions import CheckpointError
from repro.experiments.parallel import TrialPool
from repro.obs import metrics

RESUMED = "repro_pool_chunks_resumed_total"


class TestMapPlans:
    def test_fresh_plan_journals_the_chunking(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        plan = checkpoint.begin_map("k0", chunk_size=3, num_chunks=2)
        assert (plan.chunk_size, plan.completed) == (3, {})
        records, _, tail = read_records(tmp_path / "run.journal")
        assert tail is None
        assert records == [
            {"op": "map", "map": 0, "key": "k0", "chunk_size": 3, "chunks": 2}
        ]

    def test_recorded_chunks_come_back_on_resume(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        plan = checkpoint.begin_map("k0", chunk_size=2, num_chunks=2)
        plan.record(0, [(1.5, 0.0), (2.5, 0.0)])
        resumed = RunCheckpoint(tmp_path, resume=True)
        plan2 = resumed.begin_map("k0", chunk_size=2, num_chunks=2)
        assert plan2.completed == {0: [(1.5, 0.0), (2.5, 0.0)]}

    def test_journaled_chunk_size_wins_on_resume(self, tmp_path):
        RunCheckpoint(tmp_path).begin_map("k0", chunk_size=2, num_chunks=3)
        resumed = RunCheckpoint(tmp_path, resume=True)
        # A different worker count would derive chunk_size=5; the journal's
        # chunking must win so completed chunk indices keep lining up.
        plan = resumed.begin_map("k0", chunk_size=5, num_chunks=2)
        assert plan.chunk_size == 2

    def test_key_mismatch_raises_checkpoint_error(self, tmp_path):
        RunCheckpoint(tmp_path).begin_map("k0", chunk_size=2, num_chunks=1)
        resumed = RunCheckpoint(tmp_path, resume=True)
        with pytest.raises(CheckpointError):
            resumed.begin_map("other", chunk_size=2, num_chunks=1)

    def test_fresh_start_discards_an_existing_journal(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.begin_map("k0", chunk_size=2, num_chunks=1).record(
            0, [(1.0, 0.0)]
        )
        fresh = RunCheckpoint(tmp_path, resume=False)
        plan = fresh.begin_map("other", chunk_size=4, num_chunks=1)
        assert (plan.chunk_size, plan.completed) == (4, {})

    def test_torn_tail_is_truncated_on_resume(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        plan = checkpoint.begin_map("k0", chunk_size=1, num_chunks=2)
        plan.record(0, [(7.0, 0.0)])
        with open(tmp_path / "run.journal", "ab") as handle:
            handle.write(b"J1 0000")  # the kill landed mid-append
        resumed = RunCheckpoint(tmp_path, resume=True)
        plan2 = resumed.begin_map("k0", chunk_size=1, num_chunks=2)
        assert plan2.completed == {0: [(7.0, 0.0)]}
        _, _, tail = read_records(tmp_path / "run.journal")
        assert tail is None

    def test_chunk_of_other_code_is_a_checkpoint_error(self, tmp_path):
        # A chunk pickled by code that defined a class this code lacks
        # cannot be spliced back.
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.begin_map("k0", chunk_size=1, num_chunks=1)
        checkpoint._append(
            {
                "op": "chunk",
                "map": 0,
                "chunk": 0,
                "data": base64.b64encode(
                    b"crepro.experiments.parallel\nTrialRecord\n."
                ).decode("ascii"),
            }
        )
        with pytest.raises(CheckpointError, match="without --resume"):
            RunCheckpoint(tmp_path, resume=True)

    def test_seeds_key_is_order_and_value_sensitive(self):
        assert seeds_key([1, 2, 3]) == seeds_key([1, 2, 3])
        assert seeds_key([1, 2, 3]) != seeds_key([3, 2, 1])
        assert seeds_key([1, 2, 3]) != seeds_key([1, 2, 4])


class TestPoolResume:
    @staticmethod
    def _trial(calls):
        def fn(seed):
            calls.append(seed)
            return float(seed) * 1.5

        return fn

    def test_resumed_map_is_bit_identical_and_splices(self, tmp_path):
        seeds = list(range(10))
        reference = [float(s) * 1.5 for s in seeds]
        first_calls: list = []
        with metrics.collecting() as registry, TrialPool(
            max_workers=1, chunk_size=3, checkpoint=RunCheckpoint(tmp_path)
        ) as pool:
            first = pool.map(self._trial(first_calls), seeds)
        assert first == reference
        assert first_calls == seeds
        assert registry.counter_value(RESUMED) == 0

        resumed_calls: list = []
        with metrics.collecting() as registry, TrialPool(
            max_workers=1,
            chunk_size=3,
            checkpoint=RunCheckpoint(tmp_path, resume=True),
        ) as pool:
            second = pool.map(self._trial(resumed_calls), seeds)
        assert second == reference
        assert resumed_calls == []  # every chunk spliced from the journal
        assert registry.counter_value(RESUMED) == math.ceil(len(seeds) / 3)

    def test_interrupted_map_resumes_where_it_died(self, tmp_path):
        seeds = list(range(8))
        armed = {"on": True}
        calls: list = []

        def fn(seed):
            if armed["on"] and seed == 5:
                raise RuntimeError("simulated death")
            calls.append(seed)
            return float(seed) * 1.5

        with TrialPool(
            max_workers=1, chunk_size=2, checkpoint=RunCheckpoint(tmp_path)
        ) as pool:
            with pytest.raises(RuntimeError):
                pool.map(fn, seeds)
        completed_before = list(calls)
        assert completed_before == [0, 1, 2, 3, 4]  # died inside chunk 2

        armed["on"] = False
        calls.clear()
        with metrics.collecting() as registry, TrialPool(
            max_workers=1,
            chunk_size=2,
            checkpoint=RunCheckpoint(tmp_path, resume=True),
        ) as pool:
            results = pool.map(fn, seeds)
        assert results == [float(s) * 1.5 for s in seeds]
        # Only the chunk that died (4, 5) and the never-started ones re-ran.
        assert calls == [4, 5, 6, 7]
        assert registry.counter_value(RESUMED) == 2

    def test_resume_with_different_seeds_refuses(self, tmp_path):
        with TrialPool(
            max_workers=1, chunk_size=2, checkpoint=RunCheckpoint(tmp_path)
        ) as pool:
            pool.map(lambda s: float(s), list(range(4)))
        with TrialPool(
            max_workers=1,
            chunk_size=2,
            checkpoint=RunCheckpoint(tmp_path, resume=True),
        ) as pool:
            with pytest.raises(CheckpointError):
                pool.map(lambda s: float(s), list(range(1, 5)))
