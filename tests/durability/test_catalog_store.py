"""CatalogStore: snapshot+journal persistence and last-known-good recovery."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.durability import CatalogStore
from repro.durability.journal import read_records
from repro.engine import StatisticsManager, Table
from repro.engine.serialization import statistics_to_dict
from repro.exceptions import SimulatedCrashError
from repro.storage.faults import WriteFaultPolicy

from .crash_matrix import catalog_crash_matrix, state_fingerprint


@pytest.fixture(scope="module")
def bundles():
    """Three ColumnStatistics with distinct column identities."""
    rng = np.random.default_rng(99)
    table = Table("t", {"value": rng.integers(0, 500, size=4000)})
    base = StatisticsManager().analyze(
        table,
        "value",
        k=10,
        f=0.25,
        method="record",
        record_sample_size=200,
        rng=12,
    )
    return [dataclasses.replace(base, column_name=f"c{i}") for i in range(3)]


class TestRoundTrip:
    def test_puts_survive_reopen_via_journal(self, tmp_path, bundles):
        store = CatalogStore(tmp_path)
        for stats in bundles:
            store.put(stats)
        reopened = CatalogStore(tmp_path)
        assert len(reopened.catalog) == 3
        assert reopened.replayed == 3
        for stats in bundles:
            got = reopened.catalog.get("t", stats.column_name)
            assert statistics_to_dict(got) == statistics_to_dict(stats)
            assert reopened.catalog.version("t", stats.column_name) == 1

    def test_checkpoint_folds_journal_into_snapshot(self, tmp_path, bundles):
        store = CatalogStore(tmp_path)
        for stats in bundles:
            store.put(stats)
        store.checkpoint()
        assert (tmp_path / CatalogStore.JOURNAL_NAME).stat().st_size == 0
        reopened = CatalogStore(tmp_path)
        assert reopened.replayed == 0
        assert len(reopened.catalog) == 3
        assert reopened.recoveries == {}

    def test_post_checkpoint_mutations_replay(self, tmp_path, bundles):
        store = CatalogStore(tmp_path)
        for stats in bundles:
            store.put(stats)
        store.checkpoint()
        assert store.put(bundles[0]) == 2  # replace bumps the version
        store.drop("t", bundles[1].column_name)
        reopened = CatalogStore(tmp_path)
        assert reopened.replayed == 2
        assert reopened.catalog.version("t", bundles[0].column_name) == 2
        assert ("t", bundles[1].column_name) not in reopened.catalog
        assert state_fingerprint(reopened.catalog) == state_fingerprint(
            store.catalog
        )

    def test_durable_catalog_routes_manager_analyze(self, tmp_path):
        rng = np.random.default_rng(3)
        table = Table("u", {"v": rng.integers(0, 100, size=2000)})
        store = CatalogStore(tmp_path)
        manager = StatisticsManager(catalog=store.catalog)
        manager.analyze(
            table, "v", k=8, f=0.25, method="record",
            record_sample_size=100, rng=5,
        )
        reopened = CatalogStore(tmp_path)
        assert ("u", "v") in reopened.catalog


class TestCrashRecovery:
    def test_crash_between_snapshot_and_truncation_is_idempotent(
        self, tmp_path, bundles
    ):
        # Ops: 3 journal appends (0-2), snapshot write (3), truncation (4).
        policy = WriteFaultPolicy(crash_at_op=4)
        store = CatalogStore(tmp_path, write_faults=policy)
        for stats in bundles:
            store.put(stats)
        with pytest.raises(SimulatedCrashError):
            store.checkpoint()
        # The stale journal records survive alongside the new snapshot ...
        assert (tmp_path / CatalogStore.JOURNAL_NAME).stat().st_size > 0
        reopened = CatalogStore(tmp_path)
        # ... but seq <= last_seq keeps replay from double-applying them.
        assert reopened.replayed == 0
        assert state_fingerprint(reopened.catalog) == state_fingerprint(
            store.catalog
        )

    def test_scribbled_snapshot_falls_back_to_journal(self, tmp_path, bundles):
        store = CatalogStore(tmp_path)
        for stats in bundles:
            store.put(stats)
        store.checkpoint()
        store.put(dataclasses.replace(bundles[0], column_name="fresh"))
        # Atomic writes cannot produce this; model a scribbled disk.
        (tmp_path / CatalogStore.SNAPSHOT_NAME).write_bytes(b"\x00 not json")
        reopened = CatalogStore(tmp_path)
        assert reopened.recoveries == {"corrupt_snapshot": 1}
        # The snapshot's entries are gone (nothing to recover them from),
        # but the journaled post-checkpoint put still replays.
        assert reopened.replayed == 1
        assert ("t", "fresh") in reopened.catalog

    def test_leftover_tmp_snapshot_is_discarded(self, tmp_path, bundles):
        store = CatalogStore(tmp_path)
        store.put(bundles[0])
        store.checkpoint()
        tmp = tmp_path / (CatalogStore.SNAPSHOT_NAME + ".tmp")
        tmp.write_bytes(b"half-written garbage")
        reopened = CatalogStore(tmp_path)
        assert not tmp.exists()
        assert reopened.recoveries == {"torn_snapshot": 1}
        assert ("t", bundles[0].column_name) in reopened.catalog


class TestCrashMatrix:
    def test_every_crash_point_recovers_to_last_known_good(
        self, tmp_path, bundles
    ):
        outcomes = catalog_crash_matrix(bundles, tmp_path)
        assert outcomes, "matrix swept no crash points"
        assert all(o.crashed for o in outcomes)
        bad = [o for o in outcomes if not o.consistent]
        assert not bad, f"inconsistent recoveries: {bad}"
        # Both flavors swept every durable op of the scripted workload.
        ops = {o.op_index for o in outcomes}
        flavors = {o.flavor for o in outcomes}
        assert flavors == {"torn", "corrupt"}
        assert ops == set(range(len(ops)))
        # The sweep exercised journal and snapshot recovery paths alike.
        kinds = {k for o in outcomes for k in o.recoveries}
        assert "torn_journal" in kinds
        assert "torn_snapshot" in kinds
        assert "corrupt_journal" in kinds


class TestConcurrentPuts:
    def test_journal_order_is_sequence_and_version_order(
        self, tmp_path, bundles, contended
    ):
        store = CatalogStore(tmp_path)
        contended(lambda _: [store.put(bundles[0]) for _ in range(100)])
        puts = contended.threads * 100
        records, _, tail = read_records(tmp_path / CatalogStore.JOURNAL_NAME)
        assert tail is None
        assert [r["seq"] for r in records] == list(range(1, puts + 1))
        assert [r["version"] for r in records] == list(range(1, puts + 1))
        reopened = CatalogStore(tmp_path)
        assert reopened.catalog.version("t", "c0") == puts
