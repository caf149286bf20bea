"""The catalog crash matrix: a test helper for the durability layer.

:func:`catalog_crash_matrix` sweeps *every* durable write operation of a
scripted catalog workload (puts, drops, checkpoints) as a crash point, in
both ``torn`` (payload cut short) and ``corrupt`` (CRC-breaking bit flip)
flavors, via :class:`repro.storage.faults.WriteFaultPolicy`.  After each
simulated death the store is reopened and the recovered state is compared
against the **prefix state** — the catalog contents after the last script
step that fully completed.  That is the last-known-good contract: a crash
may lose the in-flight mutation, never a committed one, and reopening
never raises.

The matrix is deterministic: crash points are enumerated (not sampled),
and the corrupting bit flip is seeded per op through the counter-based
fault stream.  The real-process twin, a SIGKILLed and resumed figure
sweep, is ``tests/durability/test_kill_resume.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.durability import CatalogStore
from repro.engine.serialization import statistics_to_dict
from repro.exceptions import SimulatedCrashError
from repro.storage.faults import WriteFaultPolicy


@dataclass(frozen=True)
class CrashOutcome:
    """Verdict of one (crash point, flavor) cell of the matrix."""

    #: Durable write operation the simulated death landed on.
    op_index: int
    #: ``"torn"`` (short write) or ``"corrupt"`` (CRC-breaking bit flip).
    flavor: str
    #: Whether the workload actually died at this op (late crash points
    #: fall beyond the workload's op count and complete normally).
    crashed: bool
    #: Script steps that fully completed before the death.
    completed_steps: int
    #: Recovery kinds the reopen reported (``CatalogStore.recoveries``).
    recoveries: dict
    #: True when the reopened state equals the completed-prefix state.
    consistent: bool


def state_fingerprint(catalog) -> dict:
    """Deterministic (version, payload) fingerprint of a catalog's state."""
    return {
        f"{table}.{column}": (
            catalog.version(table, column),
            json.dumps(
                statistics_to_dict(catalog.get(table, column)),
                sort_keys=True,
            ),
        )
        for table, column in catalog.keys()
    }


def _script_steps(bundles) -> list:
    """The scripted workload the matrix sweeps: puts, checkpoints, a drop.

    Covers every durable-operation shape the store has: journal appends
    for put and drop, the snapshot write, the snapshot-to-truncation
    window, and a second checkpoint over a journal that saw post-snapshot
    mutations.
    """
    steps = [(lambda store, s=stats: store.put(s)) for stats in bundles]
    steps.append(lambda store: store.checkpoint())
    first = bundles[0]
    steps.append(
        lambda store: store.drop(first.table_name, first.column_name)
    )
    steps.extend(
        (lambda store, s=stats: store.put(s)) for stats in bundles[:2]
    )
    steps.append(lambda store: store.checkpoint())
    return steps


def catalog_crash_matrix(
    bundles,
    root: str | os.PathLike,
    flavors: tuple[str, ...] = ("torn", "corrupt"),
) -> list[CrashOutcome]:
    """Crash the scripted workload at every durable op; verify recovery.

    *bundles* are :class:`~repro.engine.statistics.ColumnStatistics` with
    distinct ``(table, column)`` identities (two or more); *root* is a
    scratch directory receiving one subdirectory per matrix cell.  Every
    reopen is performed fault-free — recovery itself must never raise —
    and every outcome's ``consistent`` flag asserts the last-known-good
    contract.  Callers check ``all(o.consistent for o in outcomes)``.
    """
    root = Path(root)
    baseline = CatalogStore(root / "baseline", write_faults=WriteFaultPolicy())
    steps = _script_steps(bundles)
    prefixes = [state_fingerprint(baseline.catalog)]
    for step in steps:
        step(baseline)
        prefixes.append(state_fingerprint(baseline.catalog))
    total_ops = baseline._injector.ops

    outcomes = []
    for flavor in flavors:
        for op_index in range(total_ops):
            policy = WriteFaultPolicy(
                crash_at_op=op_index,
                torn_fraction=0.5 if flavor == "torn" else 1.0,
                corrupt_tail=flavor == "corrupt",
                seed=op_index,
            )
            directory = root / f"{flavor}-{op_index:03d}"
            store = CatalogStore(directory, write_faults=policy)
            completed = 0
            crashed = False
            try:
                for step in steps:
                    step(store)
                    completed += 1
            except SimulatedCrashError:
                crashed = True
            reopened = CatalogStore(directory)
            outcomes.append(
                CrashOutcome(
                    op_index=op_index,
                    flavor=flavor,
                    crashed=crashed,
                    completed_steps=completed,
                    recoveries=dict(reopened.recoveries),
                    consistent=(
                        state_fingerprint(reopened.catalog)
                        == prefixes[completed]
                    ),
                )
            )
    return outcomes
