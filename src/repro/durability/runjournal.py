"""Run journal: chunk-level checkpointing for TrialPool sweeps.

A figure sweep is a deterministic sequence of :meth:`TrialPool.map`
calls, each over seeds spawned up front (:func:`repro._rng.spawn_seeds`).
That structure makes resume trivial to get *bit-identical*: key every
map by its position in the call sequence plus a digest of its seeds,
journal each completed chunk's results, and on resume splice journaled
chunks back while re-running only the missing ones.  Because chunk
results are pure functions of ``(fn, seeds)``, the spliced output equals
an uninterrupted run element-for-element.

On disk a checkpoint directory holds one ``run.journal``
(:mod:`repro.durability.journal` CRC framing — a SIGKILL mid-append is
truncated away on resume).  Records:

- ``{"op": "map", "map": i, "key": digest, "chunk_size": c, "chunks": n}``
  — written when map *i* first plans its chunking; on resume the
  journaled ``chunk_size`` wins over the current worker count's default
  so chunk boundaries (and therefore chunk keys) line up.
- ``{"op": "chunk", "map": i, "chunk": j, "data": base64-pickle}``
  — the timed results of chunk *j*, appended the moment it completes.
- ``{"op": "quarantine", "map": i, "chunk": j, "error": msg}``
  — a poison chunk that exhausted its re-dispatch budget.

Resuming with different sweep parameters would splice foreign results,
so a key mismatch raises :class:`~repro.exceptions.CheckpointError`.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
from pathlib import Path

from ..exceptions import CheckpointError
from ..obs import metrics as _metrics
from . import journal as _journal

__all__ = ["RunCheckpoint", "MapPlan"]


def seeds_key(seeds) -> str:
    """Stable digest identifying one map's seed sequence."""
    return hashlib.sha256(repr(list(seeds)).encode("utf-8")).hexdigest()[:16]


class MapPlan:
    """One map call's slice of the run journal.

    Produced by :meth:`RunCheckpoint.begin_map`; exposes the (possibly
    journaled) ``chunk_size``, the chunks already ``completed`` on a
    previous run, and :meth:`record` / :meth:`quarantine` appenders.
    """

    def __init__(
        self,
        checkpoint: "RunCheckpoint",
        map_index: int,
        chunk_size: int,
        completed: dict[int, list],
    ):
        self._checkpoint = checkpoint
        self.map_index = map_index
        self.chunk_size = chunk_size
        self.completed = completed

    def record(self, chunk_index: int, timed: list) -> None:
        """Durably journal one completed chunk's timed results."""
        data = base64.b64encode(pickle.dumps(timed)).decode("ascii")
        self._checkpoint._append(
            {
                "op": "chunk",
                "map": self.map_index,
                "chunk": chunk_index,
                "data": data,
            }
        )

    def quarantine(self, chunk_index: int, error: str) -> None:
        """Journal a poison chunk so post-mortems know what was dropped."""
        self._checkpoint._append(
            {
                "op": "quarantine",
                "map": self.map_index,
                "chunk": chunk_index,
                "error": error,
            }
        )


class RunCheckpoint:
    """Durable chunk cache for a deterministic sequence of pool maps.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing) holding ``run.journal``.
    resume:
        When true, previously journaled chunks are loaded and served; the
        journal's damaged tail (if the process died mid-append) is
        truncated first.  When false, any existing journal is discarded
        and the run starts clean.

    One instance spans one CLI invocation; pass it to
    :class:`repro.experiments.parallel.TrialPool` (or through the figure
    and chaos drivers' ``checkpoint`` parameter).
    """

    JOURNAL_NAME = "run.journal"

    def __init__(self, directory: str | os.PathLike, resume: bool = False):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._path = self._dir / self.JOURNAL_NAME
        self._map_counter = 0
        self._metas: dict[int, dict] = {}
        self._chunks: dict[int, dict[int, list]] = {}
        self.resumed = bool(resume)
        if resume:
            self._load()
        elif self._path.exists():
            _journal.truncate_to(self._path, 0)

    def _load(self) -> None:
        records, clean_bytes, tail = _journal.read_records(self._path)
        if tail is not None:
            # The kill landed mid-append; the torn frame never completed,
            # so it is not a completed chunk. Drop it and re-run that chunk.
            _journal.truncate_to(self._path, clean_bytes)
        for record in records:
            op = record.get("op")
            if op == "map":
                self._metas[int(record["map"])] = record
            elif op == "chunk":
                try:
                    timed = pickle.loads(base64.b64decode(record["data"]))
                except (AttributeError, ImportError) as exc:
                    # Chunk data pickles the trial values of the code that
                    # wrote it; other code may not define their classes.
                    raise CheckpointError(
                        f"{self._path}: chunk {record['chunk']} of map "
                        f"{record['map']} cannot be loaded by this code "
                        f"({exc}); run the sweep again without --resume"
                    ) from None
                self._chunks.setdefault(int(record["map"]), {})[
                    int(record["chunk"])
                ] = timed

    def _append(self, record: dict) -> None:
        _journal.append_record(self._path, record, kind="run_journal")

    def begin_map(self, key: str, chunk_size: int, num_chunks: int) -> MapPlan:
        """Open the journal slice for the next map in call order.

        *key* is :func:`seeds_key` of the map's seeds; *chunk_size* and
        *num_chunks* describe the chunking the caller would use from
        scratch.  On resume, a journaled plan for this position must
        match the key (else :class:`~repro.exceptions.CheckpointError`)
        and its chunking wins, so completed chunks line up even if the
        worker count changed.
        """
        map_index = self._map_counter
        self._map_counter += 1
        meta = self._metas.get(map_index)
        if meta is not None:
            if meta.get("key") != key:
                raise CheckpointError(
                    f"checkpoint mismatch at map {map_index}: journal has "
                    f"key {meta.get('key')!r}, this run derived {key!r} — "
                    "the checkpoint belongs to a different sweep "
                    "(different seeds, scale or trial counts)"
                )
            completed = dict(self._chunks.get(map_index, {}))
            if completed:
                _metrics.inc(
                    "repro_pool_chunks_resumed_total", len(completed)
                )
            return MapPlan(self, map_index, int(meta["chunk_size"]), completed)
        self._append(
            {
                "op": "map",
                "map": map_index,
                "key": key,
                "chunk_size": chunk_size,
                "chunks": num_chunks,
            }
        )
        return MapPlan(self, map_index, chunk_size, {})
