"""Deterministic parallel trial engine.

Every figure and theorem validation in this reproduction averages over
independent Monte-Carlo trials.  :class:`TrialPool` runs those trials across
a process pool while guaranteeing **bit-identical results to the serial
loop** for any worker count:

- the caller derives one integer seed per trial *up front* (via
  :func:`repro._rng.spawn_seeds`, i.e. before any work is distributed), so
  trial ``i``'s randomness depends only on its own seed, never on which
  worker ran it or in what order.  A numpy ``Generator`` or
  ``BitGenerator`` passed as a seed is rejected before anything runs:
  trials sharing one would draw from it in turn in-process but each get
  a fresh copy in a worker;
- results are reassembled in submission order, so ``pool.map(fn, seeds)``
  equals ``[fn(s) for s in seeds]`` element-for-element.

``map`` transparently falls back to an in-process sequential loop when
``max_workers=1``, when there is at most one trial, or when the callable /
seeds cannot be pickled (closures, lambdas, bound locals) — the fallback
produces the same floats, just without the fan-out.  A parallel map
survives worker loss: once a worker dies, the map runs its remaining
chunks one at a time, so a chunk that keeps killing its workers is the one
quarantined.

What a map spent is recorded in the metrics registry and nowhere else:
the ``repro_pool_*`` metrics, the page reads its trials count (a parallel
map merges each chunk's worker registry into the parent's), and the
``pool.map`` span with the map's trials, mode and chunks.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import ParameterError, TaskQuarantinedError
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["TrialPool", "run_trials"]

#: Re-dispatches a lost chunk gets before it is quarantined as a poison task.
_MAX_REDISPATCH = 2


def _positive_int(name: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"{name} must be a positive int, got {value!r}")
    return value


def _run_chunk(
    fn: Callable[[Any], Any],
    seeds: Sequence[Any],
    collect_metrics: bool = False,
) -> tuple[list[tuple], dict | None]:
    """Worker-side kernel: run *fn* over a chunk of seeds, timing each.

    With *collect_metrics*, the chunk runs under a fresh worker-local
    metrics registry whose snapshot is returned alongside the results, so
    the parent can merge worker-side emissions (page reads, CVB rounds,
    fault events) into its own registry — giving identical aggregate
    metrics for any worker count.
    """
    out = []

    def _loop() -> None:
        for seed in seeds:
            # Wall-clock observability only: durations feed the
            # repro_pool_trial_seconds histogram, never trial results.
            start = time.perf_counter()  # repro: noqa[DET002]
            value = fn(seed)
            elapsed = time.perf_counter() - start  # repro: noqa[DET002]
            out.append((value, elapsed))

    if collect_metrics:
        with _metrics.collecting() as registry:
            _loop()
        return out, registry.snapshot()
    _loop()
    return out, None


def _run_shipped_chunk(
    shipped: bytes, start: int, stop: int, collect_metrics: bool
) -> tuple[list[tuple], dict | None]:
    """Worker entry point: :func:`_run_chunk` over ``seeds[start:stop]`` of
    the map's pickled ``(fn, seeds)``."""
    fn, seeds = pickle.loads(shipped)
    return _run_chunk(fn, seeds[start:stop], collect_metrics)


def _exit_with_parent() -> None:
    """Worker initializer: end the worker once the pool's owner is gone.

    A SIGKILLed owner never shuts its pool down, and a forked worker holds
    its own copy of the task pipe, so it would wait on that pipe forever.
    A daemon thread waits on the owner's process sentinel instead and exits
    the worker when it fires.  The sentinel names the owner under every
    start method; the parent pid does not, since under ``forkserver`` (the
    Linux default from Python 3.14) it is the fork server's, which lives on
    while any of its workers does.
    """
    owner = multiprocessing.parent_process()

    def _watch() -> None:
        owner.join()  # returns once the owner's sentinel reports its exit
        os._exit(1)

    threading.Thread(target=_watch, daemon=True).start()


def _check_seeds(seeds: list) -> None:
    """Reject numpy generators among *seeds*, or inside a tuple seed."""
    for index, seed in enumerate(seeds):
        for part in seed if isinstance(seed, tuple) else (seed,):
            if isinstance(part, (np.random.Generator, np.random.BitGenerator)):
                raise ParameterError(
                    f"seed {index} holds a numpy {type(part).__name__}; a "
                    "generator cannot cross a trial boundary (serial and "
                    "parallel maps would draw different streams from it), "
                    "so pass spawn_seeds(rng, n) ints instead"
                )


def _pickled(obj: Any) -> bytes | None:
    """*obj* pickled, or ``None`` when it does not pickle."""
    try:
        return pickle.dumps(obj)
    except Exception:
        return None


class TrialPool:
    """A deterministic trial mapper over an optional process pool.

    Parameters
    ----------
    max_workers:
        Worker processes every :meth:`map` fans out over; the default 1 is
        the in-process loop.
    chunk_size:
        Trials per worker task (and per journal record with a
        checkpoint); ``None`` picks ``ceil(trials / (4 * workers))`` so
        stragglers rebalance.
    checkpoint:
        Optional :class:`repro.durability.RunCheckpoint`.  Every map is
        then journaled chunk-by-chunk (even in serial mode, so a kill at
        any point loses at most one chunk), and chunks already journaled
        by a previous run are spliced back instead of re-executed —
        bit-identical to an uninterrupted run, because chunk results are
        pure functions of ``(fn, seeds)``.

    A dead worker fails every chunk in flight, so a parallel map cannot
    tell which chunk killed it.  The map then runs its remaining chunks
    one at a time, lowest index first, and charges each later crash to
    the one chunk that was running; a chunk lost on three dispatches is
    quarantined via :class:`~repro.exceptions.TaskQuarantinedError`.  The
    next map starts with all of its chunks in flight again.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first parallel ``map`` and reused across calls
    (figure sweeps issue many small maps); use the pool as a context manager
    or call :meth:`close` to release the workers.
    """

    def __init__(
        self,
        max_workers: int = 1,
        chunk_size: int | None = None,
        checkpoint=None,
    ):
        self.max_workers = _positive_int("max_workers", max_workers)
        self.chunk_size = (
            None if chunk_size is None
            else _positive_int("chunk_size", chunk_size)
        )
        self.checkpoint = checkpoint
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker processes (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            _metrics.inc(
                "repro_pool_executor_events_total", event="stopped"
            )

    def _terminate(self) -> None:
        """Tear the pool down hard: kill workers, drop the executor.

        Used on the failure path (worker crash, ``KeyboardInterrupt``): a
        graceful ``shutdown(wait=True)`` would block behind whatever the
        surviving workers are still chewing on, turning one poisoned trial
        into a hang.  Terminating loses the warm pool, which is the right
        trade when the map is being abandoned anyway; the next parallel
        ``map`` starts a fresh executor.
        """
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        _metrics.inc("repro_pool_executor_events_total", event="terminated")
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_exit_with_parent
            )
            _metrics.inc(
                "repro_pool_executor_events_total", event="started"
            )
        return self._executor

    # ------------------------------------------------------------------
    # Resilient / checkpointed mapping
    # ------------------------------------------------------------------

    def _map_chunked(
        self,
        fn: Callable[[Any], Any],
        seeds: list,
        shipped: bytes | None,
    ) -> tuple[list, int]:
        """Chunk-at-a-time map with checkpointing and lost-worker recovery.

        Every :meth:`map` runs through here.  A serial map without a
        checkpoint is one in-process chunk.  Otherwise chunks journaled by
        a previous run splice straight back; the rest run and are journaled
        as they complete.  They run in parallel when *shipped*,
        ``(fn, seeds)`` pickled once for the whole map, is given; every
        chunk's task carries those bytes and its slice bounds.  Because
        every chunk's result is a pure function of ``(fn, seeds)``, the
        reassembled output is bit-identical to the serial loop for any
        worker count, worker loss or interruption/resume pattern.

        Returns ``(timed, num_chunks)``.
        """
        use_processes = shipped is not None
        if not use_processes and self.checkpoint is None:
            timed, _ = _run_chunk(fn, seeds)
            return timed, 1
        chunk = self.chunk_size
        if chunk is None:
            divisor = 4 * self.max_workers if use_processes else 4
            chunk = max(1, math.ceil(len(seeds) / divisor)) if seeds else 1
        plan = None
        if self.checkpoint is not None:
            from ..durability import runjournal as _runjournal

            num_chunks = math.ceil(len(seeds) / chunk) if seeds else 0
            plan = self.checkpoint.begin_map(
                _runjournal.seeds_key(seeds), chunk, num_chunks
            )
            chunk = plan.chunk_size
        chunks = [seeds[i : i + chunk] for i in range(0, len(seeds), chunk)]
        timed_by_chunk: dict[int, list] = {}
        if plan is not None:
            for index in sorted(plan.completed):
                if index < len(chunks):
                    timed_by_chunk[index] = plan.completed[index]
        pending = {
            index: chunks[index]
            for index in range(len(chunks))
            if index not in timed_by_chunk
        }
        if use_processes:
            self._run_pending_parallel(
                shipped, chunk, pending, timed_by_chunk, plan
            )
        else:
            for index in sorted(pending):
                chunk_timed, _ = _run_chunk(fn, pending[index])
                timed_by_chunk[index] = chunk_timed
                if plan is not None:
                    plan.record(index, chunk_timed)
        timed = [
            item
            for index in range(len(chunks))
            for item in timed_by_chunk[index]
        ]
        return timed, len(chunks)

    def _run_pending_parallel(
        self,
        shipped: bytes,
        chunk: int,
        pending: dict[int, list],
        timed_by_chunk: dict[int, list],
        plan,
    ) -> None:
        """Drive *pending* chunks to completion across worker losses.

        The first round submits every pending chunk; after a worker dies,
        one chunk at a time (see the class docstring).  Re-dispatch is
        deterministic, since re-running a chunk reproduces its results
        exactly.  Worker-side metrics merge in chunk order when the drive
        ends, however it ends, so the aggregate does not depend on
        completion order.
        """
        dispatches = dict.fromkeys(pending, 0)
        metrics_by_chunk: dict[int, dict] = {}
        one_at_a_time = False
        try:
            while pending:
                batch = sorted(pending)
                if one_at_a_time:
                    batch = batch[:1]
                collect = _metrics.enabled()
                executor = self._get_executor()
                futures = {}
                try:
                    # A worker can die while later chunks are still being
                    # submitted; submit then raises BrokenProcessPool too.
                    for index in batch:
                        start = index * chunk
                        future = executor.submit(
                            _run_shipped_chunk,
                            shipped,
                            start,
                            start + len(pending[index]),
                            collect,
                        )
                        futures[future] = index
                        dispatches[index] += 1
                    for future in as_completed(futures):
                        index = futures[future]
                        chunk_timed, chunk_metrics = future.result()
                        timed_by_chunk[index] = chunk_timed
                        del pending[index]
                        if plan is not None:
                            plan.record(index, chunk_timed)
                        if chunk_metrics is not None:
                            metrics_by_chunk[index] = chunk_metrics
                except BrokenExecutor:
                    # A worker died (SIGKILL, segfault): every future in
                    # flight fails with BrokenProcessPool, whichever chunk
                    # killed it.
                    self._terminate()
                    lost = sorted(
                        index for index in futures.values() if index in pending
                    )
                    for index in lost:
                        if dispatches[index] > _MAX_REDISPATCH:
                            if plan is not None:
                                plan.quarantine(
                                    index, "workers lost repeatedly"
                                )
                            _metrics.inc("repro_pool_tasks_quarantined_total")
                            raise TaskQuarantinedError(
                                f"chunk {index} lost its workers "
                                f"{dispatches[index]} time(s); quarantined as "
                                f"a poison task after {_MAX_REDISPATCH} "
                                "re-dispatch(es)",
                                chunk_index=index,
                                seeds=pending[index],
                            ) from None
                    _metrics.inc(
                        "repro_pool_chunks_redispatched_total",
                        len(lost),
                        reason="crash",
                    )
                    one_at_a_time = True
                except BaseException:
                    # A trial raised, or the user hit Ctrl-C: surface it,
                    # don't re-dispatch.
                    self._terminate()
                    raise
        finally:
            # Completed chunks count even when a trial raises or a chunk is
            # quarantined, as their results are already journaled.
            if _metrics.enabled():
                for index in sorted(metrics_by_chunk):
                    _metrics.active_registry().merge_snapshot(
                        metrics_by_chunk[index]
                    )

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], seeds: Sequence[Any]) -> list:
        """``[fn(s) for s in seeds]``, possibly fanned out over processes.

        *seeds* are opaque picklable tokens (ints from
        :func:`~repro._rng.spawn_seeds`, or tuples of them); the pool never
        interprets them, but raises :class:`~repro.exceptions.ParameterError`
        before running anything if a seed is, or a tuple seed holds, a
        numpy ``Generator`` or ``BitGenerator``.  Output order always
        matches seed order, and the values are bit-identical to the serial
        loop for any worker count.
        """
        seeds = list(seeds)
        _check_seeds(seeds)
        shipped = None
        if self.max_workers > 1 and len(seeds) > 1:
            # One pickle per map: a task can carry a whole ground-truth
            # column, and every chunk ships these same bytes.
            shipped = _pickled((fn, seeds))
        use_processes = shipped is not None
        mode = "process" if use_processes else "serial"
        map_span = _trace.span("pool.map", trials=len(seeds))
        with map_span:
            timed, num_chunks = self._map_chunked(fn, seeds, shipped)
            map_span.set(mode=mode, chunks=num_chunks)

        _metrics.inc("repro_pool_maps_total", mode=mode)
        _metrics.inc("repro_pool_trials_total", len(seeds))
        _metrics.set_gauge(
            "repro_pool_workers", self.max_workers if use_processes else 1
        )
        if _metrics.enabled():
            for _, duration in timed:
                _metrics.observe("repro_pool_trial_seconds", duration)
        return [value for value, _ in timed]


def run_trials(
    fn: Callable[[Any], Any],
    seeds: Sequence[Any],
    pool: TrialPool | None = None,
) -> list:
    """One-shot :meth:`TrialPool.map`.

    Maps through *pool* when one is given, reusing its warm workers;
    otherwise through a throwaway one-worker pool, the in-process loop.
    """
    if pool is not None:
        return pool.map(fn, seeds)
    with TrialPool() as local:
        return local.map(fn, seeds)
