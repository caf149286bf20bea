"""Deterministic parallel trial engine.

Every figure and theorem validation in this reproduction averages over
independent Monte-Carlo trials.  :class:`TrialPool` runs those trials across
a process pool while guaranteeing **bit-identical results to the serial
loop** for any worker count:

- the caller derives one integer seed per trial *up front* (via
  :func:`repro._rng.spawn_seeds`, i.e. before any work is distributed), so
  trial ``i``'s randomness depends only on its own seed, never on which
  worker ran it or in what order;
- results are reassembled in submission order, so ``pool.map(fn, seeds)``
  equals ``[fn(s) for s in seeds]`` element-for-element.

``map`` transparently falls back to an in-process sequential loop when
``max_workers=1``, when there is at most one trial, or when the callable /
seeds cannot be pickled (closures, lambdas, bound locals) — the fallback
produces the same floats, just without the fan-out.  A parallel map
survives worker loss: the chunks a dead worker held are re-dispatched, and
a chunk that keeps killing its workers is quarantined.

The pool also aggregates lightweight per-trial statistics
(:class:`TrialStats`, exposed as ``pool.last_stats``): wall-clock time,
summed in-trial compute time (whose ratio estimates the realised speedup),
and page-read counts when trial callables opt in by returning
:class:`TrialRecord`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..exceptions import ParameterError, TaskQuarantinedError
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "TrialRecord",
    "TrialStats",
    "TrialPool",
    "run_trials",
    "resolve_workers",
]


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request.

    ``None`` means "auto": the ``REPRO_WORKERS`` environment variable if
    set, else the machine's CPU count.  Anything below 1 is rejected.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        workers = int(env) if env else (os.cpu_count() or 1)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ParameterError(f"workers must be an int or None, got {workers!r}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return workers


def _validate_chunk_size(chunk_size: int | None) -> int | None:
    if chunk_size is None:
        return None
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool):
        raise ParameterError(
            f"chunk_size must be a positive int or None, got {chunk_size!r}"
        )
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


@dataclass(frozen=True)
class TrialRecord:
    """Opt-in wrapper for one trial's result plus its I/O accounting.

    Trial callables that want their page reads aggregated into
    :class:`TrialStats` return ``TrialRecord(value, page_reads=...)``;
    :meth:`TrialPool.map` unwraps the ``value`` so callers still receive a
    plain list of results.
    """

    value: Any
    page_reads: int = 0


@dataclass(frozen=True)
class TrialStats:
    """What one :meth:`TrialPool.map` call spent.

    ``trial_time_total_s`` sums the per-trial compute times measured inside
    the workers; its ratio to ``elapsed_s`` estimates the realised speedup
    (for the serial mode it is ~1 minus orchestration overhead).
    """

    trials: int
    workers: int
    chunk_size: int
    num_chunks: int
    mode: str  # "serial" or "process"
    elapsed_s: float
    trial_time_total_s: float
    trial_time_max_s: float
    page_reads: int
    chunks_resumed: int = 0

    @property
    def trial_time_mean_s(self) -> float:
        """Mean in-trial compute time."""
        return self.trial_time_total_s / self.trials if self.trials else 0.0

    @property
    def speedup(self) -> float:
        """Realised speedup vs running the same trials back-to-back."""
        return self.trial_time_total_s / self.elapsed_s if self.elapsed_s else 1.0

    def to_dict(self) -> dict:
        """Plain-dict (JSON-able) form of the stats.

        The integer fields (``trials`` / ``workers`` / ``chunk_size`` /
        ``num_chunks`` / ``page_reads``) and ``mode`` are deterministic for
        a fixed seed and worker count; the ``*_s`` timing fields are not —
        consumers building deterministic artifacts (the bench harness's
        logical sections) must select the former.
        """
        return {
            "trials": self.trials,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "num_chunks": self.num_chunks,
            "mode": self.mode,
            "elapsed_s": self.elapsed_s,
            "trial_time_total_s": self.trial_time_total_s,
            "trial_time_max_s": self.trial_time_max_s,
            "page_reads": self.page_reads,
            "chunks_resumed": self.chunks_resumed,
        }

    def summary(self) -> str:
        """One-line human-readable summary of the map's cost."""
        return (
            f"{self.trials} trials, {self.workers} worker(s) [{self.mode}], "
            f"chunk={self.chunk_size}: wall {self.elapsed_s:.3f}s, "
            f"compute {self.trial_time_total_s:.3f}s "
            f"(speedup {self.speedup:.2f}x), page_reads={self.page_reads}"
        )


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
            # Wall-clock observability only: durations feed TrialStats
            # timing fields, never trial results or logical metrics.
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


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class TrialPool:
    """A deterministic trial mapper over an optional process pool.

    Parameters
    ----------
    max_workers:
        Default worker count for :meth:`map`; ``None`` resolves through
        :func:`resolve_workers` (``REPRO_WORKERS`` env var, else CPU count).
    chunk_size:
        Default trials per worker task; ``None`` picks
        ``ceil(trials / (4 * workers))`` so stragglers rebalance.
    checkpoint:
        Optional :class:`repro.durability.RunCheckpoint`.  Every map is
        then journaled chunk-by-chunk (even in serial mode, so a kill at
        any point loses at most one chunk), and chunks already journaled
        by a previous run are spliced back instead of re-executed —
        bit-identical to an uninterrupted run, because chunk results are
        pure functions of ``(fn, seeds)``.
    heartbeat_s:
        Optional worker-liveness timeout for parallel maps: when no chunk
        completes for this many seconds the pool is presumed wedged, its
        workers are killed, and the incomplete chunks are re-dispatched
        deterministically (same ``(fn, seeds)`` => same results).  Pick a
        value comfortably above the slowest chunk's runtime.
    max_redispatch:
        How many times a lost chunk may be re-dispatched (after a worker
        crash in any parallel map, or a heartbeat timeout) before it is
        quarantined as a poison task via
        :class:`~repro.exceptions.TaskQuarantinedError`.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first parallel ``map`` and reused across calls
    (figure sweeps issue many small maps); use the pool as a context manager
    or call :meth:`close` to release the workers.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        chunk_size: int | None = None,
        checkpoint=None,
        heartbeat_s: float | None = None,
        max_redispatch: int = 2,
    ):
        self.max_workers = resolve_workers(max_workers)
        self.chunk_size = _validate_chunk_size(chunk_size)
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ParameterError(
                f"heartbeat_s must be positive or None, got {heartbeat_s}"
            )
        if max_redispatch < 0:
            raise ParameterError(
                f"max_redispatch must be non-negative, got {max_redispatch}"
            )
        self.checkpoint = checkpoint
        self.heartbeat_s = heartbeat_s
        self.max_redispatch = max_redispatch
        self.last_stats: TrialStats | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._executor_workers: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker processes (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = None
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
        self._executor_workers = None
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

    def _get_executor(self, workers: int) -> ProcessPoolExecutor:
        if self._executor is None or self._executor_workers != workers:
            self.close()
            self._executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_exit_with_parent
            )
            self._executor_workers = workers
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
        chunk: int | None,
        workers: int,
        use_processes: bool,
    ) -> tuple[list, str, int, int, int]:
        """Chunk-at-a-time map with checkpointing and lost-worker recovery.

        Every :meth:`map` runs through here.  A serial map without a
        checkpoint is one in-process chunk.  Otherwise chunks journaled by
        a previous run splice straight back; the rest run (in parallel
        when *use_processes*) and are journaled as they complete.  Because
        every chunk's result is a pure function of ``(fn, seeds)``, the
        reassembled output is bit-identical to the serial loop for any
        worker count, worker loss or interruption/resume pattern.

        Returns ``(timed, mode, chunk_size, num_chunks, chunks_resumed)``.
        """
        if not use_processes and self.checkpoint is None:
            timed, _ = _run_chunk(fn, seeds)
            return timed, "serial", chunk or len(seeds) or 1, 1, 0
        if chunk is None:
            divisor = 4 * workers if use_processes else 4
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
        resumed = len(timed_by_chunk)
        pending = {
            index: chunks[index]
            for index in range(len(chunks))
            if index not in timed_by_chunk
        }
        if use_processes:
            self._run_pending_parallel(fn, chunks, pending, timed_by_chunk, plan, workers)
            mode = "process"
        else:
            for index in sorted(pending):
                chunk_timed, _ = _run_chunk(fn, pending[index])
                timed_by_chunk[index] = chunk_timed
                if plan is not None:
                    plan.record(index, chunk_timed)
            mode = "serial"
        timed = [
            item
            for index in range(len(chunks))
            for item in timed_by_chunk[index]
        ]
        return timed, mode, chunk, len(chunks), resumed

    def _run_pending_parallel(
        self,
        fn: Callable[[Any], Any],
        chunks: list,
        pending: dict[int, list],
        timed_by_chunk: dict[int, list],
        plan,
        workers: int,
    ) -> None:
        """Drive *pending* chunks to completion across worker losses.

        Each round submits every pending chunk, then waits with the
        configured heartbeat (forever when it is ``None``).  A broken pool
        or an expired heartbeat kills the workers and re-dispatches what is
        left — deterministic, since re-running a chunk reproduces its
        results exactly.  A chunk that outlives ``max_redispatch``
        re-dispatches is quarantined.  Worker-side metrics merge in chunk
        order when the drive ends, however it ends, so the aggregate does
        not depend on completion order.
        """
        dispatches = {index: 0 for index in pending}
        metrics_by_chunk: dict[int, dict] = {}
        try:
            while pending:
                poison = [
                    index
                    for index in sorted(pending)
                    if dispatches[index] >= 1 + self.max_redispatch
                ]
                if poison:
                    index = poison[0]
                    if plan is not None:
                        plan.quarantine(index, "workers lost repeatedly")
                    _metrics.inc(
                        "repro_pool_tasks_quarantined_total", len(poison)
                    )
                    raise TaskQuarantinedError(
                        f"chunk {index} lost its workers {dispatches[index]} "
                        f"time(s); quarantined as a poison task after "
                        f"{self.max_redispatch} re-dispatch(es)",
                        chunk_index=index,
                        seeds=chunks[index],
                    )
                collect = _metrics.enabled()
                executor = self._get_executor(workers)
                futures = {}
                reason = None
                try:
                    # A worker can die while later chunks are still being
                    # submitted; submit then raises BrokenProcessPool too.
                    for index in sorted(pending):
                        future = executor.submit(
                            _run_chunk, fn, pending[index], collect
                        )
                        futures[future] = index
                        dispatches[index] += 1
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(
                            not_done,
                            timeout=self.heartbeat_s,
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            # Heartbeat expired with zero progress: presume
                            # the workers are wedged or gone.
                            reason = "timeout"
                            break
                        for future in done:
                            index = futures[future]
                            chunk_timed, chunk_metrics = future.result()
                            timed_by_chunk[index] = chunk_timed
                            del pending[index]
                            if plan is not None:
                                plan.record(index, chunk_timed)
                            if chunk_metrics is not None:
                                metrics_by_chunk[index] = chunk_metrics
                except BrokenExecutor:
                    # A worker died (SIGKILL, segfault): every in-flight
                    # future fails with BrokenProcessPool.
                    reason = "crash"
                except BaseException:
                    # A trial raised, or the user hit Ctrl-C: surface it,
                    # don't re-dispatch.
                    for future in futures:
                        future.cancel()
                    self._terminate()
                    raise
                if not pending:
                    return
                if reason is None:
                    continue
                for future in futures:
                    future.cancel()
                self._terminate()
                _metrics.inc(
                    "repro_pool_chunks_redispatched_total",
                    len(pending),
                    reason=reason,
                )
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

    def map(
        self,
        fn: Callable[[Any], Any],
        seeds: Sequence[Any],
        *,
        chunk_size: int | None = None,
        max_workers: int | None = None,
    ) -> list:
        """``[fn(s) for s in seeds]``, possibly fanned out over processes.

        *seeds* are opaque picklable tokens (ints from
        :func:`~repro._rng.spawn_seeds`, or tuples of them); the pool never
        interprets them.  Output order always matches seed order, and the
        values are bit-identical to the serial loop for any worker count.
        """
        workers = (
            self.max_workers
            if max_workers is None
            else resolve_workers(max_workers)
        )
        chunk = (
            self.chunk_size
            if chunk_size is None
            else _validate_chunk_size(chunk_size)
        )
        seeds = list(seeds)
        # Wall-clock observability only: elapsed_s is reporting, not logic.
        start = time.perf_counter()  # repro: noqa[DET002]

        use_processes = (
            workers > 1
            and len(seeds) > 1
            and _is_picklable((fn, seeds))
        )
        map_span = _trace.span("pool.map", trials=len(seeds))
        with map_span:
            timed, mode, chunk, num_chunks, resumed = self._map_chunked(
                fn, seeds, chunk, workers, use_processes
            )
            map_span.set(mode=mode, chunks=num_chunks)

        elapsed = time.perf_counter() - start  # repro: noqa[DET002]
        durations = [d for _, d in timed]
        results = [v for v, _ in timed]
        # Integer page counts: exact under any summation order.
        page_reads = sum(  # repro: noqa[DET004]
            r.page_reads for r in results if isinstance(r, TrialRecord)
        )
        results = [
            r.value if isinstance(r, TrialRecord) else r for r in results
        ]
        self.last_stats = TrialStats(
            trials=len(seeds),
            workers=workers if mode == "process" else 1,
            chunk_size=chunk,
            num_chunks=num_chunks,
            mode=mode,
            elapsed_s=elapsed,
            trial_time_total_s=math.fsum(durations),
            trial_time_max_s=float(max(durations, default=0.0)),
            page_reads=page_reads,
            chunks_resumed=resumed,
        )
        _metrics.inc("repro_pool_maps_total", mode=mode)
        _metrics.inc("repro_pool_trials_total", len(seeds))
        _metrics.set_gauge("repro_pool_workers", self.last_stats.workers)
        if _metrics.enabled():
            for duration in durations:
                _metrics.observe("repro_pool_trial_seconds", duration)
        return results


def run_trials(
    fn: Callable[[Any], Any],
    seeds: Sequence[Any],
    *,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    pool: TrialPool | None = None,
) -> list:
    """One-shot :meth:`TrialPool.map`.

    Pass an existing *pool* to reuse its warm workers (and read
    ``pool.last_stats`` afterwards); otherwise a throwaway pool is created
    and torn down around the call.  ``max_workers=None`` defers to the
    pool's configured worker count — or to a plain serial loop when no pool
    is given.
    """
    if pool is not None:
        return pool.map(fn, seeds, chunk_size=chunk_size, max_workers=max_workers)
    with TrialPool(
        max_workers=1 if max_workers is None else max_workers,
        chunk_size=chunk_size,
    ) as local:
        return local.map(fn, seeds)
