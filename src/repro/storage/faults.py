"""Fault injection for the storage simulator, and the retry machinery
that keeps sampling-based builds alive on top of it.

The paper's whole pipeline builds statistics from *partial* reads of a
table, yet a single flaky page would abort an entire build.  This module
makes the simulator behave like a storage stack that serves traffic:

- :class:`FaultPolicy` — a seeded, deterministic description of what goes
  wrong: transient read failures (:class:`~repro.exceptions.TransientIOError`),
  permanently corrupt pages (:class:`~repro.exceptions.PageCorruptionError`,
  detected through the per-page checksum of :func:`page_checksum`), and
  per-read latency.
- :class:`FaultyHeapFile` — wraps any :class:`~repro.storage.heapfile.HeapFile`
  and injects the policy's faults on every access path.  With an all-zero
  policy it is behaviourally identical to the wrapped file (same payloads,
  same ``IOStats.page_reads``).
- :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter.
- :class:`ReadBudget` / :class:`BudgetTracker` — a per-build cap on failures,
  skipped pages and simulated time; exceeding it raises
  :class:`~repro.exceptions.BuildAbortedError`.
- :func:`read_page_resilient` / :func:`read_record_resilient` — the
  retrying access paths used by the samplers, and
  :func:`read_pages_resilient`, their one page-batch read path (full
  scans included).

Every random decision is a pure function of ``(policy seed, page id,
attempt index)`` — derived through :class:`numpy.random.SeedSequence`, the
same machinery as :func:`repro._rng.spawn_seeds` — never of global draw
order.  A faulty build is therefore bit-identical across runs and across
worker counts, and retries do not perturb the sampler's own RNG stream.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .._rng import RngLike, spawn_seeds
from ..obs import metrics as _metrics
from ..exceptions import (
    BuildAbortedError,
    PageCorruptionError,
    ParameterError,
    SimulatedCrashError,
    StorageError,
    TransientIOError,
)
from .heapfile import HeapFile

__all__ = [
    "FaultPolicy",
    "FaultyHeapFile",
    "RetryPolicy",
    "ReadBudget",
    "BudgetTracker",
    "WriteFaultPolicy",
    "WriteFaultInjector",
    "read_page_resilient",
    "read_pages_resilient",
    "read_record_resilient",
    "page_checksum",
]

# Stream tags keeping the policy's independent decision streams from
# colliding in SeedSequence space.
_STREAM_CORRUPT = 1
_STREAM_TRANSIENT = 2
_STREAM_JITTER = 3
_STREAM_WRITE = 4


def _hashed_uniform(entropy: tuple[int, ...]) -> float:
    """One U[0,1) draw that is a pure function of *entropy*.

    Counter-based randomness: the draw depends only on the entropy tuple,
    never on how many draws happened before it, so fault decisions are
    reproducible regardless of interleaving with the sampler's own stream.
    """
    return float(np.random.default_rng(entropy).random())


def page_checksum(values: np.ndarray) -> int:
    """CRC-32 of a page payload's raw bytes.

    This is the integrity check the fault-injection layer uses to *detect*
    simulated corruption: a :class:`FaultyHeapFile` tampers with a bad
    page's payload and the mismatch against the checksum computed at load
    time surfaces as a :class:`~repro.exceptions.PageCorruptionError`.
    """
    payload = np.ascontiguousarray(np.asarray(values))
    return zlib.crc32(payload.tobytes())


@dataclass(frozen=True)
class FaultPolicy:
    """What goes wrong, how often, and under which seed.

    Parameters
    ----------
    transient_rate:
        Probability that any single physical read attempt fails with a
        :class:`~repro.exceptions.TransientIOError`.  Independent per
        (page, attempt), so retries eventually succeed.
    corrupt_fraction:
        Fraction of the file's pages that are permanently bad: their payload
        is tampered with and every read fails the checksum with a
        :class:`~repro.exceptions.PageCorruptionError`.
    read_latency_s:
        Simulated seconds charged (to ``IOStats.simulated_latency_s``) per
        physical read attempt.  No real sleeping.
    seed:
        Root of all the policy's decision streams.
    """

    transient_rate: float = 0.0
    corrupt_fraction: float = 0.0
    read_latency_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.transient_rate < 1.0:
            raise ParameterError(
                f"transient_rate must be in [0, 1), got {self.transient_rate}"
            )
        if not 0.0 <= self.corrupt_fraction < 1.0:
            raise ParameterError(
                f"corrupt_fraction must be in [0, 1), got {self.corrupt_fraction}"
            )
        if self.read_latency_s < 0:
            raise ParameterError(
                f"read_latency_s must be non-negative, got {self.read_latency_s}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def seeded(cls, rng: RngLike, **kwargs) -> "FaultPolicy":
        """A policy whose seed is spawned from *rng* (seed, generator or
        ``None``) via the library's standard seed-spawning machinery."""
        (seed,) = spawn_seeds(rng, 1)
        return cls(seed=seed, **kwargs)

    def corrupt_page_ids(self, num_pages: int) -> frozenset[int]:
        """The fixed set of permanently bad pages for a *num_pages* file."""
        if num_pages <= 0 or self.corrupt_fraction == 0.0:
            return frozenset()
        count = int(self.corrupt_fraction * num_pages)
        if count == 0:
            return frozenset()
        rng = np.random.default_rng((self.seed, _STREAM_CORRUPT))
        chosen = rng.choice(num_pages, size=count, replace=False)
        return frozenset(int(p) for p in chosen)

    def transient_fault(self, page_id: int, attempt: int) -> bool:
        """Does read *attempt* (0-based) of *page_id* fail transiently?"""
        if self.transient_rate == 0.0:
            return False
        draw = _hashed_uniform((self.seed, _STREAM_TRANSIENT, page_id, attempt))
        return draw < self.transient_rate


class FaultyHeapFile(HeapFile):
    """A drop-in :class:`HeapFile` that injects a :class:`FaultPolicy`.

    Wraps an existing heap file (sharing its backing array, not copying it)
    and applies the policy on every access path: ``read_page``,
    ``read_pages``, ``read_record``, ``scan`` and ``iter_pages`` all go
    through the faulty read.  Corrupt pages return a tampered payload whose
    checksum mismatch (against the checksum recorded at wrap time) raises
    :class:`~repro.exceptions.PageCorruptionError` — detection works the way
    a real storage engine's page verification does, rather than by fiat.

    With ``FaultPolicy()`` (all rates zero) the wrapper is behaviourally
    identical to the wrapped file: same payload bytes, same
    ``IOStats.page_reads``.
    """

    def __init__(self, inner: HeapFile, policy: FaultPolicy | None = None):
        super().__init__(
            inner.values_unaccounted(),
            blocking_factor=inner.blocking_factor,
            spec=inner.spec,
        )
        self.policy = policy or FaultPolicy()
        self._corrupt = self.policy.corrupt_page_ids(self.num_pages)
        self._attempts: dict[int, int] = {}
        self._expected_checksums: dict[int, int] = {}

    @property
    def corrupt_pages(self) -> frozenset[int]:
        """Page ids the policy designated permanently bad."""
        return self._corrupt

    @property
    def num_readable_pages(self) -> int:
        """Pages that are not permanently corrupt."""
        return self.num_pages - len(self._corrupt)

    def readable_values_unaccounted(self) -> np.ndarray:
        """All values on readable pages, without touching the counters.

        Ground truth for chaos experiments: under permanent page loss the
        population a uniform sample can possibly represent is the readable
        pages, so error targets are evaluated against exactly that multiset.
        """
        if not self._corrupt:
            return self.values_unaccounted()
        chunks = [
            self.values_unaccounted()[slice(*self.page_bounds(pid))]
            for pid in range(self.num_pages)
            if pid not in self._corrupt
        ]
        if not chunks:
            return self.values_unaccounted()[:0]
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # Faulty access paths
    # ------------------------------------------------------------------

    def read_page(self, page_id: int) -> np.ndarray:
        """Read a page, possibly raising an injected fault."""
        lo, hi = self.page_bounds(page_id)
        attempt = self._attempts.get(page_id, 0)
        self._attempts[page_id] = attempt + 1
        if self.policy.read_latency_s:
            self.iostats.record_latency(self.policy.read_latency_s)
        if self.policy.transient_fault(page_id, attempt):
            self.iostats.record_failed_read(page_id)
            _metrics.inc("repro_fault_events_total", kind="transient")
            raise TransientIOError(
                f"transient I/O failure reading page {page_id} "
                f"(attempt {attempt + 1})",
                page_id=page_id,
                attempt=attempt,
            )
        clean = self.values_unaccounted()[lo:hi]
        expected = self._expected_checksums.get(page_id)
        if expected is None:
            expected = page_checksum(clean)
            self._expected_checksums[page_id] = expected
        if page_id in self._corrupt:
            # The simulated medium returns a tampered payload; verification
            # against the recorded checksum catches it below.
            payload = clean.copy()
            payload[0] = payload[0] + payload.dtype.type(1)
        else:
            payload = clean
        if page_checksum(payload) != expected:
            self.iostats.record_failed_read(page_id)
            _metrics.inc("repro_fault_events_total", kind="corrupt")
            raise PageCorruptionError(
                f"page {page_id} failed its checksum; it is permanently bad",
                page_id=page_id,
            )
        self.iostats.record_read(page_id)
        return payload

    def read_record(self, record_index: int):
        """Read one record via :meth:`read_page` (faults included)."""
        if not 0 <= record_index < self.num_records:
            raise ParameterError(
                f"record_index {record_index} out of range "
                f"[0, {self.num_records})"
            )
        page_id = record_index // self.blocking_factor
        payload = self.read_page(page_id)
        return payload[record_index - page_id * self.blocking_factor]

    def read_pages(self, page_ids) -> np.ndarray:
        """Read *page_ids* one :meth:`read_page` at a time.

        A fault raises at the page it hits, with the pages before it
        already charged; use :func:`read_pages_resilient` with a retry
        policy to retry and skip bad pages instead.
        """
        return read_pages_resilient(self, page_ids)[0]

    def scan(self) -> np.ndarray:
        """Full scan through the faulty read path.

        Raises on the first fault; use :func:`read_pages_resilient` with a
        retry policy to retry and skip bad pages instead.
        """
        return self.read_pages(range(self.num_pages))

    def __repr__(self) -> str:
        return (
            f"FaultyHeapFile(records={self.num_records}, "
            f"pages={self.num_pages}, corrupt={len(self._corrupt)}, "
            f"transient_rate={self.policy.transient_rate})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts per page (first try included).
    base_delay_s / multiplier:
        Backoff for attempt ``i`` (0-based retry index) is
        ``base_delay_s * multiplier ** i``, scaled by jitter.
    jitter:
        Relative jitter amplitude in ``[0, 1)``: the delay is multiplied by
        ``1 + jitter * u`` with ``u`` drawn deterministically in ``[-1, 1)``
        from ``(seed, page_id, attempt)`` — reproducible, yet decorrelated
        across pages the way real jitter is.
    seed:
        Root of the jitter stream.

    Backoff delays are never slept: they are charged to
    ``IOStats.simulated_latency_s`` (and to the read budget) without
    slowing the simulation down.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ParameterError(
                f"base_delay_s must be non-negative, got {self.base_delay_s}"
            )
        if self.multiplier < 1.0:
            raise ParameterError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ParameterError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def seeded(cls, rng: RngLike, **kwargs) -> "RetryPolicy":
        """A policy whose jitter seed is spawned from *rng*."""
        (seed,) = spawn_seeds(rng, 1)
        return cls(seed=seed, **kwargs)

    def backoff_s(self, page_id: int, attempt: int) -> float:
        """The (jittered, deterministic) delay before retry *attempt*."""
        delay = self.base_delay_s * self.multiplier**attempt
        if self.jitter:
            u = 2.0 * _hashed_uniform(
                (self.seed, _STREAM_JITTER, page_id, attempt)
            ) - 1.0
            delay *= 1.0 + self.jitter * u
        return delay


@dataclass(frozen=True)
class ReadBudget:
    """Per-build resource limits (the "read-budget timeout").

    ``None`` disables a limit.  Build code turns the spec into a fresh
    :class:`BudgetTracker` per build via :meth:`tracker`.
    """

    max_failed_reads: int | None = None
    max_skipped_pages: int | None = None
    max_skipped_fraction: float | None = None
    max_simulated_s: float | None = None

    def __post_init__(self):
        if self.max_failed_reads is not None and self.max_failed_reads < 0:
            raise ParameterError(
                f"max_failed_reads must be non-negative, got {self.max_failed_reads}"
            )
        if self.max_skipped_pages is not None and self.max_skipped_pages < 0:
            raise ParameterError(
                f"max_skipped_pages must be non-negative, got {self.max_skipped_pages}"
            )
        if self.max_skipped_fraction is not None and not (
            0.0 <= self.max_skipped_fraction <= 1.0
        ):
            raise ParameterError(
                "max_skipped_fraction must be in [0, 1], got "
                f"{self.max_skipped_fraction}"
            )
        if self.max_simulated_s is not None and self.max_simulated_s < 0:
            raise ParameterError(
                f"max_simulated_s must be non-negative, got {self.max_simulated_s}"
            )

    def tracker(self, num_pages: int | None = None) -> "BudgetTracker":
        """A fresh per-build tracker enforcing this spec."""
        max_skipped = self.max_skipped_pages
        if self.max_skipped_fraction is not None and num_pages:
            by_fraction = int(self.max_skipped_fraction * num_pages)
            max_skipped = (
                by_fraction
                if max_skipped is None
                else min(max_skipped, by_fraction)
            )
        return BudgetTracker(
            max_failed_reads=self.max_failed_reads,
            max_skipped_pages=max_skipped,
            max_simulated_s=self.max_simulated_s,
        )


class BudgetTracker:
    """Mutable per-build spend against a :class:`ReadBudget`.

    Each ``charge_*`` method raises
    :class:`~repro.exceptions.BuildAbortedError` the moment its limit is
    crossed, carrying a snapshot of the spend for diagnostics.
    """

    def __init__(
        self,
        max_failed_reads: int | None = None,
        max_skipped_pages: int | None = None,
        max_simulated_s: float | None = None,
    ):
        self.max_failed_reads = max_failed_reads
        self.max_skipped_pages = max_skipped_pages
        self.max_simulated_s = max_simulated_s
        self.failed_reads = 0
        self.skipped_pages = 0
        self.simulated_s = 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy of the tracker state, for reporting."""
        return {
            "failed_reads": self.failed_reads,
            "skipped_pages": self.skipped_pages,
            "simulated_s": self.simulated_s,
        }

    def _abort(self, what: str) -> None:
        raise BuildAbortedError(
            f"read budget exhausted: {what} "
            f"(failed_reads={self.failed_reads}, "
            f"skipped_pages={self.skipped_pages}, "
            f"simulated_s={self.simulated_s:.4g})",
            snapshot=self.snapshot(),
        )

    def charge_failure(self) -> None:
        """Charge one failed read attempt against the budget."""
        self.failed_reads += 1
        if (
            self.max_failed_reads is not None
            and self.failed_reads > self.max_failed_reads
        ):
            self._abort(f"more than {self.max_failed_reads} failed reads")

    def charge_skip(self) -> None:
        """Charge one permanently skipped page against the budget."""
        self.skipped_pages += 1
        if (
            self.max_skipped_pages is not None
            and self.skipped_pages > self.max_skipped_pages
        ):
            self._abort(f"more than {self.max_skipped_pages} pages skipped")

    def charge_delay(self, seconds: float) -> None:
        """Charge *seconds* of simulated delay against the budget."""
        self.simulated_s += seconds
        if (
            self.max_simulated_s is not None
            and self.simulated_s > self.max_simulated_s
        ):
            self._abort(f"simulated time over {self.max_simulated_s:.4g}s")


@dataclass(frozen=True)
class WriteFaultPolicy:
    """Deterministic crash injection for durable-state writes.

    The durability layer (:mod:`repro.durability`) counts every *durable
    operation* it performs — each atomic snapshot write, each journal
    append, each journal truncation — and consults this policy through a
    :class:`WriteFaultInjector` before completing it.  On the designated
    operation the injector simulates a process death mid-write: only a
    prefix of the payload reaches disk (``torn_fraction``), optionally
    with one bit-flipped byte (``corrupt_tail``), and the caller raises
    :class:`~repro.exceptions.SimulatedCrashError` *instead of finishing
    the protocol* — the rename never happens, the truncation never
    happens.  Recovery tests then reopen the store and assert
    last-known-good semantics.

    Parameters
    ----------
    crash_at_op:
        0-based index of the durable operation to die on; ``None`` never
        crashes.
    torn_fraction:
        Fraction of the payload bytes that reach disk before the crash
        (``1.0`` = the payload is complete but the protocol is not).
    corrupt_tail:
        Flip one deterministically chosen byte of the torn payload,
        modelling a sector scribble; the choice derives from ``seed``.
    seed:
        Root of the byte-choice stream.
    """

    crash_at_op: int | None = None
    torn_fraction: float = 1.0
    corrupt_tail: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.crash_at_op is not None and self.crash_at_op < 0:
            raise ParameterError(
                f"crash_at_op must be non-negative or None, got {self.crash_at_op}"
            )
        if not 0.0 <= self.torn_fraction <= 1.0:
            raise ParameterError(
                f"torn_fraction must be in [0, 1], got {self.torn_fraction}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    def injector(self) -> "WriteFaultInjector":
        """A fresh stateful injector (one per store open)."""
        return WriteFaultInjector(self)


class WriteFaultInjector:
    """Mutable op counter applying a :class:`WriteFaultPolicy`.

    Durable-write call sites use the two-phase protocol::

        payload, crash = injector.apply(payload)
        ...persist payload, flush, fsync...
        if crash:
            raise SimulatedCrashError(...)

    so the torn bytes genuinely hit the disk before the simulated death,
    exactly like a real crash between ``write()`` and the protocol's
    completing step.
    """

    def __init__(self, policy: WriteFaultPolicy):
        self.policy = policy
        self.ops = 0

    def apply(self, payload: bytes) -> tuple[bytes, bool]:
        """Mangle *payload* if this op is the crash point.

        Returns ``(bytes_to_persist, crash)``; the caller must raise
        :class:`~repro.exceptions.SimulatedCrashError` after persisting
        when *crash* is true.
        """
        op = self.ops
        self.ops += 1
        policy = self.policy
        if policy.crash_at_op is None or op != policy.crash_at_op:
            return payload, False
        keep = int(len(payload) * policy.torn_fraction)
        mangled = bytearray(payload[:keep])
        if policy.corrupt_tail and mangled:
            pos = int(
                _hashed_uniform((policy.seed, _STREAM_WRITE, op)) * len(mangled)
            )
            mangled[pos] ^= 0xFF
        _metrics.inc("repro_fault_events_total", kind="write")
        return bytes(mangled), True

    def crash(self, what: str) -> None:
        """Raise the simulated death for the op just applied."""
        raise SimulatedCrashError(
            f"simulated crash during {what} (op {self.ops - 1})",
            op_index=self.ops - 1,
        )


def read_page_resilient(
    heapfile: HeapFile,
    page_id: int,
    retry: RetryPolicy | None = None,
    budget: BudgetTracker | None = None,
) -> np.ndarray | None:
    """Read a page with retries; ``None`` when it is permanently unreadable.

    Transient faults are retried up to ``retry.max_attempts`` times with
    jittered exponential backoff (charged to the heap file's
    ``simulated_latency_s`` and the *budget*); corruption is never retried.
    On a plain fault-free :class:`HeapFile` this is exactly ``read_page``.
    Exceeding the budget raises
    :class:`~repro.exceptions.BuildAbortedError`.
    """
    attempts = retry.max_attempts if retry is not None else 1
    for attempt in range(attempts):
        try:
            payload = heapfile.read_page(page_id)
            _metrics.inc("repro_resilient_reads_total", outcome="delivered")
            return payload
        except PageCorruptionError:
            if budget is not None:
                budget.charge_failure()
            heapfile.iostats.record_skip(page_id)
            if budget is not None:
                budget.charge_skip()
            _metrics.inc("repro_resilient_reads_total", outcome="skipped")
            return None
        except TransientIOError:
            if budget is not None:
                budget.charge_failure()
            if attempt + 1 >= attempts:
                break
            heapfile.iostats.record_retry(page_id)
            delay = retry.backoff_s(page_id, attempt)
            heapfile.iostats.record_latency(delay)
            if budget is not None:
                budget.charge_delay(delay)
    heapfile.iostats.record_skip(page_id)
    if budget is not None:
        budget.charge_skip()
    _metrics.inc("repro_resilient_reads_total", outcome="skipped")
    return None


def read_pages_resilient(
    heapfile: HeapFile,
    page_ids,
    retry: RetryPolicy | None = None,
    budget: BudgetTracker | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Read a batch of pages: the one page-batch read path of the samplers.

    Reads *page_ids* in order and returns ``(payload, delivered_ids,
    skipped_ids)``: the concatenated values of every readable page, the
    ids actually delivered (in input order), and the ids permanently
    skipped.

    A plain heap file cannot fail, so it is read with one
    :meth:`HeapFile.read_pages` gather.  A :class:`FaultyHeapFile` is read
    one page at a time: through its ``read_page`` when neither *retry* nor
    *budget* is given, so a fault propagates, and otherwise through
    :func:`read_page_resilient`, which retries transients and skips
    unreadable pages.  The ``repro_resilient_reads_total`` metric counts
    the pages only when a *retry* or *budget* is given.

    A fault or budget abort re-raises with ``pages_consumed`` (how many of
    *page_ids* were consumed, the failing one included) and
    ``skipped_ids`` (the ids skipped before it) set on the error, so a
    caller can account for exactly the pages read so far.
    """
    ids = np.asarray(page_ids, dtype=np.int64)
    guarded = retry is not None or budget is not None
    if not isinstance(heapfile, FaultyHeapFile):
        payload = heapfile.read_pages(ids)
        if guarded and ids.size:
            _metrics.inc(
                "repro_resilient_reads_total", int(ids.size), outcome="delivered"
            )
        return payload, ids, []

    chunks: list[np.ndarray] = []
    delivered: list[int] = []
    skipped: list[int] = []
    try:
        for pid in ids.tolist():
            if guarded:
                payload = read_page_resilient(
                    heapfile, pid, retry=retry, budget=budget
                )
            else:
                payload = heapfile.read_page(pid)
            if payload is None:
                skipped.append(pid)
            else:
                chunks.append(payload)
                delivered.append(pid)
    except (StorageError, BuildAbortedError) as exc:
        # Every page before the failing one was delivered or skipped.
        exc.pages_consumed = len(delivered) + len(skipped) + 1
        exc.skipped_ids = skipped
        raise
    if chunks:
        flat = np.concatenate(chunks)
    else:
        flat = heapfile.values_unaccounted()[:0]
    return flat, np.asarray(delivered, dtype=np.int64), skipped


def read_record_resilient(
    heapfile: HeapFile,
    record_index: int,
    retry: RetryPolicy | None = None,
    budget: BudgetTracker | None = None,
):
    """Record-level twin of :func:`read_page_resilient` (``None`` on loss)."""
    page_id = record_index // heapfile.blocking_factor
    payload = read_page_resilient(heapfile, page_id, retry=retry, budget=budget)
    if payload is None:
        return None
    return payload[record_index - page_id * heapfile.blocking_factor]
