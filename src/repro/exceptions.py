"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class.  Input
validation errors derive from :class:`ParameterError`, which itself derives
from :class:`ValueError` so that idiomatic ``except ValueError`` code keeps
working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "EmptyDataError",
    "InfeasibleBoundError",
    "BuildAbortedError",
    "StorageError",
    "UnknownLayoutError",
    "TransientIOError",
    "PageCorruptionError",
    "SimulatedCrashError",
    "CatalogError",
    "StatisticsNotFoundError",
    "CheckpointError",
    "TaskQuarantinedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """A caller supplied an invalid parameter value.

    Raised, for example, when a histogram is requested with ``k <= 0`` or a
    sampling bound is evaluated with an error fraction outside ``(0, 1]``.
    """


class EmptyDataError(ParameterError):
    """An operation that needs data was given an empty value set or sample."""


class InfeasibleBoundError(ReproError):
    """A sampling bound cannot be satisfied with the given parameters.

    For example, Corollary 1 may prescribe a sample size larger than the
    relation itself, or the Gibbons-Matias-Poosala bound may be undefined for
    the requested error fraction (see Example 4 of the paper).
    """


class BuildAbortedError(ReproError):
    """A statistics build was abandoned before producing a usable result.

    Raised by the resilience layer when a read budget runs out or too many
    pages turn out to be unreadable (see
    :class:`repro.storage.faults.ReadBudget`).  Carries whatever partial
    accounting was available so callers can report why the build died.

    All constructor arguments flow through ``Exception.args``, keeping the
    instance picklable across process boundaries (``TrialPool`` workers
    re-raise these in the parent process).
    """

    def __init__(self, message: str, snapshot: dict | None = None):
        super().__init__(message, snapshot)
        self.snapshot = snapshot or {}

    def __str__(self) -> str:  # hide the snapshot arg from the rendering
        return str(self.args[0])


class StorageError(ReproError):
    """Base class for errors in the storage simulator."""


class UnknownLayoutError(StorageError, ValueError):
    """A heap file was requested with an unrecognised layout name."""


class TransientIOError(StorageError, IOError):
    """A page read failed in a way that a retry may fix.

    The fault-injection layer raises this for simulated flaky reads; the
    retrying access paths (:class:`repro.storage.faults.RetryPolicy`) catch
    it, back off, and try again.
    """

    def __init__(self, message: str, page_id: int = -1, attempt: int = 0):
        super().__init__(message, page_id, attempt)
        self.page_id = page_id
        self.attempt = attempt

    def __str__(self) -> str:
        return str(self.args[0])


class PageCorruptionError(StorageError):
    """A page's payload failed its checksum: the page is permanently bad.

    Retrying cannot help; resilient builds skip the page and redraw a fresh
    one so the accumulated sample stays uniform over the readable pages.
    """

    def __init__(self, message: str, page_id: int = -1):
        super().__init__(message, page_id)
        self.page_id = page_id

    def __str__(self) -> str:
        return str(self.args[0])


class SimulatedCrashError(StorageError):
    """A deliberately injected crash interrupted a durable write.

    Raised by :class:`repro.storage.faults.WriteFaultInjector` at the exact
    point a real process death would occur: *after* the (possibly torn)
    bytes hit the disk but *before* the write protocol finished (the
    rename, the journal append, the truncation).  Recovery tests catch it,
    reopen the store, and assert last-known-good semantics.

    All constructor arguments flow through ``Exception.args``, keeping the
    instance picklable across process boundaries.
    """

    def __init__(self, message: str, op_index: int = -1):
        super().__init__(message, op_index)
        self.op_index = op_index

    def __str__(self) -> str:
        return str(self.args[0])


class CatalogError(ReproError):
    """Base class for errors raised by the engine catalog."""


class StatisticsNotFoundError(CatalogError, KeyError):
    """Statistics were requested for a column that has not been analyzed."""


class CheckpointError(ReproError):
    """A checkpoint directory cannot serve the requested resume.

    Raised when ``--resume`` points at a run journal recorded for a
    different sweep (different seeds, trial counts, or scale): silently
    splicing foreign results would break the bit-identical resume
    guarantee, so the mismatch is surfaced instead.

    All constructor arguments flow through ``Exception.args``, keeping the
    instance picklable across process boundaries.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class TaskQuarantinedError(ReproError):
    """A trial chunk was quarantined after repeatedly killing its workers.

    Raised by :class:`repro.experiments.parallel.TrialPool` when the same
    chunk, running alone, kills its worker again after two deterministic
    re-dispatches — the signature of a poison task (one that segfaults or
    kills its worker) rather than an unlucky crash.  Carries the chunk
    index and the seeds it contained so the caller can reproduce serially.

    All constructor arguments flow through ``Exception.args``, keeping the
    instance picklable across process boundaries.
    """

    def __init__(self, message: str, chunk_index: int = -1, seeds=None):
        super().__init__(message, chunk_index, seeds)
        self.chunk_index = chunk_index
        self.seeds = list(seeds) if seeds is not None else []

    def __str__(self) -> str:
        return str(self.args[0])
