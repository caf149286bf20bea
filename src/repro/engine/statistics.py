"""ANALYZE: building column statistics the way the paper's prototype does.

:class:`StatisticsManager` is the top of the public API: point it at a
:class:`~repro.engine.table.Table`, ask it to ``analyze`` a column, and it
runs the CVB adaptive sampling algorithm against the simulated heap file,
then derives the three statistics SQL Server keeps (Section 7.1):

- the equi-height **histogram** (step values = separators),
- the **density** (average duplication, 0 = all distinct .. 1 = all equal),
- the estimated number of **distinct values** (via GEE by default).

Alternative build methods are available for experiments: pure record-level
sampling at a fixed size (Section 3), and a full scan (the perfect
histogram).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import RngLike, ensure_rng
from ..core import bounds
from ..core.adaptive import CVBConfig, CVBResult, CVBSampler
from ..core.compressed import CompressedHistogram
from ..core.histogram import EquiHeightHistogram
from ..exceptions import BuildAbortedError, ParameterError
from ..distinct.estimators import DistinctValueEstimator, GEEEstimator
from ..distinct.frequency import FrequencyProfile
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sampling.record_sampler import sample_records_from_file
from ..sampling.schedule import StepSchedule
from ..storage.faults import (
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
    resilient_scan,
)
from ..storage.heapfile import HeapFile
from ..workloads.queries import RangeQuery
from .catalog import Catalog
from .density import density_from_estimate, selfjoin_density_from_sample
from .selectivity import RangeSelectivityEstimator
from .table import Table

__all__ = ["ColumnStatistics", "StatisticsManager", "BUILD_METHODS"]

BUILD_METHODS = ("cvb", "record", "fullscan")


@dataclass
class ColumnStatistics:
    """The statistics bundle ANALYZE produces for one column."""

    table_name: str
    column_name: str
    n: int
    histogram: EquiHeightHistogram
    density: float
    selfjoin_density: float
    distinct_estimate: float
    method: str
    sample_size: int
    pages_read: int
    converged: bool
    build_params: dict = field(default_factory=dict)
    cvb_result: CVBResult | None = None
    #: The accumulated (sorted) sample the statistics were derived from.
    sample: np.ndarray | None = None
    #: True when this bundle is a stale last-known-good served because a
    #: refresh was aborted (see :mod:`repro.engine.resilience`).
    degraded: bool = False
    #: I/O accounting snapshot of the build (page reads, retries, skips).
    io: dict = field(default_factory=dict)

    @property
    def sampling_rate(self) -> float:
        """Fraction of table rows that were sampled to build this bundle."""
        return self.sample_size / self.n

    def estimator(self) -> RangeSelectivityEstimator:
        """A range-selectivity estimator scaled to the full table."""
        return RangeSelectivityEstimator(self.histogram, self.n)

    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated number of rows with ``lo <= X <= hi``."""
        return self.estimator().estimate(RangeQuery(lo, hi))

    def estimate_equality(self, value: float) -> float:
        """Estimated number of rows equal to *value*, via the self-join
        density.

        ``n * selfjoin_density`` is the frequency-weighted average
        multiplicity — the expected output of an equality predicate whose
        constant is drawn like the data, which is the standard catalog-only
        estimate (Section 6's System R motivation [28]).
        """
        return float(min(self.n * self.selfjoin_density, self.n))

    def estimate_quantile(self, q: float) -> float:
        """Estimated value at quantile *q* of the column (for range
        partitioning, percentile predicates, parallel plan splits)."""
        return self.histogram.estimate_quantile(q)

    def compressed_histogram(
        self, threshold_factor: float = 1.0
    ) -> CompressedHistogram:
        """A compressed histogram (Section 5) built from the stored sample.

        High-frequency values get exact singleton buckets; counts are scaled
        to the full relation.  Useful when the column is skewed enough that
        plain equi-height buckets degenerate.
        """
        if self.sample is None:
            raise ParameterError(
                "statistics carry no sample to build a compressed histogram from"
            )
        return CompressedHistogram.from_sample(
            self.sample, self.n, self.histogram.k, threshold_factor
        )

    def summary(self) -> str:
        """One-line human-readable summary of the bundle."""
        return (
            f"{self.table_name}.{self.column_name}: n={self.n:,} "
            f"k={self.histogram.k} method={self.method} "
            f"sampled={self.sampling_rate:.2%} ({self.pages_read} pages) "
            f"density={self.density:.4g} distinct~{self.distinct_estimate:,.0f}"
            + (" [DEGRADED: stale last-known-good]" if self.degraded else "")
        )


class StatisticsManager:
    """Builds and caches :class:`ColumnStatistics` for a set of tables.

    By default statistics land in a fresh in-memory
    :class:`~repro.engine.catalog.Catalog`; pass *catalog* to plug in an
    existing one — notably the journaling catalog of a
    :class:`repro.durability.CatalogStore`, which makes every ``analyze``
    durable without the engine knowing about persistence.
    """

    def __init__(
        self,
        distinct_estimator: DistinctValueEstimator | None = None,
        catalog: Catalog | None = None,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self._distinct_estimator = distinct_estimator or GEEEstimator()

    # ------------------------------------------------------------------
    # Building statistics
    # ------------------------------------------------------------------

    def analyze(
        self,
        table: Table,
        column_name: str,
        k: int = 200,
        f: float = 0.1,
        gamma: float = 0.01,
        method: str = "cvb",
        layout: str = "random",
        rng: RngLike = None,
        heapfile: HeapFile | None = None,
        record_sample_size: int | None = None,
        schedule: StepSchedule | None = None,
        fault_policy: FaultPolicy | None = None,
        retry: RetryPolicy | None = None,
        read_budget: ReadBudget | None = None,
        **cvb_kwargs,
    ) -> ColumnStatistics:
        """Build statistics for ``table.column_name`` and store them.

        Parameters
        ----------
        method:
            ``"cvb"`` (default) runs the adaptive block-sampling algorithm;
            ``"record"`` takes a fixed-size record-level sample (sized by
            Corollary 1 unless *record_sample_size* is given); ``"fullscan"``
            builds the perfect histogram.
        heapfile:
            Reuse an existing heap file (e.g. to control layout/blocking
            exactly); otherwise one is materialised with *layout*.
        fault_policy:
            Wrap the heap file in a
            :class:`~repro.storage.faults.FaultyHeapFile` injecting these
            faults (chaos testing).
        retry / read_budget:
            Resilience knobs forwarded to the build: transient faults are
            retried, unreadable pages are skipped and replaced, and blowing
            the budget aborts the build with
            :class:`~repro.exceptions.BuildAbortedError` (which
            :class:`~repro.engine.maintenance.AutoStatistics` turns into a
            degraded last-known-good answer).
        """
        if method not in BUILD_METHODS:
            raise ParameterError(
                f"method must be one of {BUILD_METHODS}, got {method!r}"
            )
        generator = ensure_rng(rng)
        if heapfile is None:
            heapfile = table.to_heapfile(column_name, layout=layout, rng=generator)
        if fault_policy is not None and not isinstance(heapfile, FaultyHeapFile):
            heapfile = FaultyHeapFile(heapfile, fault_policy)
        n = heapfile.num_records
        io_baseline = heapfile.iostats.snapshot()

        with _trace.span(
            "engine.analyze",
            iostats=heapfile.iostats,
            table=table.name,
            column=column_name,
            method=method,
            k=k,
            f=f,
        ) as analyze_span:
            cvb_result: CVBResult | None = None
            if method == "cvb":
                config = CVBConfig(k=k, f=f, gamma=gamma, **cvb_kwargs)
                cvb_result = CVBSampler(
                    config, schedule=schedule, retry=retry, budget=read_budget
                ).run(heapfile, rng=generator)
                histogram = cvb_result.histogram
                sample = cvb_result.sample
                pages_read = cvb_result.pages_sampled
                converged = cvb_result.converged
            elif method == "record":
                if record_sample_size is None:
                    record_sample_size = min(
                        n, bounds.corollary1_sample_size(n, k, f, gamma)
                    )
                tracker = (
                    read_budget.tracker(heapfile.num_pages)
                    if read_budget
                    else None
                )
                sample = np.sort(
                    sample_records_from_file(
                        heapfile,
                        record_sample_size,
                        generator,
                        retry=retry,
                        budget=tracker,
                    )
                )
                if sample.size == 0:
                    raise BuildAbortedError(
                        "record sample is empty: no readable records"
                    )
                histogram = EquiHeightHistogram.from_sorted_values(sample, k)
                pages_read = heapfile.iostats.page_reads
                converged = True
            else:  # fullscan
                if retry is not None or read_budget is not None:
                    tracker = (
                        read_budget.tracker(heapfile.num_pages)
                        if read_budget
                        else None
                    )
                    sample = np.sort(
                        resilient_scan(heapfile, retry=retry, budget=tracker)
                    )
                    if sample.size == 0:
                        raise BuildAbortedError(
                            "full scan found no readable pages"
                        )
                else:
                    sample = np.sort(heapfile.scan())
                histogram = EquiHeightHistogram.from_sorted_values(sample, k)
                pages_read = heapfile.iostats.page_reads
                converged = True
            _metrics.inc("repro_analyze_builds_total", method=method)
            analyze_span.set(
                pages_read=pages_read,
                sample_size=int(sample.size),
                converged=converged,
            )

        profile = FrequencyProfile.from_sample(sample)
        distinct_estimate = self._distinct_estimator.estimate(profile, n)
        density = density_from_estimate(n, distinct_estimate)
        selfjoin = selfjoin_density_from_sample(sample, n=n)

        io_after = heapfile.iostats.snapshot()
        io = {
            key: io_after[key] - io_baseline.get(key, 0)
            for key in io_after
            if key != "pages_touched"
        }
        resilience_params = {
            name: value
            for name, value in (
                ("fault_policy", fault_policy),
                ("retry", retry),
                ("read_budget", read_budget),
            )
            if value is not None
        }
        statistics = ColumnStatistics(
            table_name=table.name,
            column_name=column_name,
            n=n,
            histogram=histogram,
            density=density,
            selfjoin_density=selfjoin,
            distinct_estimate=distinct_estimate,
            method=method,
            sample_size=int(sample.size),
            pages_read=pages_read,
            converged=converged,
            build_params={
                "k": k,
                "f": f,
                "gamma": gamma,
                "layout": layout,
                **resilience_params,
                **cvb_kwargs,
            },
            cvb_result=cvb_result,
            sample=sample,
            io=io,
        )
        self.catalog.put(statistics)
        return statistics

    def analyze_all(
        self,
        table: Table,
        rng: RngLike = None,
        **params,
    ) -> dict[str, ColumnStatistics]:
        """ANALYZE every column of *table* with shared parameters.

        Each column gets an independent sampling stream (derived from *rng*)
        and its own heap file materialisation; returns ``{column: stats}``.
        """
        from .._rng import spawn_rngs

        columns = table.column_names
        rngs = spawn_rngs(rng, len(columns))
        return {
            name: self.analyze(table, name, rng=column_rng, **params)
            for name, column_rng in zip(columns, rngs)
        }

    # ------------------------------------------------------------------
    # Consuming statistics
    # ------------------------------------------------------------------

    def statistics(self, table_name: str, column_name: str) -> ColumnStatistics:
        """Fetch previously built statistics (raises when missing)."""
        return self.catalog.get(table_name, column_name)

    def estimate_range(
        self, table_name: str, column_name: str, lo: float, hi: float
    ) -> float:
        """Optimizer entry point: estimated rows with ``lo <= X <= hi``."""
        return self.statistics(table_name, column_name).estimate_range(lo, hi)

    def estimate_distinct(self, table_name: str, column_name: str) -> float:
        """Optimizer entry point: estimated distinct count."""
        return self.statistics(table_name, column_name).distinct_estimate
