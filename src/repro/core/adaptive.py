"""CVB — Cross-Validation based Block sampling (Section 4 of the paper).

The algorithm samples disk blocks in increments, maintains an equi-height
histogram over all tuples seen so far, and uses each fresh increment to
*cross-validate* the current histogram: partition the increment by the
current separators and measure the deviation δ_i (Definition 3).  Sampling
stops when δ_i drops below ``f * s_i / k`` where ``s_i`` is the increment's
tuple count — justified by Theorem 7, which shows this test reliably
separates histograms with error ``> 2f·n/k`` from those with error
``< f·n/(2k)``.

Configurable axes (the paper's "twists", Section 4.2):

- **step schedule** — doubling (analysis), the SQL Server ``5i*sqrt(n)``
  schedule (Section 7.1), or linear (ablation baseline);
- **validation sample** — the full increment, or one random tuple per block;
- **validation metric** — per-bucket counts (Definition 3) or the
  duplicate-safe fractional metric f′ (Definition 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._rng import RngLike, ensure_rng
from ..exceptions import BuildAbortedError, ParameterError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sampling.block_sampler import BlockSampleStream
from ..sampling.schedule import DoublingSchedule, StepSchedule
from ..storage.faults import BudgetTracker, ReadBudget, RetryPolicy
from ..storage.heapfile import HeapFile
from . import kernels
from .error_metrics import fractional_max_error, relative_deviation
from .histogram import EquiHeightHistogram

__all__ = ["CVBConfig", "CVBIteration", "CVBResult", "CVBSampler", "cvb_build"]

VALIDATION_MODES = ("full_increment", "one_per_block")
VALIDATION_METRICS = ("count", "fractional")


@dataclass(frozen=True)
class CVBConfig:
    """Tuning knobs for :class:`CVBSampler`.

    Parameters
    ----------
    k:
        Number of histogram buckets.
    f:
        Target max error as a fraction of the ideal bucket size ``n/k``.
    gamma:
        Failure probability used to size the initial sample (Theorem 4).
    validation:
        ``"full_increment"`` validates with every tuple of the fresh blocks;
        ``"one_per_block"`` uses one random tuple per block (decorrelated
        validation — the Section 4.2 twist).
    metric:
        ``"fractional"`` (default) thresholds f′ (Definition 4) against
        ``f`` — the duplicate-safe generalisation, which coincides with the
        plain fraction on distinct data; ``"count"`` thresholds δ_i
        (Definition 3) against ``f*s/k`` and is only meaningful when no
        value's multiplicity approaches ``n/k`` (Section 5).
    max_sampled_fraction:
        Hard budget: stop (without convergence) once this fraction of the
        file's pages has been sampled.  ``1.0`` allows a full scan, at which
        point the histogram is exact and the run is marked converged.
    min_validation_tuples:
        Increments smaller than this are merged without being trusted as a
        convergence signal (guards the early iterations where Theorem 7's
        sample-size requirement is not yet met).
    """

    k: int
    f: float = 0.1
    gamma: float = 0.01
    validation: str = "full_increment"
    metric: str = "fractional"
    max_sampled_fraction: float = 1.0
    min_validation_tuples: int = 0

    def __post_init__(self):
        if self.k <= 0:
            raise ParameterError(f"k must be positive, got {self.k}")
        if not 0 < self.f <= 1:
            raise ParameterError(f"f must be in (0, 1], got {self.f}")
        if not 0 < self.gamma < 1:
            raise ParameterError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.validation not in VALIDATION_MODES:
            raise ParameterError(
                f"validation must be one of {VALIDATION_MODES}, "
                f"got {self.validation!r}"
            )
        if self.metric not in VALIDATION_METRICS:
            raise ParameterError(
                f"metric must be one of {VALIDATION_METRICS}, got {self.metric!r}"
            )
        if not 0 < self.max_sampled_fraction <= 1:
            raise ParameterError(
                "max_sampled_fraction must be in (0, 1], got "
                f"{self.max_sampled_fraction}"
            )
        if self.min_validation_tuples < 0:
            raise ParameterError(
                "min_validation_tuples must be non-negative, got "
                f"{self.min_validation_tuples}"
            )


@dataclass(frozen=True)
class CVBIteration:
    """Trace record of one cross-validation round."""

    index: int
    increment_blocks: int
    increment_tuples: int
    cumulative_blocks: int
    cumulative_tuples: int
    observed_error: float
    threshold: float
    passed: bool


@dataclass
class CVBResult:
    """Outcome of a CVB run.

    Attributes
    ----------
    histogram:
        The final equi-height histogram (separators from, and counts of, the
        accumulated sample).
    sample:
        The accumulated sample, sorted.
    iterations:
        Per-round trace (round 0 is the initial, unvalidated sample).
    converged:
        True when the cross-validation test passed (or the whole file was
        read, making the histogram exact).
    exhausted:
        True when every page of the file ended up in the sample.
    pages_sampled / tuples_sampled:
        Total sampling cost.
    """

    histogram: EquiHeightHistogram
    sample: np.ndarray
    iterations: list[CVBIteration] = field(default_factory=list)
    converged: bool = False
    exhausted: bool = False
    pages_sampled: int = 0
    tuples_sampled: int = 0
    #: Pages consumed from the sampling order but never delivered (fault
    #: injection: corrupt, or transient retries exhausted).
    pages_skipped: int = 0
    #: Ids of the pages that were read, in sampling order.
    sampled_pages: np.ndarray | None = None

    def sampling_rate(self, n: int) -> float:
        """Fraction of the table's tuples that were read."""
        if n <= 0:
            raise ParameterError(f"n must be positive, got {n}")
        return self.tuples_sampled / n

    def describe(self) -> str:
        """Multi-line, human-readable trace of the run."""
        lines = [
            f"CVB run: {'converged' if self.converged else 'budget-stopped'}"
            f"{' (file exhausted)' if self.exhausted else ''}, "
            f"{self.pages_sampled:,} pages / {self.tuples_sampled:,} tuples"
            + (
                f", {self.pages_skipped:,} unreadable pages skipped"
                if self.pages_skipped
                else ""
            )
        ]
        for it in self.iterations:
            if it.index == 0:
                lines.append(
                    f"  round 0: initial sample of {it.increment_tuples:,} tuples"
                )
            else:
                verdict = "PASS" if it.passed else "fail"
                lines.append(
                    f"  round {it.index}: +{it.increment_tuples:,} tuples, "
                    f"error {it.observed_error:.4g} vs threshold "
                    f"{it.threshold:.4g} [{verdict}]"
                )
        return "\n".join(lines)


class CVBSampler:
    """Runs the adaptive sampling algorithm of Section 4.2 on a heap file.

    Parameters
    ----------
    config / schedule:
        The paper's tuning knobs (see :class:`CVBConfig`).
    retry:
        Optional :class:`~repro.storage.faults.RetryPolicy`: transient read
        faults are retried, and permanently unreadable pages are skipped
        from the sampling order and replaced by fresh draws, so the
        accumulated sample stays uniform over the readable pages.
    budget:
        Optional :class:`~repro.storage.faults.ReadBudget`: a per-build cap
        on failures/skips/simulated time.  Exceeding it aborts the build
        with :class:`~repro.exceptions.BuildAbortedError`.
    """

    def __init__(
        self,
        config: CVBConfig,
        schedule: StepSchedule | None = None,
        retry: RetryPolicy | None = None,
        budget: ReadBudget | None = None,
    ):
        self.config = config
        self._schedule = schedule
        self._retry = retry
        self._budget = budget

    def _budget_tracker(self, heapfile: HeapFile) -> BudgetTracker | None:
        if self._budget is None:
            return None
        return self._budget.tracker(heapfile.num_pages)

    def run(self, heapfile: HeapFile, rng: RngLike = None) -> CVBResult:
        """Build an approximate equi-height histogram for *heapfile*.

        Follows the algorithm box of Section 4.2:

        1. size the initial sample (see below) and build ``H_0``;
        2. repeatedly sample ``g_i`` fresh blocks, cross-validate, and merge
           until the observed deviation clears the threshold.
        """
        cfg = self.config
        generator = ensure_rng(rng)
        n = heapfile.num_records
        if n == 0:
            raise ParameterError("cannot build statistics over an empty file")
        with _trace.span(
            "cvb.build",
            iostats=heapfile.iostats,
            k=cfg.k,
            f=cfg.f,
            metric=cfg.metric,
            validation=cfg.validation,
        ) as build_span:
            return self._run(heapfile, generator, build_span)

    def _run(self, heapfile: HeapFile, generator, build_span) -> CVBResult:
        """Body of :meth:`run`, factored out so the build span wraps it."""
        cfg = self.config
        stream = BlockSampleStream(
            heapfile,
            rng=generator,
            retry=self._retry,
            budget=self._budget_tracker(heapfile),
        )
        increments = self._increments_for(heapfile)
        page_budget = max(
            1, math.floor(cfg.max_sampled_fraction * heapfile.num_pages)
        )

        first_blocks = min(next(increments), page_budget)
        sample = np.sort(stream.take(first_blocks))
        if sample.size == 0:
            if stream.pages_skipped:
                raise BuildAbortedError(
                    "initial sample is empty: every sampled page was "
                    f"unreadable ({stream.pages_skipped} skipped)"
                )
            raise ParameterError("initial sample is empty; file has no tuples")
        histogram = EquiHeightHistogram.from_sorted_values(sample, cfg.k)

        iterations = [
            CVBIteration(
                index=0,
                increment_blocks=stream.pages_taken,
                increment_tuples=int(sample.size),
                cumulative_blocks=stream.pages_taken,
                cumulative_tuples=int(sample.size),
                observed_error=float("nan"),
                threshold=float("nan"),
                passed=False,
            )
        ]
        return self._drive(
            heapfile,
            stream,
            sample,
            histogram,
            iterations,
            increments,
            page_budget,
            generator,
            build_span=build_span,
        )

    def _increments_for(self, heapfile: HeapFile):
        """The configured schedule's increments, defaulting to the prototype.

        The default follows Section 7.1's practice: start at ~5*sqrt(n)
        tuples and double.  The algorithm box's g_0 = r/b from Theorem 4 is
        available via DoublingSchedule(bounds.initial_blocks(...)), but that
        bound's constant is conservative enough to force near-full scans at
        moderate n — the whole point of cross-validation is stopping far
        earlier when the data allows.
        """
        if self._schedule is not None:
            return self._schedule.increments()
        n = heapfile.num_records
        b = heapfile.blocking_factor
        initial = max(1, math.ceil(5.0 * math.sqrt(n) / b))
        return DoublingSchedule(min(initial, heapfile.num_pages)).increments()

    def _drive(
        self,
        heapfile: HeapFile,
        stream: BlockSampleStream,
        sample: np.ndarray,
        histogram: EquiHeightHistogram,
        iterations: list[CVBIteration],
        increments,
        page_budget: int,
        generator,
        build_span=None,
    ) -> CVBResult:
        cfg = self.config

        converged = False
        while not converged:
            if stream.exhausted:
                # Every candidate page sampled: the accumulated sample is the
                # whole file, so the histogram is exact.
                converged = True
                break
            if stream.pages_taken >= page_budget:
                break

            want = next(increments)
            want = min(want, page_budget - stream.pages_taken)
            if want <= 0:
                break

            with _trace.span(
                "cvb.iteration",
                iostats=heapfile.iostats,
                index=len(iterations),
                requested_blocks=int(want),
            ) as iteration_span:
                # Sort once: f′ reads sorted values, and the same sorted
                # increment is what the merge below folds in.
                if cfg.validation == "one_per_block":
                    increment, validation_values = (
                        stream.take_one_tuple_per_block(want, rng=generator)
                    )
                    increment = np.sort(increment)
                    validation_values = np.sort(validation_values)
                else:
                    increment = np.sort(stream.take(want))
                    validation_values = increment
                if increment.size == 0:
                    iteration_span.set(empty_increment=True)
                    break

                observed, threshold = self._validate(
                    histogram, sample, validation_values
                )
                trusted = validation_values.size >= cfg.min_validation_tuples
                passed = trusted and observed < threshold

                # Step 4(c): merge and rebuild H_i whether or not the test
                # passed (the algorithm box outputs the *rebuilt* histogram
                # on exit).
                sample = kernels.merge_sorted(sample, increment)
                histogram = EquiHeightHistogram.from_sorted_values(
                    sample, cfg.k
                )
                converged = passed

                _metrics.inc("repro_cvb_iterations_total")
                if threshold > 0:
                    _metrics.observe(
                        "repro_cvb_deviation_ratio",
                        float(observed) / float(threshold),
                    )
                iteration_span.set(
                    increment_tuples=int(increment.size),
                    observed_error=float(observed),
                    threshold=float(threshold),
                    passed=passed,
                )

            iterations.append(
                CVBIteration(
                    index=len(iterations),
                    increment_blocks=int(want),
                    increment_tuples=int(increment.size),
                    cumulative_blocks=stream.pages_taken,
                    cumulative_tuples=int(sample.size),
                    observed_error=float(observed),
                    threshold=float(threshold),
                    passed=passed,
                )
            )

        if stream.exhausted and not converged:
            converged = True

        sampled_pages = stream.taken_ids
        outcome = "converged" if converged else "budget_stopped"
        _metrics.inc("repro_cvb_builds_total", outcome=outcome)
        _metrics.observe("repro_cvb_pages_sampled", int(sampled_pages.size))
        _metrics.observe("repro_cvb_tuples_sampled", int(sample.size))
        if build_span is not None:
            build_span.set(
                outcome=outcome,
                iterations=len(iterations),
                pages_sampled=int(sampled_pages.size),
                tuples_sampled=int(sample.size),
                pages_skipped=stream.pages_skipped,
            )

        return CVBResult(
            histogram=histogram,
            sample=sample,
            iterations=iterations,
            converged=converged,
            exhausted=stream.exhausted,
            pages_sampled=int(sampled_pages.size),
            tuples_sampled=int(sample.size),
            pages_skipped=stream.pages_skipped,
            sampled_pages=sampled_pages,
        )

    def _validate(
        self,
        histogram: EquiHeightHistogram,
        accumulated_sample: np.ndarray,
        validation_values: np.ndarray,
    ) -> tuple[float, float]:
        """Return ``(observed_error, threshold)`` for the configured metric.

        Both value arrays arrive sorted, as :func:`fractional_max_error`
        requires.
        """
        cfg = self.config
        if validation_values.size == 0:
            return float("inf"), 0.0
        if cfg.metric == "fractional":
            observed = fractional_max_error(
                histogram.separators, accumulated_sample, validation_values
            )
            return observed, cfg.f
        observed = relative_deviation(histogram, validation_values)
        threshold = cfg.f * validation_values.size / cfg.k
        return observed, threshold


def cvb_build(
    heapfile: HeapFile,
    k: int,
    f: float = 0.1,
    gamma: float = 0.01,
    rng: RngLike = None,
    retry: RetryPolicy | None = None,
    budget: ReadBudget | None = None,
    **config_kwargs,
) -> CVBResult:
    """One-call convenience wrapper around :class:`CVBSampler`."""
    config = CVBConfig(k=k, f=f, gamma=gamma, **config_kwargs)
    return CVBSampler(config, retry=retry, budget=budget).run(heapfile, rng=rng)
