"""Distinct-value estimators.

The centrepiece is :class:`GEEEstimator`, the paper's new estimator
(Section 6.2):

    ``e = sqrt(n/r) * max(f_1, 1) + sum_{j>=2} f_j``

Values seen at least twice are certainly frequent enough to be counted
directly; each singleton "represents" about ``n/r`` tuples that could hold
anywhere between 1 and ``n/r`` distinct values, and the geometric mean
``sqrt(n/r)`` balances those extremes — which is what makes the estimator's
worst-case ratio error match the Theorem 8 lower bound up to constants.

The classical estimators the paper measures against (via Haas et al. [10])
are implemented too: naive, scale-up, first/second-order jackknife
(Burnham-Overton), Chao, Chao-Lee, Shlosser, and Goodman's unbiased
estimator.  A :class:`HybridEstimator` instantiates the paper's suggested
hybrid: test the sample for uniformity and delegate to a low-skew specialist
(Shlosser) or to GEE.

All estimators consume a :class:`~repro.distinct.frequency.FrequencyProfile`
plus the relation size ``n``, and clamp results into the feasible interval
``[d_samp, n]``.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ParameterError
from .frequency import FrequencyProfile

__all__ = [
    "DistinctValueEstimator",
    "NaiveEstimator",
    "ScaleUpEstimator",
    "GEEEstimator",
    "JackknifeEstimator",
    "SecondOrderJackknifeEstimator",
    "ChaoEstimator",
    "ChaoLeeEstimator",
    "ShlosserEstimator",
    "GoodmanEstimator",
    "FiniteJackknifeEstimator",
    "BootstrapEstimator",
    "HybridEstimator",
    "ALL_ESTIMATORS",
    "estimate_all",
]


def _clamp(estimate: float, profile: FrequencyProfile, n: int) -> float:
    """Clamp into the feasible range: at least what we saw, at most n."""
    return float(min(max(estimate, profile.distinct_in_sample), n))


def _check_inputs(profile: FrequencyProfile, n: int) -> None:
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if profile.sample_size > n:
        raise ParameterError(
            f"sample size {profile.sample_size} exceeds relation size {n}"
        )


class DistinctValueEstimator:
    """Interface: estimate ``d`` from a sample's frequency profile."""

    #: Short name used in benchmark tables.
    name: str = "base"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Estimate the distinct count from *profile* over *n* rows."""
        raise NotImplementedError

    def estimate_from_sample(self, sample: np.ndarray, n: int) -> float:
        """Convenience: profile the raw sample, then estimate."""
        return self.estimate(FrequencyProfile.from_sample(sample), n)


class NaiveEstimator(DistinctValueEstimator):
    """``d_hat = d_samp`` — report what was seen.  Always an underestimate;
    this is the *numDVSamp* curve in Figures 9 and 10."""

    name = "naive"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Distinct values in the sample, unscaled (a lower bound)."""
        _check_inputs(profile, n)
        return float(profile.distinct_in_sample)


class ScaleUpEstimator(DistinctValueEstimator):
    """``d_hat = d_samp * n/r`` — linear extrapolation.  Wildly high for
    data with heavy duplication."""

    name = "scale_up"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Sample distinct count scaled by ``n / r``."""
        _check_inputs(profile, n)
        r = profile.sample_size
        return _clamp(profile.distinct_in_sample * n / r, profile, n)


class GEEEstimator(DistinctValueEstimator):
    """The paper's estimator (Section 6.2):
    ``e = sqrt(n/r) * max(f_1, 1) + sum_{j>=2} f_j``.

    Near-optimal with respect to Theorem 8: its worst-case ratio error is
    ``O(sqrt(n/r))``, matching the lower bound at constant ``gamma``.
    This is the *numDVEst* curve in Figures 9 and 10.
    """

    name = "gee"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """The paper's Guaranteed-Error Estimator (Section 6.3)."""
        _check_inputs(profile, n)
        r = profile.sample_size
        f1_plus = max(profile.singletons, 1)
        estimate = math.sqrt(n / r) * f1_plus + profile.multiples
        return _clamp(estimate, profile, n)


class JackknifeEstimator(DistinctValueEstimator):
    """First-order jackknife (Burnham-Overton [2,3]):
    ``d_hat = d_samp + f_1 * (r-1)/r``."""

    name = "jackknife1"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """First-order jackknife estimate."""
        _check_inputs(profile, n)
        r = profile.sample_size
        if r <= 1:
            return _clamp(profile.distinct_in_sample, profile, n)
        estimate = profile.distinct_in_sample + profile.singletons * (r - 1) / r
        return _clamp(estimate, profile, n)


class SecondOrderJackknifeEstimator(DistinctValueEstimator):
    """Second-order jackknife (Burnham-Overton):
    ``d_hat = d_samp + 2*f_1 - f_2`` (with the standard small-sample
    corrections dropped as r grows)."""

    name = "jackknife2"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Second-order jackknife estimate."""
        _check_inputs(profile, n)
        r = profile.sample_size
        if r <= 2:
            return _clamp(profile.distinct_in_sample, profile, n)
        f1, f2 = profile.singletons, profile.f(2)
        estimate = (
            profile.distinct_in_sample
            + f1 * (2 * r - 3) / r
            - f2 * (r - 2) ** 2 / (r * (r - 1))
        )
        return _clamp(estimate, profile, n)


class ChaoEstimator(DistinctValueEstimator):
    """Chao's 1984 estimator: ``d_hat = d_samp + f_1^2 / (2*f_2)``.

    Undefined when ``f_2 = 0``; the bias-corrected variant
    ``f_1*(f_1-1) / (2*(f_2+1))`` is used then.
    """

    name = "chao"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Chao's f1^2/(2 f2) coverage estimate."""
        _check_inputs(profile, n)
        f1, f2 = profile.singletons, profile.f(2)
        if f2 > 0:
            extra = f1 * f1 / (2.0 * f2)
        else:
            extra = f1 * (f1 - 1) / 2.0
        return _clamp(profile.distinct_in_sample + extra, profile, n)


class ChaoLeeEstimator(DistinctValueEstimator):
    """Chao-Lee coverage-based estimator.

    Estimated coverage ``C = 1 - f_1/r``; ``d_hat = d_samp/C +
    r*(1-C)/C * gamma^2`` where ``gamma^2`` is the estimated squared
    coefficient of variation of the class sizes.
    """

    name = "chao_lee"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Chao-Lee coverage estimate with a skew correction."""
        _check_inputs(profile, n)
        r = profile.sample_size
        d = profile.distinct_in_sample
        f1 = profile.singletons
        coverage = 1.0 - f1 / r
        if coverage <= 0:
            # Every sampled value was unique: coverage unknown, fall back to
            # the scale-up guess, which is this estimator's C -> 0 limit.
            return _clamp(d * n / r, profile, n)
        d_cov = d / coverage
        j = profile.occurrence_counts.astype(np.float64)
        f = profile.value_counts.astype(np.float64)
        sum_term = float((j * (j - 1) * f).sum())
        gamma_sq = max(0.0, d_cov * sum_term / (r * (r - 1.0)) - 1.0) if r > 1 else 0.0
        estimate = d_cov + r * (1.0 - coverage) / coverage * gamma_sq
        return _clamp(estimate, profile, n)


class ShlosserEstimator(DistinctValueEstimator):
    """Shlosser's estimator for Bernoulli/fraction sampling:

    ``d_hat = d_samp + f_1 * sum_i (1-q)^i f_i / sum_i i*q*(1-q)^(i-1) f_i``

    with ``q = r/n``.  Performs well when sampled fraction is non-trivial
    and skew is moderate — the specialist the hybrid uses for uniform-ish
    samples.
    """

    name = "shlosser"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Shlosser's estimate for Bernoulli samples."""
        _check_inputs(profile, n)
        r = profile.sample_size
        q = r / n
        if q >= 1.0:
            return float(profile.distinct_in_sample)
        j = profile.occurrence_counts.astype(np.float64)
        f = profile.value_counts.astype(np.float64)
        one_minus_q = 1.0 - q
        numerator = float(((one_minus_q**j) * f).sum())
        denominator = float((j * q * one_minus_q ** (j - 1.0) * f).sum())
        if denominator <= 0:
            return _clamp(profile.distinct_in_sample, profile, n)
        estimate = profile.distinct_in_sample + profile.singletons * (
            numerator / denominator
        )
        return _clamp(estimate, profile, n)


class GoodmanEstimator(DistinctValueEstimator):
    """Goodman's 1949 unbiased estimator for sampling without replacement.

    ``d_hat = d_samp + sum_{i=1}^{r} (-1)^(i+1) *
    [ (n-r+i-1)! (r-i)! / ((n-r-1)! r!) ] * f_i``

    Unbiased but notoriously unstable — the alternating factorial terms
    explode unless ``r`` is close to ``n`` (this is the known failure that
    Section 6.1 cites from [10, 23]).  Computed in log space via ``gammaln``
    and clamped; expect nonsense for small sampling fractions, which is the
    point the paper makes.
    """

    name = "goodman"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Goodman's unbiased (but unstable) estimate."""
        from scipy import special  # lazily: scipy would dominate import time

        _check_inputs(profile, n)
        r = profile.sample_size
        if r >= n:
            return float(profile.distinct_in_sample)
        j = profile.occurrence_counts.astype(np.float64)
        f = profile.value_counts.astype(np.float64)
        # log of (n-r+i-1)! (r-i)! / ((n-r-1)! r!) for each occupied level i.
        log_terms = (
            special.gammaln(n - r + j)
            + special.gammaln(r - j + 1)
            - special.gammaln(n - r)
            - special.gammaln(r + 1)
        )
        signs = np.where(j % 2 == 1, 1.0, -1.0)
        # Overflowing terms produce inf - inf = nan in the sum; both are
        # expected here (they are exactly the instability being modelled)
        # and handled by the finiteness check below.
        with np.errstate(over="ignore", invalid="ignore"):
            correction = float((signs * np.exp(log_terms) * f).sum())
        if not math.isfinite(correction):
            # Overflowed: report the clamped extreme of the matching sign.
            return float(n) if correction > 0 else float(
                profile.distinct_in_sample
            )
        return _clamp(profile.distinct_in_sample + correction, profile, n)


class FiniteJackknifeEstimator(DistinctValueEstimator):
    """First-order jackknife with the finite-population (sampling fraction)
    correction of Haas et al [10]:

    ``d_hat = d_samp / (1 - (1-q) * f_1 / r)`` with ``q = r/n``.

    As q -> 1 the correction vanishes and the estimator reports what it saw;
    as q -> 0 it approaches ``d / (1 - f_1/r)``, blowing up when everything
    is a singleton — the documented failure mode on low-duplication data.
    """

    name = "jackknife_fp"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Finite-population jackknife estimate."""
        _check_inputs(profile, n)
        r = profile.sample_size
        q = r / n
        denominator = 1.0 - (1.0 - q) * profile.singletons / r
        if denominator <= 0:
            return float(n)
        return _clamp(profile.distinct_in_sample / denominator, profile, n)


class BootstrapEstimator(DistinctValueEstimator):
    """Smith & van Belle's bootstrap estimator:

    ``d_hat = d_samp + sum_v (1 - c_v/r)^r``

    over the values v observed in the sample.  Adds, for each observed
    value, the probability that a bootstrap resample would miss it —
    a mild, low-variance correction that underestimates sharply when many
    values were never sampled at all.
    """

    name = "bootstrap"

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Bootstrap resampling estimate."""
        _check_inputs(profile, n)
        r = profile.sample_size
        j = profile.occurrence_counts.astype(np.float64)
        f = profile.value_counts.astype(np.float64)
        missing_mass = float((((1.0 - j / r) ** r) * f).sum())
        return _clamp(
            profile.distinct_in_sample + missing_mass, profile, n
        )


class HybridEstimator(DistinctValueEstimator):
    """The paper's proposed hybrid variant (Section 6.2).

    The paper suggests a hybrid of GEE with a specialist but leaves the
    mechanism to the full version; we instantiate the standard recipe (used
    by the authors' follow-up work): run a chi-squared uniformity test on the
    sampled value frequencies — if the sample is consistent with low skew,
    use Shlosser's estimator (accurate there); otherwise keep GEE's
    worst-case-safe answer.
    """

    name = "hybrid"

    def __init__(self, significance: float = 0.05):
        if not 0 < significance < 1:
            raise ParameterError(
                f"significance must be in (0, 1), got {significance}"
            )
        self.significance = significance
        self._gee = GEEEstimator()
        self._shlosser = ShlosserEstimator()

    def looks_uniform(self, profile: FrequencyProfile) -> bool:
        """Chi-squared test of 'all sampled values equally likely'."""
        from scipy import stats  # lazily: scipy would dominate import time

        d = profile.distinct_in_sample
        r = profile.sample_size
        if d < 2 or r <= d:
            return True
        observed = np.repeat(
            profile.occurrence_counts, profile.value_counts
        ).astype(np.float64)
        expected = r / d
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p_value = float(stats.chi2.sf(chi2, df=d - 1))
        return p_value >= self.significance

    def estimate(self, profile: FrequencyProfile, n: int) -> float:
        """Skew-routed hybrid: picks a base estimator per profile."""
        _check_inputs(profile, n)
        if self.looks_uniform(profile):
            return self._shlosser.estimate(profile, n)
        return self._gee.estimate(profile, n)


#: The estimators compared in benchmarks, in presentation order.
ALL_ESTIMATORS: tuple[DistinctValueEstimator, ...] = (
    NaiveEstimator(),
    ScaleUpEstimator(),
    GEEEstimator(),
    JackknifeEstimator(),
    SecondOrderJackknifeEstimator(),
    ChaoEstimator(),
    ChaoLeeEstimator(),
    ShlosserEstimator(),
    GoodmanEstimator(),
    FiniteJackknifeEstimator(),
    BootstrapEstimator(),
    HybridEstimator(),
)


def estimate_all(
    sample: np.ndarray,
    n: int,
    estimators: tuple[DistinctValueEstimator, ...] = ALL_ESTIMATORS,
) -> dict[str, float]:
    """Run every estimator on one sample; returns ``{name: estimate}``."""
    profile = FrequencyProfile.from_sample(sample)
    return {est.name: est.estimate(profile, n) for est in estimators}
