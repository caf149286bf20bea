"""Analytical sampling bounds — the paper's Theorems 1, 3, 4, 5, 7 and
Corollary 1, plus the Gibbons-Matias-Poosala bound (Theorem 6) used as the
analytic baseline, and the distinct-value lower bound (Theorem 8).

Every bound is exposed in its "multi-functional" forms (Example 3): solve
for the sample size ``r``, the error fraction ``f``, or the bucket count
``k`` given the other parameters.  Sample sizes are returned as exact ceil'd
integers; error fractions as floats.

Notation (consistent with the paper):

- ``n``     relation size (number of tuples),
- ``k``     number of histogram buckets,
- ``delta`` absolute per-bucket deviation bound,
- ``f``     deviation as a fraction of the ideal bucket size ``n/k``
            (``delta = f*n/k``),
- ``gamma`` failure probability,
- ``r``     sample size (tuples),
- ``b``     blocking factor (tuples per disk page),
- ``t``     range-query output size in units of ``n/k`` (``s = t*n/k``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import InfeasibleBoundError, ParameterError

__all__ = [
    "theorem4_sample_size",
    "theorem4_error",
    "corollary1_sample_size",
    "corollary1_error_fraction",
    "corollary1_max_buckets",
    "theorem5_sample_size",
    "theorem5_separation",
    "theorem7_reject_sample_size",
    "theorem7_accept_sample_size",
    "cross_validation_sample_size",
    "theorem1_perfect_absolute_error",
    "theorem1_perfect_relative_error",
    "theorem1_avg_absolute_error",
    "theorem1_avg_relative_error",
    "theorem1_var_absolute_error",
    "theorem1_var_relative_error",
    "theorem3_absolute_error",
    "theorem3_relative_error",
    "GMPBound",
    "gmp_theorem6",
    "gmp_error_fraction",
    "gmp_required_c",
    "gmp_required_log_k",
    "gmp_required_k",
    "theorem8_error_lower_bound",
    "theorem8_sample_size_for_error",
    "without_replacement_sample_size",
    "effective_with_replacement_size",
    "initial_blocks",
]


def _check_positive(**params) -> None:
    for name, value in params.items():
        if value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")


def _check_fraction(f: float) -> None:
    if not 0 < f <= 1:
        raise ParameterError(f"error fraction f must be in (0, 1], got {f}")


def _sample_size(numerator: float, denominator: float = 1.0) -> int:
    """``ceil(numerator / denominator)``, the form of every sample size here.

    Parameters at the edge of the float range (an ``f`` whose square
    underflows to 0, a ``gamma`` so small that ``ln(1/gamma)`` overflows)
    make the quotient infinite; no sample of that size exists.
    """
    size = numerator / denominator if denominator else math.inf
    if not math.isfinite(size):
        raise InfeasibleBoundError(
            f"the required sample size {numerator!r} / {denominator!r} "
            "is not a finite number"
        )
    return math.ceil(size)


# ----------------------------------------------------------------------
# Theorem 4 / Corollary 1: delta-deviance
# ----------------------------------------------------------------------

def theorem4_sample_size(n: int, k: int, delta: float, gamma: float) -> int:
    """Sample size guaranteeing a δ-deviant k-histogram w.p. ``>= 1-gamma``.

    Theorem 4: ``r >= 4*n^2*ln(2n/gamma) / (k*delta^2)`` for ``delta <= n/k``.
    """
    _check_positive(n=n, k=k, delta=delta)
    _check_gamma(gamma)
    if delta > n / k:
        raise ParameterError(
            f"Theorem 4 assumes delta <= n/k; got delta={delta} > {n / k:g}"
        )
    return _sample_size(
        4.0 * n * n * math.log(2.0 * n / gamma), k * delta * delta
    )


def theorem4_error(n: int, k: int, r: int, gamma: float) -> float:
    """The δ guaranteed by Theorem 4 for a sample of size *r*.

    ``delta >= sqrt(4*n^2*ln(2n/gamma) / (r*k))``.
    """
    _check_positive(n=n, k=k, r=r)
    _check_gamma(gamma)
    return math.sqrt(4.0 * n * n * math.log(2.0 * n / gamma) / (r * k))


def corollary1_sample_size(n: int, k: int, f: float, gamma: float) -> int:
    """Corollary 1: ``r >= 4*k*ln(2n/gamma) / f^2`` for ``delta = f*n/k``.

    Note the sample size is *independent of n* except through the logarithm —
    the paper's central practical observation.
    """
    _check_positive(n=n, k=k)
    _check_fraction(f)
    _check_gamma(gamma)
    return _sample_size(4.0 * k * math.log(2.0 * n / gamma), f * f)


def corollary1_error_fraction(n: int, k: int, r: int, gamma: float) -> float:
    """Corollary 1 solved for ``f``: the guaranteed fractional error of a
    sample of size *r* (Example 3, "Determining Histogram Error")."""
    _check_positive(n=n, k=k, r=r)
    _check_gamma(gamma)
    return math.sqrt(4.0 * k * math.log(2.0 * n / gamma) / r)


def corollary1_max_buckets(n: int, r: int, f: float, gamma: float) -> int:
    """Corollary 1 solved for ``k``: the largest histogram supportable by a
    sample of size *r* at fractional error *f* (Example 3, "Determining
    Histogram Size")."""
    _check_positive(n=n, r=r)
    _check_fraction(f)
    _check_gamma(gamma)
    k = r * f * f / (4.0 * math.log(2.0 * n / gamma))
    if k < 1:
        raise InfeasibleBoundError(
            f"sample of {r} cannot support even one bucket at f={f}, "
            f"gamma={gamma}, n={n}"
        )
    return math.floor(k)


# ----------------------------------------------------------------------
# Theorem 5: delta-separation
# ----------------------------------------------------------------------

def theorem5_sample_size(n: int, k: int, delta: float, gamma: float) -> int:
    """Sample size for δ-separation from the perfect histogram (Theorem 5):
    ``r >= 12*n^2*ln(2k/gamma) / delta^2``."""
    _check_positive(n=n, k=k, delta=delta)
    _check_gamma(gamma)
    if delta > n / k:
        raise ParameterError(
            f"Theorem 5 assumes delta <= n/k; got delta={delta} > {n / k:g}"
        )
    return _sample_size(
        12.0 * n * n * math.log(2.0 * k / gamma), delta * delta
    )


def theorem5_separation(n: int, k: int, r: int, gamma: float) -> float:
    """The δ-separation guaranteed by a sample of size *r* (Theorem 5)."""
    _check_positive(n=n, k=k, r=r)
    _check_gamma(gamma)
    return math.sqrt(12.0 * n * n * math.log(2.0 * k / gamma) / r)


# ----------------------------------------------------------------------
# Theorem 7: cross-validation sample sizes
# ----------------------------------------------------------------------

def theorem7_reject_sample_size(k: int, f: float, gamma: float) -> int:
    """Part 1 of Theorem 7: validation-sample size that exposes a *bad*
    histogram (deviation ``>= 2f*n/k``) with probability ``>= 1-gamma``:
    ``s >= 4*k*ln(1/gamma) / f^2``."""
    _check_positive(k=k)
    _check_fraction(f)
    _check_gamma(gamma)
    return _sample_size(4.0 * k * math.log(1.0 / gamma), f * f)


def theorem7_accept_sample_size(k: int, f: float, gamma: float) -> int:
    """Part 2 of Theorem 7: validation-sample size under which a *good*
    histogram (deviation ``<= f*n/(2k)``) passes with probability
    ``>= 1-gamma``: ``s >= 16*k*ln(k/gamma) / f^2``."""
    _check_positive(k=k)
    _check_fraction(f)
    _check_gamma(gamma)
    return _sample_size(16.0 * k * math.log(k / gamma), f * f)


def cross_validation_sample_size(k: int, f: float, gamma: float) -> int:
    """Validation-sample size satisfying both parts of Theorem 7."""
    return max(
        theorem7_reject_sample_size(k, f, gamma),
        theorem7_accept_sample_size(k, f, gamma),
    )


# ----------------------------------------------------------------------
# Theorems 1 and 3: range-query estimation error
# ----------------------------------------------------------------------

def theorem1_perfect_absolute_error(n: int, k: int) -> float:
    """Worst-case absolute range-estimation error of a *perfect* equi-height
    histogram: ``2n/k`` (Theorem 1, part 1)."""
    _check_positive(n=n, k=k)
    return 2.0 * n / k


def theorem1_perfect_relative_error(t: float) -> float:
    """Worst-case relative error of a perfect histogram on a query of output
    size ``t*n/k``: ``2/t`` (Theorem 1, part 1)."""
    _check_positive(t=t)
    return 2.0 / t


def theorem1_avg_absolute_error(n: int, k: int, f: float) -> float:
    """Worst case under an Δavg ``= f*n/k`` bound: ``(1 + f*k/4) * 2n/k``."""
    _check_positive(n=n, k=k, f=f)
    return (1.0 + f * k / 4.0) * 2.0 * n / k


def theorem1_avg_relative_error(k: int, f: float, t: float) -> float:
    """Relative-error counterpart: ``(1 + f*k/4) * 2/t``."""
    _check_positive(k=k, f=f, t=t)
    return (1.0 + f * k / 4.0) * 2.0 / t


def theorem1_var_absolute_error(n: int, k: int, f: float, t: float) -> float:
    """Worst case under a Δvar ``= f*n/k`` bound:
    ``(1 + f*sqrt(k*t/8)) * 2n/k``."""
    _check_positive(n=n, k=k, f=f, t=t)
    return (1.0 + f * math.sqrt(k * t / 8.0)) * 2.0 * n / k


def theorem1_var_relative_error(k: int, f: float, t: float) -> float:
    """Relative-error counterpart: ``(1 + f*sqrt(k*t/8)) * 2/t``."""
    _check_positive(k=k, f=f, t=t)
    return (1.0 + f * math.sqrt(k * t / 8.0)) * 2.0 / t


def theorem3_absolute_error(n: int, k: int, f: float) -> float:
    """Guarantee under a Δmax ``= f*n/k`` bound: ``alpha <= (1+f) * 2n/k``
    for *all* range queries (Theorem 3)."""
    _check_positive(n=n, k=k, f=f)
    return (1.0 + f) * 2.0 * n / k


def theorem3_relative_error(f: float, t: float) -> float:
    """Relative-error counterpart: ``beta <= (1+f) * 2/t`` (Theorem 3)."""
    _check_positive(f=f, t=t)
    return (1.0 + f) * 2.0 / t


# ----------------------------------------------------------------------
# Theorem 6: the Gibbons-Matias-Poosala baseline bound
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GMPBound:
    """The guarantee of GMP's Theorem 6 for parameters ``(k, c, n)``.

    Attributes
    ----------
    r:
        Required sample size ``c*k*ln^2(k)``.
    f:
        Guaranteed Δvar fraction ``(c*ln^2 k)^(-1/6)``.
    gamma:
        Failure probability ``k^(1-sqrt(c)) + n^(-1/3)``.
    n_min:
        The theorem needs ``n >= r^3`` (as evaluated in Example 4.2 of the
        paper); ``feasible`` reports whether the supplied *n* satisfies it.
    """

    k: int
    c: float
    n: int
    r: int
    f: float
    gamma: float
    n_min: int

    @property
    def feasible(self) -> bool:
        """True when the bound is satisfiable for this table size."""
        return self.n >= self.n_min and self.gamma < 1.0


def gmp_theorem6(k: int, c: float, n: int) -> GMPBound:
    """Evaluate Theorem 6 of Gibbons-Matias-Poosala for ``(k, c, n)``.

    Requires ``k >= 3`` and ``c >= 4`` as in the theorem statement.
    """
    if k < 3:
        raise ParameterError(f"Theorem 6 requires k >= 3, got {k}")
    if c < 4:
        raise ParameterError(f"Theorem 6 requires c >= 4, got {c}")
    _check_positive(n=n)
    log_k = math.log(k)
    r = _sample_size(c * k * log_k * log_k)
    f = (c * log_k * log_k) ** (-1.0 / 6.0)
    gamma = k ** (1.0 - math.sqrt(c)) + n ** (-1.0 / 3.0)
    n_min = r**3
    return GMPBound(k=k, c=c, n=n, r=r, f=f, gamma=gamma, n_min=n_min)


def gmp_error_fraction(k: int, c: float) -> float:
    """The Δvar fraction ``f = (c*ln^2 k)^(-1/6)`` promised by Theorem 6."""
    if k < 3:
        raise ParameterError(f"Theorem 6 requires k >= 3, got {k}")
    if c < 4:
        raise ParameterError(f"Theorem 6 requires c >= 4, got {c}")
    log_k = math.log(k)
    return (c * log_k * log_k) ** (-1.0 / 6.0)


def gmp_required_c(k: int, f: float) -> float:
    """The ``c`` Theorem 6 needs to promise fraction *f* at *k* buckets:
    ``c = f^(-6) / ln^2(k)``, floored at the theorem's minimum ``c = 4``.

    Large returned values are the point of the paper's Example 4.3: pushing
    ``f`` down through ``c`` blows up the sample size ``r = c*k*ln^2 k``
    (and the validity requirement ``n >= r^3``) sextically.
    """
    if k < 3:
        raise ParameterError(f"Theorem 6 requires k >= 3, got {k}")
    _check_fraction(f)
    log_k = math.log(k)
    return max(4.0, f ** (-6.0) / (log_k * log_k))


def gmp_required_log_k(f: float, c: float = 4.0) -> float:
    """``ln k`` needed by Theorem 6 to reach fraction *f* at fixed *c*:
    ``ln k = sqrt(f^(-6) / c)``.

    Returned as a logarithm because the paper's Example 4.4 values overflow
    floats: f = 0.1 at c = 4 needs ``k > e^500``.
    """
    _check_fraction(f)
    if c < 4:
        raise ParameterError(f"Theorem 6 requires c >= 4, got {c}")
    return math.sqrt(f ** (-6.0) / c)


def gmp_required_k(f: float, c: float = 4.0) -> float:
    """``k`` needed by Theorem 6 for fraction *f* at fixed *c* (may be
    ``inf`` when the exponent overflows — which is the paper's point)."""
    log_k = gmp_required_log_k(f, c)
    try:
        return math.exp(log_k)
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------
# Theorem 8: distinct-value estimation lower bound
# ----------------------------------------------------------------------

def theorem8_error_lower_bound(n: int, r: int, gamma: float) -> float:
    """No distinct-value estimator can beat ratio error
    ``sqrt(n*ln(1/gamma) / r)`` with probability ``1-gamma`` (Theorem 8).

    Valid for ``gamma > e^(-r)``.
    """
    _check_positive(n=n, r=r)
    _check_gamma(gamma)
    if gamma <= math.exp(-r):
        raise ParameterError(
            f"Theorem 8 requires gamma > e^-r; gamma={gamma} too small for r={r}"
        )
    return math.sqrt(n * math.log(1.0 / gamma) / r)


def theorem8_sample_size_for_error(n: int, error: float, gamma: float) -> int:
    """Sample size below which ratio error *error* is unachievable:
    Theorem 8 inverted, ``r = n*ln(1/gamma) / error^2``."""
    _check_positive(n=n, error=error)
    _check_gamma(gamma)
    if error <= 1.0:
        raise ParameterError(
            f"ratio error is always >= 1; got target {error}"
        )
    return _sample_size(n * math.log(1.0 / gamma), error * error)


# ----------------------------------------------------------------------
# Sampling without replacement
# ----------------------------------------------------------------------

def without_replacement_sample_size(r_with: int, n: int) -> int:
    """Sample size without replacement matching *r_with* draws with
    replacement.

    Section 3.1: the theorems are proved for sampling with replacement; the
    results "carry over" to sampling without replacement because the
    hypergeometric distribution concentrates at least as fast as the
    binomial.  The standard finite-population correction makes the
    equivalence quantitative: a without-replacement sample of size
    ``r / (1 + (r-1)/n)`` has the same estimator variance as ``r``
    with-replacement draws, so prescribing that (smaller) size is safe.
    """
    _check_positive(r_with=r_with, n=n)
    return min(n, _sample_size(r_with, 1.0 + (r_with - 1.0) / n))


def effective_with_replacement_size(r_without: int, n: int) -> float:
    """The with-replacement sample size a without-replacement sample of
    *r_without* is worth (the inverse of the finite-population correction:
    ``r / (1 - (r-1)/n)``, capped at infinity as r approaches n)."""
    _check_positive(r_without=r_without, n=n)
    if r_without > n:
        raise ParameterError(
            f"cannot draw {r_without} without replacement from {n}"
        )
    denominator = 1.0 - (r_without - 1.0) / n
    if denominator <= 0:
        return math.inf
    return r_without / denominator


# ----------------------------------------------------------------------
# Block-sampling helpers
# ----------------------------------------------------------------------

def initial_blocks(n: int, k: int, f: float, gamma: float, b: int) -> int:
    """Step 1 of the CVB algorithm: ``g_0 = r/b`` pages, with ``r`` from
    Corollary 1 (uncorrelated pages make one page worth ``b`` tuples)."""
    _check_positive(b=b)
    r = corollary1_sample_size(n, k, f, gamma)
    return max(1, _sample_size(r, b))
