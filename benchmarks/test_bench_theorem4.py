"""Theorem 4 / Corollary 1 validation: prescribed samples deliver the
promised deviation.

Monte-Carlo check at bench scale: at the Corollary 1 sample size the
histogram is delta-deviant in (at least) a 1-gamma fraction of trials — in
practice all of them, because the bound is conservative — and the measured
error follows the 1/sqrt(r) law the formula predicts.
"""

import numpy as np

from repro.core import bounds
from repro.core.error_metrics import max_error_fraction
from repro.core.histogram import EquiHeightHistogram
from repro.experiments import reporting
from repro.sampling.record_sampler import sample_with_replacement

N, K, GAMMA = 200_000, 20, 0.1
TRIALS = 20


def deviance_trial_rates():
    data = np.arange(N)
    rows = []
    for f in (0.3, 0.5):
        r = min(N, bounds.corollary1_sample_size(N, K, f, GAMMA))
        violations = 0
        measured = []
        for seed in range(TRIALS):
            sample = sample_with_replacement(data, r, seed)
            approx = EquiHeightHistogram.from_values(sample, K)
            err = max_error_fraction(approx.recount(data).counts)
            measured.append(err)
            if err > f:
                violations += 1
        rows.append((f, r, float(np.mean(measured)), violations))
    return rows


def error_scaling_series():
    data = np.arange(N)
    series = []
    for r in (2_000, 8_000, 32_000, 128_000):
        errs = []
        for seed in range(8):
            sample = sample_with_replacement(data, r, seed)
            approx = EquiHeightHistogram.from_values(sample, K)
            errs.append(max_error_fraction(approx.recount(data).counts))
        series.append((r, float(np.mean(errs))))
    return series


def test_theorem4_guarantee_holds(report):
    rows = deviance_trial_rates()
    scaling = error_scaling_series()
    report(
        "theorem4_validation",
        "\n\n".join(
            [
                reporting.paper_note(
                    "prescribed r yields delta-deviance w.p. >= 1-gamma; "
                    "error ~ 1/sqrt(r)",
                    caveat=f"n={N:,}, k={K}, gamma={GAMMA}, {TRIALS} trials",
                ),
                reporting.format_table(
                    ["f", "prescribed r", "mean measured f", "violations"],
                    rows,
                ),
                reporting.format_table(["r", "mean measured f"], scaling),
            ]
        ),
    )

    for f, _r, mean_f, violations in rows:
        assert violations <= max(1, int(GAMMA * TRIALS))
        # Conservative bound: measured error sits well below the target.
        assert mean_f < f

    # 1/sqrt(r): quadrupling r should roughly halve the error.
    errs = [e for _, e in scaling]
    for a, b in zip(errs, errs[1:]):
        assert b < a
    assert errs[0] / errs[-1] > 3  # 64x samples -> ideally 8x, allow slack
