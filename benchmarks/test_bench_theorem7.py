"""Theorem 7 validation: the cross-validation test separates good from bad
histograms.

Paper: with a validation sample of s >= O(k/f^2) tuples, a histogram with
max error > 2f*n/k almost always shows deviation >= f*s/k on the sample
(part 1), while one with max error < f*n/(2k) almost never does (part 2) —
so CVB neither stops too early nor keeps sampling too long.
"""

import numpy as np

from repro.core import bounds
from repro.core.error_metrics import relative_deviation
from repro.core.histogram import EquiHeightHistogram
from repro.experiments import reporting
from repro.sampling.record_sampler import sample_with_replacement

N, K, F, GAMMA = 500_000, 10, 0.2, 0.1
TRIALS = 30


def build_histogram_with_deviation(data, deviation):
    perfect = EquiHeightHistogram.from_sorted_values(data, K)
    seps = perfect.separators.copy()
    seps[0] = seps[0] + deviation  # bucket 0 grows by `deviation` values
    return EquiHeightHistogram.from_separators(np.sort(seps), data)


def flag_rates():
    data = np.arange(N)
    s = min(N, bounds.cross_validation_sample_size(K, F, GAMMA))
    rows = []
    for label, deviation in [
        ("bad: 2f*n/k", int(2 * F * N / K)),
        ("marginal: f*n/k", int(F * N / K)),
        ("good: f*n/(2k)", int(F * N / (2 * K))),
        ("perfect: 0", 0),
    ]:
        hist = build_histogram_with_deviation(data, deviation)
        flagged = 0
        for seed in range(TRIALS):
            sample = sample_with_replacement(data, s, seed)
            if relative_deviation(hist, sample) >= F * s / K:
                flagged += 1
        rows.append((label, deviation, flagged / TRIALS))
    return s, rows


def test_theorem7_separation(report):
    s, rows = flag_rates()
    report(
        "theorem7_cross_validation",
        "\n\n".join(
            [
                reporting.paper_note(
                    "bad histograms flagged ~always, good ones ~never; "
                    "the test is a reliable stopping rule",
                    caveat=f"n={N:,}, k={K}, f={F}, validation sample s={s:,}, "
                    f"{TRIALS} trials",
                ),
                reporting.format_table(
                    ["histogram", "built-in deviation", "flag rate"], rows
                ),
            ]
        ),
    )

    by_label = {label: rate for label, _, rate in rows}
    assert by_label["bad: 2f*n/k"] >= 1 - GAMMA
    assert by_label["good: f*n/(2k)"] <= GAMMA
    assert by_label["perfect: 0"] <= GAMMA
    # Monotone in the underlying deviation.
    rates = [rate for _, _, rate in rows]
    assert rates == sorted(rates, reverse=True)
