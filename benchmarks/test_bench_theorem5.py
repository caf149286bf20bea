"""Theorem 5 validation: δ-separation at the prescribed sample size.

The stronger guarantee: not only are the approximate histogram's bucket
*sizes* within δ of ideal (Theorem 4), every bucket's *contents* differ
from the perfect histogram's by at most δ (symmetric difference,
Definition 2).  Theorem 5 prescribes r >= 12*n^2*ln(2k/gamma)/delta^2 —
a constant factor more than Theorem 4, as the bench's side-by-side shows.
"""

import numpy as np

from repro.core import bounds
from repro.core.error_metrics import separation_error
from repro.core.histogram import EquiHeightHistogram
from repro.experiments import reporting
from repro.sampling.record_sampler import sample_with_replacement

N, K, GAMMA = 100_000, 10, 0.1
TRIALS = 12


def evaluate():
    data = np.arange(N)
    perfect = EquiHeightHistogram.from_sorted_values(data, K)
    rows = []
    for f in (0.5, 1.0):
        delta = f * N / K
        r = min(N, bounds.theorem5_sample_size(N, K, delta, GAMMA))
        violations = 0
        measured = []
        for seed in range(TRIALS):
            sample = sample_with_replacement(data, r, seed)
            approx = EquiHeightHistogram.from_values(sample, K)
            sep = separation_error(
                approx.separators, perfect.separators, data
            )
            measured.append(sep)
            if sep > delta:
                violations += 1
        rows.append(
            (
                f,
                r,
                int(delta),
                int(np.mean(measured)),
                violations,
            )
        )
    return rows


def test_theorem5_separation_guarantee(golden):
    rows = evaluate()
    thm4 = bounds.theorem4_sample_size(N, K, 0.5 * N / K, GAMMA)
    thm5 = bounds.theorem5_sample_size(N, K, 0.5 * N / K, GAMMA)
    golden(
        "benchmarks/results/theorem5_validation.txt",
        "\n\n".join(
            [
                reporting.paper_note(
                    "delta-separation achieved at the prescribed r in every "
                    "trial; Theorem 5's prescription is a constant factor "
                    "above Theorem 4's",
                    caveat=f"n={N:,}, k={K}, gamma={GAMMA}, {TRIALS} trials; "
                    f"at delta=0.5n/k: Thm4 r={thm4:,}, Thm5 r={thm5:,} "
                    f"(ratio {thm5 / thm4:.1f})",
                ),
                reporting.format_table(
                    ["f", "prescribed r", "delta", "mean separation",
                     "violations"],
                    rows,
                ),
            ]
        ) + "\n",
    )

    for f, _r, delta, mean_sep, violations in rows:
        assert violations <= max(1, int(GAMMA * TRIALS))
        assert mean_sep < delta
    # The constant-factor relationship between the two prescriptions.
    assert 2 <= thm5 / thm4 <= 12 * K / 4 + 1
