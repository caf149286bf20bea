"""Extension experiment: sampling difficulty vs degree of clustering.

Figure 7 compares two points (random vs 20%-clustered).  The simulator
makes the full curve cheap: sweep the clustered fraction from 0 to 1 and
measure (a) the histogram error at a fixed block-sampling budget, and
(b) the ground-truth block requirement for a fixed error.  Expectation from
Section 4.1's scenario analysis: smooth, monotone degradation from the
"every page is worth b tuples" extreme to the "every page is worth ~1" one.
"""

import numpy as np

from repro.experiments import reporting
from repro.experiments.runner import (
    build_heapfile,
    mean_error_at_rate,
    required_blocks_for_error,
)
from repro.workloads.datasets import make_dataset

N, B, K = 200_000, 50, 50
FRACTIONS = (0.0, 0.2, 0.5, 0.8, 1.0)
RATE = 0.05
F_TARGET = 0.25


def evaluate():
    dataset = make_dataset("zipf2", N, rng=0)
    rows = []
    for fraction in FRACTIONS:
        hf = build_heapfile(
            dataset.values, "partial", B, rng=1, cluster_fraction=fraction
        )
        error = mean_error_at_rate(
            hf, dataset.values, RATE, K, trials=5, rng=2
        )
        required = required_blocks_for_error(
            hf, dataset.values, K, F_TARGET, trials=5, rng=3
        )
        rows.append((fraction, round(float(error), 3), required))
    return rows


def test_cluster_fraction_sweep(golden):
    rows = evaluate()
    golden(
        "benchmarks/results/ablation_cluster_sweep.txt",
        "\n\n".join(
            [
                reporting.paper_note(
                    "error at fixed budget and blocks required at fixed "
                    "error both grow as intra-page clustering increases "
                    "(Section 4.1 scenarios a -> c -> b)",
                    caveat=f"n={N:,}, b={B}, k={K}, budget rate {RATE:.0%}, "
                    f"target f={F_TARGET}",
                ),
                reporting.format_table(
                    ["clustered fraction", f"error @ {RATE:.0%}",
                     f"blocks for f<={F_TARGET}"],
                    rows,
                ),
            ]
        ) + "\n",
    )

    errors = [row[1] for row in rows]
    required = [row[2] for row in rows]
    # Ends of the sweep: fully clustered is much harder than fully random.
    assert errors[-1] > 2 * errors[0]
    assert required[-1] > 2 * required[0]
    # Every clustered configuration costs clearly more than random.  (Full
    # monotonicity is not asserted: at fraction 1.0 the hot value becomes
    # one giant run whose mass a few pages pin down exactly, which can make
    # the requirement dip relative to 0.8 — a real effect, visible in the
    # table, not noise.)
    for fraction, error, blocks in rows[1:]:
        assert error > 1.2 * errors[0], fraction
        assert blocks > 2 * required[0], fraction
