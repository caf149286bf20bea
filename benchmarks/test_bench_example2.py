"""Example 2: the three error metrics on the paper's fixed bucket vector.

Paper: bucket sizes 88, 101, 87, 88, 89, 180, 90, 88, 103, 86 over n=1000,
k=10 give Δavg = 16.8, Δvar = 27.5 (27.25 exact), Δmax = 80.0 — the gap
between the metrics grows unboundedly with k (Theorem 2 gives the ordering).
"""

import numpy as np

from repro.core.error_metrics import avg_error, max_error, var_error
from repro.experiments import reporting

EXAMPLE2 = np.array([88, 101, 87, 88, 89, 180, 90, 88, 103, 86])


def compute():
    return {
        "avg": avg_error(EXAMPLE2),
        "var": var_error(EXAMPLE2),
        "max": max_error(EXAMPLE2),
    }


def test_example2_metric_values(golden):
    metrics = compute()
    text = "\n\n".join(
        [
            reporting.paper_note(
                "Δavg = 16.8, Δvar = 27.5 (exact 27.25), Δmax = 80.0"
            ),
            reporting.format_table(
                ["metric", "paper", "measured"],
                [
                    ("avg error", 16.8, metrics["avg"]),
                    ("var error", 27.5, metrics["var"]),
                    ("max error", 80.0, metrics["max"]),
                ],
            ),
        ]
    )
    golden("benchmarks/results/example2_metrics.txt", text + "\n")

    assert metrics["avg"] == 16.8
    assert abs(metrics["var"] - 27.25) < 0.01
    assert metrics["max"] == 80.0
    # Theorem 2's ordering.
    assert metrics["avg"] <= metrics["var"] <= metrics["max"]


def test_example2_gap_grows_with_k(golden):
    """The paper's closing remark: as k grows, the gap between the metrics
    can grow unboundedly.  One oversized bucket among k demonstrates it."""
    def sweep():
        rows = []
        for k in (10, 100, 1000):
            counts = np.full(k, 100)
            counts[0] += 80  # same absolute spike at every k
            rows.append(
                (k, avg_error(counts), var_error(counts), max_error(counts))
            )
        return rows

    rows = sweep()
    golden(
        "benchmarks/results/example2_gap_vs_k.txt",
        reporting.format_table(["k", "avg", "var", "max"], rows) + "\n",
    )
    gaps = [row[3] / row[1] for row in rows]  # max / avg
    assert gaps[0] < gaps[1] < gaps[2]
