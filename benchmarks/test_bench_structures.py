"""Histogram structure shoot-out: equi-height vs equi-width vs MaxDiff vs
compressed, at equal bucket budget.

The paper's closing goal is extending its sampling analysis to "other
histogram structures [15, 16]"; this bench provides the accuracy baseline
that extension would start from.  Each structure gets the same k and the
same random-range workload across three data shapes; reported is the mean
absolute range-estimation error in units of the ideal bucket size n/k
(so 1.0 means "off by one bucket's worth of tuples").

Expectation: equi-width collapses under skew; equi-height (with its
EQ_ROWS refinement) and compressed stay accurate everywhere; MaxDiff sits
between, excelling where frequency jumps dominate.
"""

import numpy as np

from repro.core.compressed import CompressedHistogram
from repro.core.equiwidth import EquiWidthHistogram
from repro.core.histogram import EquiHeightHistogram
from repro.core.maxdiff import MaxDiffHistogram
from repro.experiments import reporting
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import random_range_queries, true_range_count

N, K, QUERIES = 100_000, 50, 300

STRUCTURES = {
    "equi_height": EquiHeightHistogram.from_values,
    "equi_width": EquiWidthHistogram.from_values,
    "maxdiff": MaxDiffHistogram.from_values,
    "compressed": CompressedHistogram.from_values,
}


def evaluate():
    rows = []
    for dataset_name in ("zipf0", "zipf2", "bimodal"):
        dataset = make_dataset(dataset_name, N, rng=0)
        values = dataset.values
        queries = random_range_queries(values, QUERIES, rng=1)
        truths = [true_range_count(values, q) for q in queries]
        unit = N / K
        row = [dataset_name]
        for name, build in STRUCTURES.items():
            hist = build(values, K)
            errors = [
                abs(hist.estimate_range(q.lo, q.hi) - t)
                for q, t in zip(queries, truths)
            ]
            row.append(round(float(np.mean(errors)) / unit, 3))
        rows.append(row)
    return rows


def test_structure_shootout(report):
    rows = evaluate()
    report(
        "structure_shootout",
        "\n\n".join(
            [
                reporting.paper_note(
                    "equi-height/compressed accurate everywhere; equi-width "
                    "collapses under skew — why commercial optimizers use "
                    "equi-height (Section 2)",
                    caveat=f"n={N:,}, k={K}, {QUERIES} random range queries; "
                    "error in units of n/k, built from full data",
                ),
                reporting.format_table(
                    ["dataset", *STRUCTURES.keys()], rows
                ),
            ]
        ),
    )

    by_dataset = {row[0]: dict(zip(STRUCTURES.keys(), row[1:])) for row in rows}
    # Uniform data: everything is fine.
    assert max(by_dataset["zipf0"].values()) < 1.0
    # Skewed data: equi-width is the clear loser.
    zipf2 = by_dataset["zipf2"]
    assert zipf2["equi_width"] > 2 * zipf2["equi_height"]
    assert zipf2["equi_height"] < 1.0
    assert zipf2["compressed"] < 1.0
    # Every structure beats naive "no histogram" (error ~ mean query size).
    for dataset_name, errors in by_dataset.items():
        for name, err in errors.items():
            assert err < K / 3, (dataset_name, name)
