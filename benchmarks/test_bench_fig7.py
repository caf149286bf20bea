"""Figure 7: max error vs sampling rate, random vs partially clustered.

Paper: with 20% of each value's duplicates stored contiguously, the same
sampling rate yields a worse histogram than under a random layout — the
effective sample per block shrinks, so more sampling is needed for the same
error.  (The CVB algorithm's adaptivity is what detects this at run time.)
"""

import numpy as np

from repro.experiments import figures, reporting


def test_fig7_clustering_requires_more_sampling(report):
    result = figures.figure7(seed=0)
    text = "\n\n".join(
        [
            reporting.paper_note(
                "partially clustered layout shows higher error at every "
                "sampling rate than the random layout",
                caveat=f"scale={result['scale']}, k={result['k']}, "
                "cluster fraction 0.2 (paper: n=10M, k=600)",
            ),
            reporting.format_series(
                "Figure 7: max error vs sampling rate (Z=2)",
                result["series"],
            ),
        ]
    )
    report("fig7", text)

    random_series, partial_series = result["series"]
    assert random_series.label == "random"
    # Averaged over the rate grid, the clustered layout is clearly worse.
    assert np.mean(partial_series.y) > 1.2 * np.mean(random_series.y)
