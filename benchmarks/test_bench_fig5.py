"""Figure 5: max error vs sampling rate for Z in {0, 2, 4}.

Paper: with a random on-disk layout, the error-vs-rate curves of all three
skews fall together and converge at essentially the same sampling rate —
the Corollary 1 bound is distribution-independent.
"""

import numpy as np

from repro.experiments import figures, reporting


def test_fig5_error_convergence_is_distribution_independent(golden):
    result = figures.figure5(seed=0)
    text = "\n\n".join(
        [
            reporting.paper_note(
                "error falls with rate; convergence point is the same for "
                "Z=0, 2 and 4",
                caveat=f"scale={result['scale']}, k={result['k']} "
                "(paper: n=10M, k=600)",
            ),
            reporting.format_series(
                "Figure 5: max error vs sampling rate (random layout)",
                result["series"],
            ),
        ]
    )
    golden("benchmarks/results/fig5.txt", text + "\n")

    for series in result["series"]:
        # Each curve falls substantially from the lowest to highest rate.
        assert series.y[-1] < 0.5 * series.y[0], series.label
    # Distribution independence: at the top rate every distribution's error
    # is small.  The f' metric's floor is higher for heavy-duplicate data
    # (tiny separator ranges are judged relatively, Definition 4), so the
    # band is wider than a count-metric reading would suggest.
    finals = np.array([s.y[-1] for s in result["series"]])
    assert finals.max() < 0.5
