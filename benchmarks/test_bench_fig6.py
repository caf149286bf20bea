"""Figure 6: required sampling rate vs number of histogram bins.

Paper: at fixed max error (0.2) and Z=2, the required sampling rate grows
linearly with the bucket count — Corollary 1's r ~ 4k*ln(2n/gamma)/f^2 is
linear in k.
"""

from repro.experiments import figures, reporting


def test_fig6_required_rate_linear_in_bins(golden):
    result = figures.figure6(seed=0)
    series = result["series"]
    text = "\n\n".join(
        [
            reporting.paper_note(
                "required sampling rate grows linearly with #bins",
                caveat=f"scale={result['scale']}, f={result['f']} "
                "(paper: bins 50..600, f=0.2, n=10M)",
            ),
            reporting.format_series(
                "Figure 6: required sampling rate vs bins (Z=2)", [series]
            ),
        ]
    )
    golden("benchmarks/results/fig6.txt", text + "\n")

    rates = series.y
    bins = series.x
    # Monotone growth end-to-end, and super-constant: the largest bin count
    # needs several times the sampling of the smallest.
    assert rates[-1] > rates[0]
    assert rates[-1] / max(rates[0], 1e-9) > 0.25 * (bins[-1] / bins[0])
