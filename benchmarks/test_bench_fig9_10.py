"""Figures 9 & 10: distinct values — real vs in-sample vs GEE estimate.

Paper: for Zipf Z=2 (Figure 9) the estimate tracks the true distinct count
closely even from small samples; for Unif/Dup (Figure 10) the in-sample
count approaches the truth from below while the estimate converges from the
high side.  In both, the estimate beats reporting the raw sample count.
"""

from repro.experiments import figures, reporting


def _render(result, name):
    return "\n\n".join(
        [
            reporting.paper_note(
                "numDVEst closer to numDVReal than numDVSamp at low rates",
                caveat=f"dataset={result['dataset']}, n={result['n']:,}, "
                f"true distinct={result['num_distinct']:,} "
                "(paper: n=10M, K=600)",
            ),
            reporting.format_series(
                f"{name}: distinct values vs sampling rate",
                [result["real"], result["sample"], result["estimate"]],
            ),
        ]
    )


def test_fig9_zipf_distinct_values(report):
    result = figures.figure9_10("zipf2", seed=0)
    report("fig9", _render(result, "Figure 9 (Z=2)"))

    real = result["num_distinct"]
    # At every rate the GEE estimate is at least as close to the truth as
    # the raw in-sample count (which always underestimates under skew).
    for samp, est in zip(result["sample"].y, result["estimate"].y):
        assert abs(est - real) <= abs(samp - real) + 1e-9


def test_fig10_unif_dup_distinct_values(report):
    result = figures.figure9_10("unif_dup", seed=0)
    report("fig10", _render(result, "Figure 10 (Unif/Dup)"))

    real = result["num_distinct"]
    # The in-sample count converges to the truth from below.
    samp = result["sample"].y
    assert all(a <= real + 1e-9 for a in samp)
    assert samp == sorted(samp)
    # The estimate converges: at the top rate it is essentially exact.
    assert abs(result["estimate"].y[-1] - real) / real < 0.05
