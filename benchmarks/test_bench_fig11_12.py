"""Figures 11 & 12: the rel-error metric |d - e|/n vs sampling rate.

Paper: while ratio error cannot be bounded (Theorem 8), the rel-error of
the GEE estimate is small for both distributions — tiny for Zipf Z=2
(Figure 11, few easily-found distinct values) and small, shrinking with
rate, for Unif/Dup (Figure 12).  This is the metric an optimizer can
actually rely on.
"""

from repro.experiments import figures, reporting


def _render(result, name):
    return "\n\n".join(
        [
            reporting.paper_note(
                "rel-error |d-e|/n of the estimate is small at all rates",
                caveat=f"dataset={result['dataset']}, n={result['n']:,}, "
                f"true distinct={result['num_distinct']:,}",
            ),
            reporting.format_series(
                f"{name}: rel-error vs sampling rate",
                [result["err_sample"], result["err_estimate"]],
            ),
        ]
    )


def test_fig11_zipf_rel_error(report):
    result = figures.figure11_12("zipf2", seed=0)
    report("fig11", _render(result, "Figure 11 (Z=2)"))
    # Zipf: rel-error of the estimate stays minuscule everywhere.
    assert max(result["err_estimate"].y) < 0.01


def test_fig12_unif_dup_rel_error(report):
    result = figures.figure11_12("unif_dup", seed=0)
    report("fig12", _render(result, "Figure 12 (Unif/Dup)"))
    errs = result["err_estimate"].y
    # Small throughout and shrinking as the rate grows.
    assert max(errs) < 0.1
    assert errs[-1] < errs[0]


def test_fig11_vs_12_zipf_is_easier(report):
    """The paper's cross-figure observation: prediction is far more accurate
    for the Zipf distribution than for Unif/Dup at low sampling rates."""
    zipf = figures.figure11_12("zipf2", seed=1)
    unif = figures.figure11_12("unif_dup", seed=1)
    report(
        "fig11_12_comparison",
        reporting.format_table(
            ["rate", "rel_err_zipf2", "rel_err_unif_dup"],
            list(
                zip(
                    zipf["err_estimate"].x,
                    zipf["err_estimate"].y,
                    unif["err_estimate"].y,
                )
            ),
        ),
    )
    # At the smallest rate Zipf is the clearly easier case.
    assert zipf["err_estimate"].y[0] < unif["err_estimate"].y[0]
