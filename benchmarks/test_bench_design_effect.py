"""Design-effect model vs CVB vs ground truth, per layout.

Section 4.1's scenario analysis, made quantitative: estimate the intraclass
correlation rho from a 50-page pilot, predict the block budget through the
design effect ``1 + (b-1)*rho``, and compare against (a) the ground-truth
requirement found by direct search and (b) what CVB actually spends.

Expectation: the pilot-based prediction ranks the layouts exactly as the
measured costs do, for a tiny fraction of the sampling cost — the model
"prices" a layout before committing to sample it.
"""

import numpy as np

from repro.experiments import reporting
from repro.experiments.runner import (
    build_heapfile,
    cvb_sampling_cost,
    required_blocks_for_error,
)
from repro.sampling.design_effect import (
    estimate_rho_from_pilot,
    required_blocks_with_correlation,
)
from repro.workloads.datasets import make_dataset

N, B, K, F, GAMMA = 200_000, 50, 50, 0.2, 0.01
PILOT = 50


def evaluate():
    dataset = make_dataset("zipf2", N, rng=0)
    rows = []
    for layout in ("random", "partial", "sorted"):
        hf = build_heapfile(dataset.values, layout, B, rng=1)
        rho = max(0.0, estimate_rho_from_pilot(hf, pilot_blocks=PILOT, rng=2))
        predicted = required_blocks_with_correlation(N, K, F, GAMMA, B, rho)
        ground_truth = required_blocks_for_error(
            hf, dataset.values, K, F, trials=5, rng=3
        )
        cvb = cvb_sampling_cost(hf, dataset.values, k=K, f=F, rng=4)
        rows.append(
            (
                layout,
                round(rho, 3),
                predicted,
                ground_truth,
                cvb.blocks_sampled,
            )
        )
    return rows


def test_design_effect_predicts_layout_cost(report):
    rows = evaluate()
    report(
        "design_effect",
        "\n\n".join(
            [
                reporting.paper_note(
                    "a 50-page pilot's intraclass correlation ranks layout "
                    "difficulty exactly as ground truth and CVB spend do — "
                    "Section 4.1's effective-sampling-rate intuition as a "
                    "formula",
                    caveat=f"n={N:,}, b={B}, k={K}, f={F}; prediction uses "
                    "Corollary 1's conservative constant, so absolute "
                    "budgets sit above ground truth",
                ),
                reporting.format_table(
                    ["layout", "pilot rho", "predicted blocks",
                     "ground-truth blocks", "CVB blocks"],
                    rows,
                ),
            ]
        ),
    )

    rhos = [row[1] for row in rows]
    predictions = [row[2] for row in rows]
    truths = [row[3] for row in rows]
    # rho separates the layouts sharply...
    assert rhos[0] < 0.1
    assert rhos[2] > 0.8
    # ...and the three orderings agree.
    assert predictions == sorted(predictions)
    assert truths == sorted(truths)
    # The conservative prediction never undershoots ground truth.
    for (_l, _rho, predicted, ground_truth, _cvb) in rows:
        assert predicted >= ground_truth
