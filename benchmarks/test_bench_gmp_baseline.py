"""Runnable baseline: GMP incremental maintenance vs one-shot CVB.

The paper compares against Gibbons-Matias-Poosala analytically (Example 4).
This bench runs the actual maintenance algorithm: stream the table into a
GMP histogram (reservoir backing sample + split/recompute), then compare
its achieved max error and its cost profile against a CVB build of the same
column.  The two occupy different niches — GMP pays per-insert work to stay
continuously fresh; CVB pays a one-shot sampling pass — so the bench
reports both cost dimensions.
"""

import numpy as np

from repro.baselines.gmp import GMPHistogram
from repro.core.error_metrics import fractional_max_error
from repro.experiments import reporting
from repro.experiments.runner import build_heapfile, cvb_sampling_cost
from repro.workloads.datasets import make_dataset

N, B, K, F = 100_000, 50, 25, 0.2


def run_comparison():
    dataset = make_dataset("zipf0", N, rng=0)
    stream_order = np.random.default_rng(1).permutation(dataset.values)

    gmp = GMPHistogram(k=K, backing_sample_size=5_000, rng=2)
    gmp.insert_many(stream_order)
    gmp_err = gmp.achieved_error(dataset.values)

    hf = build_heapfile(dataset.values, "random", B, rng=3)
    cvb = cvb_sampling_cost(hf, dataset.values, k=K, f=F, rng=4)

    return {
        "gmp_error": gmp_err,
        "gmp_recomputes": gmp.recompute_count,
        "gmp_backing": gmp.backing_sample.size,
        "cvb_error": cvb.achieved_error,
        "cvb_blocks": cvb.blocks_sampled,
        "cvb_tuples": cvb.tuples_sampled,
    }


def test_gmp_vs_cvb(golden):
    result = run_comparison()
    golden(
        "benchmarks/results/gmp_baseline.txt",
        "\n\n".join(
            [
                reporting.paper_note(
                    "both reach usable error; GMP touches every insert while "
                    "CVB samples once — the paper's Example 4 contrast, run "
                    "rather than tabulated",
                    caveat=f"n={N:,}, k={K}, GMP backing sample 5,000, "
                    f"CVB target f={F}",
                ),
                reporting.format_table(
                    ["metric", "value"], sorted(result.items())
                ),
            ]
        ) + "\n",
    )

    # Both produce usable histograms...
    assert result["gmp_error"] < 0.5
    assert result["cvb_error"] < 0.5
    # ...but CVB reads a small fraction of the table where GMP saw all of it.
    assert result["cvb_tuples"] < N
    assert result["gmp_recomputes"] >= 1
