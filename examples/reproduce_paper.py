#!/usr/bin/env python
"""Reproduce every figure of the paper in one run.

Regenerates the data series behind Figures 3-12 at a chosen scale and
prints them as tables next to the paper's expectation.  This is the
human-driven twin of the benchmark suite (`pytest benchmarks/` adds the
paper's shape assertions on top of the same series builders).

Run:  python examples/reproduce_paper.py [small|medium|paper] [seed]

At `small` (default, n = 200k) the whole sweep takes well under a minute;
`paper` (n = 10M, k = 600) reproduces the original testbed scale and takes
correspondingly longer.
"""

import sys
import time

from repro.experiments import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_10,
    figure11_12,
    figures_3_and_4,
    format_series,
    get_scale,
    paper_note,
)


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    scale_name = sys.argv[1] if len(sys.argv) > 1 else "small"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    scale = get_scale(scale_name)
    print(
        f"scale={scale.name}: n={scale.n:,}, k={scale.k}, "
        f"b={scale.blocking_factor}, trials={scale.trials}"
    )
    started = time.time()

    banner("Figures 3 & 4 — sampling rate / blocks vs table size")
    print(paper_note("rate falls ~log(n)/n; blocks ~constant"))
    result = figures_3_and_4(scale=scale, seed=seed)
    print(format_series("Figure 3", [result["rate"]]))
    print(format_series("Figure 4", [result["blocks"]]))

    banner("Figure 5 — error vs rate across skew (Z = 0, 2, 4)")
    print(paper_note("curves fall together; convergence is distribution-free"))
    result = figure5(scale=scale, seed=seed)
    print(format_series("Figure 5", result["series"]))

    banner("Figure 6 — required rate vs number of bins")
    print(paper_note("linear growth in k"))
    result = figure6(scale=scale, seed=seed)
    print(format_series("Figure 6", [result["series"]]))

    banner("Figure 7 — random vs partially clustered layout")
    print(paper_note("clustered layout needs more sampling at every rate"))
    result = figure7(scale=scale, seed=seed)
    print(format_series("Figure 7", result["series"]))

    banner("Figure 8 — sampling vs record size")
    print(paper_note("blocks sampled grow ~linearly with record size"))
    result = figure8(scale=scale, seed=seed)
    print(format_series("Figure 8 (blocks)", [result["blocks"]]))
    print(format_series("Figure 8 (row rate)", [result["rate"]]))

    for dataset, fig_pair in (("zipf2", "9 / 11"), ("unif_dup", "10 / 12")):
        banner(f"Figures {fig_pair} — distinct values, {dataset}")
        print(paper_note("estimate tracks truth; rel-error stays small"))
        result = figure9_10(dataset, scale=scale, seed=seed)
        print(
            format_series(
                "distinct counts",
                [result["real"], result["sample"], result["estimate"]],
            )
        )
        errors = figure11_12(dataset, scale=scale, seed=seed)
        print(
            format_series(
                "rel-error |d-e|/n",
                [errors["err_sample"], errors["err_estimate"]],
            )
        )

    print(f"\nall figures regenerated in {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
