"""Experiment harness: scaled configurations, measurement kernels, and the
series builders behind every figure of the paper's evaluation."""

from .chaos import (
    ChaosPoint,
    ChaosTrialResult,
    chaos_sweep,
    format_chaos_report,
)
from .config import SCALES, ExperimentScale, get_scale
from .parallel import TrialPool, run_trials
from .figures import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_10,
    figure11_12,
    figures_3_and_4,
)
from .reporting import Series, format_series, format_table, paper_note
from .runner import (
    CVBCost,
    build_heapfile,
    cvb_sampling_cost,
    error_at_rate,
    mean_cvb_cost,
    mean_error_at_rate,
)

__all__ = [
    "ChaosPoint",
    "ChaosTrialResult",
    "chaos_sweep",
    "format_chaos_report",
    "SCALES",
    "ExperimentScale",
    "get_scale",
    "TrialPool",
    "run_trials",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9_10",
    "figure11_12",
    "figures_3_and_4",
    "Series",
    "format_series",
    "format_table",
    "paper_note",
    "CVBCost",
    "build_heapfile",
    "cvb_sampling_cost",
    "error_at_rate",
    "mean_cvb_cost",
    "mean_error_at_rate",
]
