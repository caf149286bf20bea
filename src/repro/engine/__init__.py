"""Engine layer: tables, ANALYZE-style statistics, and selectivity
estimation — the catalog surface a query optimizer consumes."""

from .catalog import Catalog
from .joins import histogram_join_size, system_r_join_size, true_join_size
from .maintenance import AutoStatistics, ModificationCounter, RefreshPolicy
from .resilience import build_or_fallback, mark_degraded
from .density import (
    column_density,
    density_from_counts,
    density_from_estimate,
    selfjoin_density,
    selfjoin_density_from_sample,
)
from .serialization import (
    statistics_from_dict,
    statistics_from_json,
    statistics_to_dict,
    statistics_to_json,
)
from .selectivity import (
    RangeEstimate,
    RangeSelectivityEstimator,
    WorkloadAccuracy,
    evaluate_workload,
)
from .statistics import BUILD_METHODS, ColumnStatistics, StatisticsManager
from .table import Column, Table

__all__ = [
    "Catalog",
    "histogram_join_size",
    "system_r_join_size",
    "true_join_size",
    "AutoStatistics",
    "ModificationCounter",
    "RefreshPolicy",
    "build_or_fallback",
    "mark_degraded",
    "column_density",
    "density_from_counts",
    "density_from_estimate",
    "selfjoin_density",
    "selfjoin_density_from_sample",
    "statistics_from_dict",
    "statistics_from_json",
    "statistics_to_dict",
    "statistics_to_json",
    "RangeEstimate",
    "RangeSelectivityEstimator",
    "WorkloadAccuracy",
    "evaluate_workload",
    "BUILD_METHODS",
    "ColumnStatistics",
    "StatisticsManager",
    "Column",
    "Table",
]
