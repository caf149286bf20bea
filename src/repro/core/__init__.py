"""Core contribution: equi-height histograms, error metrics, sampling
bounds, and the CVB adaptive block-sampling algorithm."""

from . import bounds, kernels
from .adaptive import CVBConfig, CVBIteration, CVBResult, CVBSampler, cvb_build
from .compressed import CompressedHistogram, SingletonBucket
from .equiwidth import EquiWidthHistogram
from .maxdiff import MaxDiffBucket, MaxDiffHistogram
from .serialization import (
    fit_to_page,
    histogram_from_dict,
    histogram_from_json,
    histogram_to_dict,
    histogram_to_json,
    max_bins_for_page,
)
from .error_metrics import (
    avg_error,
    fractional_max_error,
    histogram_max_error_fraction,
    is_delta_deviant,
    is_delta_separated,
    max_error,
    max_error_fraction,
    relative_deviation,
    relative_deviation_fraction,
    separation_error,
    var_error,
)
from .histogram import Bucket, EquiHeightHistogram, equi_height_separators

__all__ = [
    "bounds",
    "kernels",
    "CVBConfig",
    "CVBIteration",
    "CVBResult",
    "CVBSampler",
    "cvb_build",
    "CompressedHistogram",
    "SingletonBucket",
    "EquiWidthHistogram",
    "MaxDiffBucket",
    "MaxDiffHistogram",
    "fit_to_page",
    "histogram_from_dict",
    "histogram_from_json",
    "histogram_to_dict",
    "histogram_to_json",
    "max_bins_for_page",
    "avg_error",
    "fractional_max_error",
    "histogram_max_error_fraction",
    "is_delta_deviant",
    "is_delta_separated",
    "max_error",
    "max_error_fraction",
    "relative_deviation",
    "relative_deviation_fraction",
    "separation_error",
    "var_error",
    "Bucket",
    "EquiHeightHistogram",
    "equi_height_separators",
]
