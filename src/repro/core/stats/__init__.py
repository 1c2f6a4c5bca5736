"""``repro.core.stats`` — built-in aggregated statistics (§4.2.1)."""

from .basic import (
    boxplot_stats,
    check_normality,
    correlation_nodewise,
    maximum,
    mean,
    median,
    minimum,
    percentiles,
    std,
    sum_profiles,
    variance,
    zscore,
)
from .calc import (apply_nodewise, grouped_by_metadata, grouped_values,
                   suffix_key)
from .imbalance import load_imbalance

__all__ = [
    "mean",
    "median",
    "minimum",
    "maximum",
    "std",
    "variance",
    "sum_profiles",
    "percentiles",
    "correlation_nodewise",
    "zscore",
    "check_normality",
    "boxplot_stats",
    "load_imbalance",
    "apply_nodewise",
    "grouped_values",
    "grouped_by_metadata",
    "suffix_key",
]
