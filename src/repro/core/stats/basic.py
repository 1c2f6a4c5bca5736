"""Built-in aggregated statistics (§4.2.1).

The paper lists variance, standard deviation, maximum and minimum,
percentiles, correlation coefficient, mean, and median as Thicket's
built-in order-reduction functions; all are implemented here.  Each
function appends columns to ``tk.statsframe`` and returns the created
column keys.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ...frame.segment import Segments
from .calc import (
    apply_nodewise,
    grouped_values,
    reduce_nodewise,
    resolve_columns,
    suffix_key,
)

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
]


def mean(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node mean across profiles."""
    return apply_nodewise(tk, columns, "mean", "mean")


def median(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node median across profiles."""
    return apply_nodewise(tk, columns, "median", "median")


def minimum(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node minimum across profiles."""
    return apply_nodewise(tk, columns, "min", "min")


def maximum(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node maximum across profiles."""
    return apply_nodewise(tk, columns, "max", "max")


def std(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node sample standard deviation across profiles."""
    return apply_nodewise(tk, columns, "std", "std")


def variance(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node sample variance across profiles."""
    return apply_nodewise(tk, columns, "var", "var")


def sum_profiles(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Per-node sum across profiles."""
    return apply_nodewise(tk, columns, "sum", "sum")


def percentiles(tk, columns: Sequence[Hashable] | None = None,
                quantiles: Sequence[float] = (0.25, 0.50, 0.75)
                ) -> list[Hashable]:
    """Per-node percentiles; one statsframe column per quantile.

    Column names follow Thicket: ``<col>_percentiles_<q*100>``.
    """
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    return reduce_nodewise(tk, columns, {
        f"percentiles_{int(round(q * 100))}":
            lambda segs, q=q: segs.quantile(q)
        for q in quantiles
    })


def correlation_nodewise(tk, column1: Hashable, column2: Hashable,
                         correlation: str = "pearson") -> Hashable:
    """Per-node correlation coefficient between two metrics across profiles.

    Supports pearson and spearman.  Output column:
    ``<col1>_vs_<col2> <method>``.
    """
    from scipy import stats as sps

    _, arrays1 = grouped_values(tk, column1)
    _, arrays2 = grouped_values(tk, column2)
    values = []
    for a, b in zip(arrays1, arrays2):
        n = min(len(a), len(b))
        if n < 2:
            values.append(float("nan"))
            continue
        a, b = a[:n], b[:n]
        if np.std(a) == 0 or np.std(b) == 0:
            values.append(float("nan"))
            continue
        if correlation == "pearson":
            r = sps.pearsonr(a, b).statistic
        elif correlation == "spearman":
            r = sps.spearmanr(a, b).statistic
        else:
            raise ValueError(f"unknown correlation {correlation!r}")
        values.append(float(r))
    name1 = column1[-1] if isinstance(column1, tuple) else column1
    name2 = column2[-1] if isinstance(column2, tuple) else column2
    out_key = f"{name1}_vs_{name2} {correlation}"
    if isinstance(column1, tuple):
        out_key = column1[:-1] + (out_key,)
    tk.statsframe[out_key] = values
    return out_key


def zscore(tk, columns: Sequence[Hashable] | None = None) -> list[Hashable]:
    """Standardize metrics *within the performance data* (per column).

    Unlike the reductions above this adds columns to ``tk.dataframe``
    (one z-scored value per row), useful before clustering.
    """
    from ...frame.ops import numeric_values

    created = []
    for col in resolve_columns(tk, columns):
        data = tk.dataframe.column(col).astype(np.float64)
        clean = numeric_values(data)
        mu = float(np.mean(clean)) if len(clean) else 0.0
        sigma = float(np.std(clean)) if len(clean) else 1.0
        sigma = sigma or 1.0
        out_key = suffix_key(col, "zscore")
        tk.dataframe[out_key] = (data - mu) / sigma
        created.append(out_key)
    return created


def check_normality(tk, columns: Sequence[Hashable] | None = None,
                    alpha: float = 0.05) -> list[Hashable]:
    """Shapiro-Wilk normality check per node (True = consistent with normal)."""
    from scipy import stats as sps

    created = []
    for col in resolve_columns(tk, columns):
        _, arrays = grouped_values(tk, col)
        flags = []
        for a in arrays:
            if len(a) < 3 or np.std(a) == 0:
                flags.append(None)
                continue
            flags.append(bool(sps.shapiro(a).pvalue > alpha))
        out_key = suffix_key(col, "normality")
        tk.statsframe[out_key] = flags
        created.append(out_key)
    return created


def boxplot_stats(tk, columns: Sequence[Hashable] | None = None,
                  whisker: float = 1.5) -> list[Hashable]:
    """Tukey boxplot components per node: q1/q3/iqr/lowerfence/upperfence."""
    def q1(segs: Segments) -> np.ndarray:
        return segs.quantile(0.25)

    def q3(segs: Segments) -> np.ndarray:
        return segs.quantile(0.75)

    return reduce_nodewise(tk, columns, {
        "q1": q1,
        "q3": q3,
        "iqr": lambda segs: q3(segs) - q1(segs),
        "lowerfence": lambda segs: q1(segs) - whisker * (q3(segs) - q1(segs)),
        "upperfence": lambda segs: q3(segs) + whisker * (q3(segs) - q1(segs)),
    })
