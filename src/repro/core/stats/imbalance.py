"""Load-imbalance analysis.

Hatchet's flagship single-run analysis ("computing load imbalance
across nodes in a single run", §6 of the paper) lifted to ensembles:
Caliper records per-rank aggregates (avg/max/min time per rank); the
imbalance factor per (node, profile) is ``max / avg`` (1.0 = perfectly
balanced), and the statsframe carries its ensemble mean and worst case.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .calc import apply_nodewise, suffix_key

__all__ = ["load_imbalance"]


def load_imbalance(tk, avg_column: Hashable = "Avg time/rank",
                   max_column: Hashable = "Max time/rank") -> list[Hashable]:
    """Compute per-row and per-node load-imbalance factors.

    Adds ``"<avg_column>_imbalance"`` to the performance data (one
    value per (node, profile) row) and two statsframe columns with its
    per-node mean and max across profiles.  Returns the created
    statsframe column keys.
    """
    for col in (avg_column, max_column):
        if col not in tk.dataframe:
            raise KeyError(f"column {col!r} not in performance data")

    avg = tk.dataframe.column(avg_column).astype(np.float64)
    mx = tk.dataframe.column(max_column).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(avg > 0, mx / avg, np.nan)
    row_key = suffix_key(avg_column, "imbalance")
    tk.dataframe[row_key] = factor

    return (apply_nodewise(tk, [row_key], "mean", "mean")
            + apply_nodewise(tk, [row_key], "max", "max"))
