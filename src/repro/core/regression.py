"""Performance-regression detection between two thickets.

LLNL's ubiquitous-performance-analysis workflow (the paper's §6, which
Thicket plugs into) collects profiles from nightly test runs; the
actionable question is "which regions got slower since the baseline?".
This module answers it: per call-tree node, compare the metric's
distribution across the baseline ensemble against the candidate
ensemble with Welch's t-test and report significant relative changes.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..frame import DataFrame, Index
from ..frame.index import factorize
from ..frame.ops import is_missing

__all__ = ["compare_thickets", "find_regressions", "judge"]


def _per_node_values(tk, metric: Hashable) -> dict[str, np.ndarray]:
    """Node name → float array of the metric's non-missing values across
    profiles, in row order; names in the order of their first value."""
    part = tk.dataframe.index.partition(0)
    names = factorize(n.frame.name for n in part.uniques)
    col = tk.dataframe.column(metric)
    rows = np.flatnonzero(~is_missing(col))
    by_name = names.codes[part.codes[rows]]
    codes, first = np.unique(by_name, return_index=True)
    return {names.uniques[c]: col[rows[by_name == c]].astype(np.float64)
            for c in codes[np.argsort(first)]}


def compare_thickets(baseline, candidate, metric: Hashable,
                     alpha: float = 0.05) -> DataFrame:
    """Node-by-node comparison of a metric across two ensembles.

    Returns a frame indexed by node name with baseline/candidate means,
    the relative change, Welch's t-test p-value, and a ``significant``
    flag (p < alpha with at least two samples on each side).  Matching
    is by node name, so the two thickets may come from different runs
    of the same code (the usual nightly set-up).
    """
    from scipy import stats as sps  # deferred: keeps `import repro` light

    base = _per_node_values(baseline, metric)
    cand = _per_node_values(candidate, metric)
    names = [n for n in base if n in cand]
    if not names:
        raise ValueError("no shared call-tree nodes between the thickets")

    rows: dict[str, list[Any]] = {
        "baseline_mean": [], "candidate_mean": [], "relative_change": [],
        "p_value": [], "significant": [],
        "baseline_runs": [], "candidate_runs": [],
    }
    for name in names:
        b, c = base[name], cand[name]
        b_mean, c_mean = float(np.mean(b)), float(np.mean(c))
        if b_mean != 0:
            rel = (c_mean - b_mean) / b_mean
        elif c_mean == 0:
            rel = 0.0  # structural zero rows (e.g. grouping nodes)
        else:
            rel = float("inf")
        if len(b) >= 2 and len(c) >= 2 and (np.std(b) > 0 or np.std(c) > 0):
            p = float(sps.ttest_ind(b, c, equal_var=False).pvalue)
        else:
            p = float("nan")
        rows["baseline_mean"].append(b_mean)
        rows["candidate_mean"].append(c_mean)
        rows["relative_change"].append(rel)
        rows["p_value"].append(p)
        rows["significant"].append(bool(np.isfinite(p) and p < alpha))
        rows["baseline_runs"].append(len(b))
        rows["candidate_runs"].append(len(c))
    return DataFrame(rows, index=Index(names, name="node"))


def judge(table: DataFrame, threshold: float, min_samples: int = 1,
          min_mean: float = -np.inf) -> np.ndarray:
    """The regression rule, per row of a :func:`compare_thickets` table:
    1 where the node regressed, -1 where it improved, 0 otherwise.

    A node changed when its relative change is beyond ``±threshold``
    and the change is decisive: significant, or undecidable because an
    ensemble has a single run (``p_value`` NaN; kept so single-run
    nightlies still alert).  A node with fewer than *min_samples* runs
    on a side, or whose larger mean is below *min_mean*, never changes.
    """
    rel = table.column("relative_change").astype(np.float64)
    decisive = (table.column("significant").astype(bool)
                | np.isnan(table.column("p_value").astype(np.float64)))
    counted = ((table.column("baseline_runs") >= min_samples)
               & (table.column("candidate_runs") >= min_samples)
               & (np.maximum(table.column("baseline_mean"),
                             table.column("candidate_mean")) >= min_mean))
    return (decisive & counted) * (
        (rel > threshold).astype(int) - (rel < -threshold))


def find_regressions(baseline, candidate, metric: Hashable,
                     threshold: float = 0.05, alpha: float = 0.05
                     ) -> DataFrame:
    """Nodes whose metric grew by more than *threshold*, by :func:`judge`.

    Sorted worst-first by relative change.
    """
    table = compare_thickets(baseline, candidate, metric, alpha=alpha)
    flagged = table[judge(table, threshold) > 0]
    return flagged.sort_values("relative_change", ascending=False)
