"""Scaling analysis over thickets (§5.2.1 and the Fig. 11 use case).

Turns a strong/weak-scaling ensemble into the standard derived views:
speedup and parallel efficiency per resource count, a Karp-Flatt
serial-fraction estimate, and — via the Extra-P interface — a ranked
list of prospective scalability bottlenecks ("by generating such
performance models in bulk ... developers can easily identify regions
which might become scalability bottlenecks").

Times per resource count come from
:func:`repro.core.stats.grouped_by_metadata`: NaN, ``None`` and ``±inf``
cells, and profiles without a resource count, are missing.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from ..frame import DataFrame, Index
from .stats import grouped_by_metadata

__all__ = ["strong_scaling_table", "karp_flatt", "scalability_bottlenecks",
           "weak_scaling_efficiency"]


def _series_by_resource(tk, node_name: str, metric: Hashable,
                        resource_column: str) -> dict[float, np.ndarray]:
    node = tk.get_node(node_name)
    series = grouped_by_metadata(tk, metric, resource_column).get(node)
    if not series:
        raise ValueError(
            f"no measurements of {metric!r} for node {node_name!r}")
    return {float(r): values for r, values in series.items()}


def strong_scaling_table(tk, node_name: str, metric: Hashable,
                         resource_column: str = "numhosts") -> DataFrame:
    """Per-resource-count mean time, speedup, and parallel efficiency.

    Speedup is relative to the smallest resource count present;
    efficiency normalizes by the resource ratio (ideal = 1.0).
    """
    series = _series_by_resource(tk, node_name, metric, resource_column)
    resources = sorted(series)
    base_r = resources[0]
    base_t = float(np.mean(series[base_r]))
    rows = {
        "mean": [], "std": [], "speedup": [], "efficiency": [], "runs": [],
    }
    for r in resources:
        mean = float(np.mean(series[r]))
        rows["mean"].append(mean)
        rows["std"].append(float(np.std(series[r])))
        speedup = base_t / mean
        rows["speedup"].append(speedup)
        rows["efficiency"].append(speedup / (r / base_r))
        rows["runs"].append(len(series[r]))
    return DataFrame(rows, index=Index(resources, name=resource_column))


def karp_flatt(tk, node_name: str, metric: Hashable,
               resource_column: str = "numhosts") -> DataFrame:
    """Karp-Flatt experimentally determined serial fraction.

    ``e = (1/s - 1/p) / (1 - 1/p)`` for speedup *s* on *p* resources.
    A roughly constant *e* means Amdahl-style serial fraction; growing
    *e* indicates parallel overhead (the Fig. 17 knee).
    """
    table = strong_scaling_table(tk, node_name, metric, resource_column)
    resources = [float(r) for r in table.index.values]
    base_r = resources[0]
    es = []
    for r, s in zip(resources, table.column("speedup")):
        p = r / base_r
        if p <= 1.0:
            es.append(float("nan"))
            continue
        es.append(float((1.0 / s - 1.0 / p) / (1.0 - 1.0 / p)))
    out = table.copy()
    out["karp_flatt"] = es
    return out


def weak_scaling_efficiency(tk, node_name: str, metric: Hashable,
                            resource_column: str = "numhosts") -> DataFrame:
    """Weak-scaling view: efficiency = t(base)/t(p) (ideal = flat 1.0)."""
    series = _series_by_resource(tk, node_name, metric, resource_column)
    resources = sorted(series)
    base_t = float(np.mean(series[resources[0]]))
    means = [float(np.mean(series[r])) for r in resources]
    return DataFrame(
        {"mean": means, "efficiency": [base_t / m for m in means]},
        index=Index(resources, name=resource_column),
    )


def scalability_bottlenecks(tk, parameter_column: str, metric: Hashable,
                            top: int | None = None,
                            exclude: Sequence[str] = ()) -> list[dict[str, Any]]:
    """Rank call-tree nodes by modeled asymptotic growth.

    Fits an Extra-P model per node and sorts by the growth exponent of
    the winning term (then by predicted share at 4× the largest
    measured parameter value).  Nodes whose cost *grows* with the
    resource count are the prospective bottlenecks.
    """
    from ..model import ExtrapInterface

    models = ExtrapInterface().model_thicket(tk, parameter_column, metric)
    p_max = np.nanmax(np.asarray(tk.metadata.column(parameter_column),
                                 dtype=np.float64))
    horizon = 4.0 * float(p_max)

    entries = []
    for node, model in models.items():
        if node.frame.name in exclude:
            continue
        entries.append({
            "node": node.frame.name,
            "model": str(model),
            "degree": model.degree(),
            "growing": model.is_growing(),
            "predicted_at_horizon": float(model.evaluate(horizon)),
            "r_squared": model.r_squared,
        })
    entries.sort(key=lambda e: (-e["degree"] if e["growing"] else 0.0,
                                -e["predicted_at_horizon"]))
    return entries[:top] if top else entries
