"""Data export for the notebook-embedded interactive visualizations.

The paper's §4.3.2 visualizations (tree + table with per-node metric
charts; paired parallel-coordinates + scatter) are JavaScript widgets
fed by a JSON payload assembled from the thicket object.  This module
produces exactly those payloads headlessly, so (a) the data pipeline
behind the interactive views is exercised end-to-end and (b) a front
end can be attached without touching the analysis code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

from ..frame.index import plain_values
from ..ioutil import atomic_write_text

__all__ = ["tree_table_payload", "pcp_payload", "export_json"]


def _num(v) -> float | None:
    if v is None:
        return None
    f = float(v)
    return None if np.isnan(f) else f


def tree_table_payload(tk, metrics: Sequence[Hashable] | None = None,
                       group_column: str | None = None) -> dict:
    """Payload for the tree+table view (Fig. 14's widget).

    Structure::

        {"tree": nested node dicts with ids,
         "rows": {node_id: [{profile, group, metric values...}]},
         "metrics": [...], "groups": [...]}
    """
    metrics = list(metrics) if metrics is not None else [
        c for c in tk.performance_cols if not isinstance(c, tuple)
    ]
    node_ids = {n: i for i, n in enumerate(tk.graph.node_order())}

    def emit(node) -> dict:
        return {
            "id": node_ids[node],
            "name": node.frame.name,
            "children": [emit(c) for c in node.children],
        }

    index = tk.dataframe.index
    nodes, profiles = index.partition(0), index.partition(1)
    heads = [{"profile": str(p)} for p in profiles.uniques]
    if group_column is not None:
        group_of = dict(zip(tk.metadata.index.values,
                            plain_values(tk.metadata.column(group_column))))
        for head, p in zip(heads, profiles.uniques):
            head["group"] = group_of.get(p)

    rows: dict[int, list[dict]] = {i: [] for i in node_ids.values()}
    columns = {str(m): tk.dataframe.column(m) for m in metrics
               if m in tk.dataframe}
    for code, node in enumerate(nodes.uniques):
        rows[node_ids[node]] = [
            {**heads[profiles.codes[i]],
             **{m: _num(col[i]) for m, col in columns.items()}}
            for i in nodes.segment(code)]

    groups = sorted({e.get("group") for lst in rows.values() for e in lst
                     if e.get("group") is not None},
                    key=lambda v: (str(type(v)), v))
    return {
        "tree": [emit(r) for r in tk.graph.roots],
        "rows": {str(k): v for k, v in rows.items()},
        "metrics": [str(m) for m in metrics],
        "groups": groups,
        "group_column": group_column,
    }


def pcp_payload(tk, metadata_columns: Sequence[str],
                metric_columns: Sequence[Hashable] = (),
                node_name: str | None = None,
                color_by: str | None = None) -> dict:
    """Payload for the PCP + scatter view (Fig. 18's widget).

    One record per profile: the requested metadata columns plus,
    optionally, per-profile values of metrics at one call-tree node.
    """
    for c in metadata_columns:
        if c not in tk.metadata:
            raise KeyError(f"metadata column {c!r} not found")

    node = tk.get_node(node_name) if node_name else None
    metric_of: dict[Hashable, dict] = {m: {} for m in metric_columns}
    if node is not None:
        index = tk.dataframe.index
        rows, profiles = index.partition(0).positions(node), index.partition(1)
        pids = [profiles.uniques[c] for c in profiles.codes[rows]]
        for m in metric_columns:
            metric_of[m] = dict(zip(pids, map(_num, tk.dataframe.column(m)[rows])))

    cells = {c: plain_values(tk.metadata.column(c)) for c in metadata_columns}
    records = []
    for i, pid in enumerate(tk.metadata.index.values):
        rec = {"profile": str(pid), **{c: cells[c][i] for c in cells}}
        for m in metric_columns:
            rec[str(m)] = metric_of[m].get(pid)
        records.append(rec)

    axes = list(metadata_columns) + [str(m) for m in metric_columns]
    return {
        "axes": axes,
        "color_by": color_by,
        "node": node_name,
        "records": records,
    }


def export_json(payload: dict, path: str | Path) -> Path:
    """Write a widget payload to disk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(path, json.dumps(payload, indent=1,
                                              sort_keys=True))
