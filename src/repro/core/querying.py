"""Call-path querying of Thickets (§4.1.3, Fig. 8).

The query runs over the unified call tree; each predicate sees the
node's *ensemble row view* — a mapping from column name to a Series of
per-profile values — so the paper's idiom works verbatim::

    QueryMatcher().match(".", lambda row: row["name"].apply(
        lambda x: x == "Base_CUDA").all())

Matched nodes are kept; the graph is squashed so children of dropped
nodes re-attach to their nearest kept ancestor.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..frame import Series
from ..graph import Node
from ..query import QueryMatcher

__all__ = ["query_thicket"]


def query_thicket(tk, matcher: QueryMatcher, squash: bool = True):
    """Apply *matcher* to *tk*; returns a new Thicket of matched paths."""
    from ..graph.squash import squash_graph
    from .thicket import Thicket

    part = tk.dataframe.index.partition(0)
    columns = tk.dataframe.columns

    class _RowView:
        """Lazy mapping column -> Series of the node's per-profile values."""

        __slots__ = ("_pos",)

        def __init__(self, pos: np.ndarray):
            self._pos = pos

        def __getitem__(self, col: Any) -> Series:
            if col not in tk.dataframe:
                raise KeyError(col)
            values = tk.dataframe.column(col)[self._pos]
            if values.dtype == object:  # infer a type for this node's rows
                values = list(values)
            return Series(values, name=col)

        def __contains__(self, col: Any) -> bool:
            return col in tk.dataframe

        def keys(self):
            return list(columns)

    def row_view(node: Node):
        return _RowView(part.positions(node))

    matched = matcher.apply(tk.graph, row_view)
    matched_set = set(matched)
    new_perf = tk.dataframe[part.row_mask(matched)]

    if squash:
        new_graph, node_map = squash_graph(tk.graph, matched_set)
        new_perf.index = new_perf.index.relabel(0, node_map)
    else:
        new_graph = tk.graph

    out = Thicket(new_graph, new_perf, tk.metadata.copy(),
                  profiles=list(tk.profile),
                  exc_metrics=list(tk.exc_metrics),
                  inc_metrics=list(tk.inc_metrics),
                  default_metric=tk.default_metric)
    return out
