"""Call-path querying of Thickets (§4.1.3, Fig. 8).

The query runs over the unified call tree.  A predicate applies
Thicket's ``.all()`` rule: it holds for a node when every profile's
value passes, so a node with no rows passes, while a comparison on a
missing column fails for every node, those with no rows included.

A string-dialect comparison is evaluated once per column over the
stored cells and reduced to one boolean per node over the node
partition (``index.partition(0)``); ``and``/``or``/``not`` combine the
per-node booleans.  A numeric column is compared with vector ops and
reduced with ``np.logical_and.reduceat``; an object column, and ``=~``
on any column, is tested cell by cell, node by node, up to the first
miss.  NaN fails every order comparison, and ``=~`` full-matches
``str(cell)`` and never matches ``None``.

Any other predicate (a fluent-API callable, an object-dialect spec)
sees the node's *ensemble row view* — a mapping from column name to a
Series of per-profile values — so the paper's idiom works verbatim::

    QueryMatcher().match(".", lambda row: row["name"].apply(
        lambda x: x == "Base_CUDA").all())

Matched nodes are kept; the graph is squashed so children of dropped
nodes re-attach to their nearest kept ancestor.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..frame import Series
from ..frame.index import LevelPartition
from ..query import AttrRef, QueryMatcher

__all__ = ["query_thicket"]

_ORDER = {"<": np.less, "<=": np.less_equal, ">": np.greater,
          ">=": np.greater_equal}


class _RowView:
    """Lazy mapping column -> Series of one node's per-profile values."""

    __slots__ = ("_frame", "_pos")

    def __init__(self, frame, pos: np.ndarray):
        self._frame = frame
        self._pos = pos

    def __getitem__(self, col: Any) -> Series:
        if col not in self._frame:
            raise KeyError(col)
        values = self._frame.column(col)[self._pos]
        if values.dtype == object:  # infer a type for this node's rows
            values = list(values)
        return Series(values, name=col)

    def __contains__(self, col: Any) -> bool:
        return col in self._frame

    def keys(self):
        return list(self._frame.columns)


def _node_truth(values: np.ndarray, part: LevelPartition, ref: AttrRef,
                check: Callable[[Any], bool]) -> np.ndarray:
    """Whether *check* holds for every row of each code of *part*."""
    if values.dtype.kind in "fiub" and ref.op != "=~":
        if ref.op == "=":
            hits = values == ref.literal
        elif ref.op == "!=":
            hits = values != ref.literal
        else:
            try:
                hits = _ORDER[ref.op](values.astype(np.float64),
                                      float(ref.literal))
            except ValueError:  # a literal that is not a number
                hits = np.zeros(len(values), dtype=bool)
        return np.logical_and.reduceat(hits[part.order], part.starts[:-1])
    cells = values[part.order]
    starts = part.starts.tolist()
    return np.fromiter((all(map(check, cells[a:b]))
                        for a, b in zip(starts, starts[1:])),
                       dtype=bool, count=len(part.uniques))


def query_thicket(tk, matcher: QueryMatcher, squash: bool = True):
    """Apply *matcher* to *tk*; returns a new Thicket of matched paths."""
    from ..graph.squash import squash_graph

    frame = tk.dataframe
    part = frame.index.partition(0)
    n = len(part.uniques)

    def compare(ref: AttrRef, check: Callable[[Any], bool]) -> np.ndarray:
        # one slot per node code, then one for a node with no rows
        truth = np.zeros(n + 1, dtype=bool)
        if ref.attr in frame:
            if n:
                truth[:n] = _node_truth(frame.column(ref.attr), part, ref,
                                        check)
            truth[n] = True
        return truth

    def node_test(q):
        if q.columns is None:  # an opaque predicate reads the row view
            return None
        truth = np.broadcast_to(q.columns(compare), n + 1).tolist()
        return lambda node: truth[part.lookup.get(node, n)]

    matched = matcher.apply(
        tk.graph, lambda node: _RowView(frame, part.positions(node)),
        [node_test(q) for q in matcher.query_nodes])
    new_perf = frame[part.row_mask(matched)]

    if squash:
        new_graph, node_map = squash_graph(tk.graph, set(matched))
        new_perf.index = new_perf.index.relabel(0, node_map)
    else:
        new_graph = tk.graph

    return tk._derive(new_perf, graph=new_graph)
