"""GraphFrame: one profile = a call graph + per-node metric rows + metadata.

This is the Hatchet-equivalent single-profile container that Thicket
readers produce and the Thicket constructor consumes.  The dataframe is
indexed by :class:`~repro.graph.node.Node` and holds one row per node;
``metadata`` carries the run's build settings and execution context
(the Adiak globals in a Caliper profile).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..frame import DataFrame, Index
from .graph import Graph
from .node import Node
from .squash import squash_graph

__all__ = ["GraphFrame"]


class GraphFrame:
    """A single performance profile over a call graph.

    Parameters
    ----------
    graph:
        The call graph.
    dataframe:
        Frame indexed by node (index name ``"node"``), one row per node.
    metadata:
        Per-run key→value metadata.
    exc_metrics / inc_metrics:
        Which columns are exclusive vs inclusive metrics.
    default_metric:
        Metric used by ``tree()`` when none is given.
    """

    def __init__(self, graph: Graph, dataframe: DataFrame,
                 metadata: Mapping[str, Any] | None = None,
                 exc_metrics: Sequence[str] | None = None,
                 inc_metrics: Sequence[str] | None = None,
                 default_metric: str | None = None):
        self.graph = graph
        self.dataframe = dataframe
        self.metadata = dict(metadata or {})
        self.exc_metrics = list(exc_metrics or [])
        self.inc_metrics = list(inc_metrics or [])
        self.default_metric = default_metric or (
            self.exc_metrics[0] if self.exc_metrics
            else (self.inc_metrics[0] if self.inc_metrics
                  else (dataframe.columns[0] if dataframe.columns else None))
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_literal(cls, literal: list[Mapping]) -> "GraphFrame":
        """Build a profile from a nested dict spec with ``metrics`` blocks."""
        graph = Graph.from_literal(literal)
        nodes = graph.node_order()  # the literal's pre-order

        rows: list[dict] = []

        def collect(spec: Mapping) -> None:
            rows.append(dict(spec.get("metrics", {})))
            for child_spec in spec.get("children", []):
                collect(child_spec)

        for spec in literal:
            collect(spec)

        keys = dict.fromkeys(k for metrics in rows for k in metrics)
        data = {k: [metrics.get(k, np.nan) for metrics in rows] for k in keys}
        data["name"] = [n.frame.name for n in nodes]
        df = DataFrame(data, index=Index(nodes, name="node"))
        exc = [k for k in keys if "(inc)" not in k]
        inc = [k for k in keys if "(inc)" in k]
        return cls(graph, df, exc_metrics=exc, inc_metrics=inc)

    # ------------------------------------------------------------------
    def copy(self) -> "GraphFrame":
        """Deep-copies structure and data; graph nodes are re-created."""
        return self._rekeyed(*self.graph.copy(), self.dataframe.copy())

    def _rekeyed(self, graph: Graph, mapping: dict[Node, Node],
                 df: DataFrame) -> "GraphFrame":
        """This profile's metadata over *graph*, with *df*'s rows
        re-keyed through *mapping* (old node → node of *graph*)."""
        df.index = Index(
            [mapping[n] for n in df.index.values], name=df.index.name
        )
        return GraphFrame(graph, df, metadata=dict(self.metadata),
                          exc_metrics=list(self.exc_metrics),
                          inc_metrics=list(self.inc_metrics),
                          default_metric=self.default_metric)

    def shallow_copy(self) -> "GraphFrame":
        """Same graph object, copied dataframe/metadata."""
        return GraphFrame(self.graph, self.dataframe.copy(),
                          metadata=dict(self.metadata),
                          exc_metrics=list(self.exc_metrics),
                          inc_metrics=list(self.inc_metrics),
                          default_metric=self.default_metric)

    def __len__(self) -> int:
        return len(self.dataframe)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def calculate_inclusive_metrics(self) -> None:
        """Sum each exclusive metric over subtrees → ``"<metric> (inc)"``.

        Post-order accumulation over the call tree: each node adds its
        children's inclusive values to its own.
        """
        nodes = self.graph.node_order()
        pos = {n: i for i, n in enumerate(self.dataframe.index.values)}
        for metric in list(self.exc_metrics):
            exc = self.dataframe.column(metric).astype(np.float64)
            inc = exc.copy()
            for node in reversed(nodes):  # children before parents in pre-order reversal
                for child in node.children:
                    inc[pos[node]] += inc[pos[child]]
            name = f"{metric} (inc)"
            self.dataframe[name] = inc
            if name not in self.inc_metrics:
                self.inc_metrics.append(name)

    def calculate_exclusive_metrics(self) -> None:
        """Inverse of :meth:`calculate_inclusive_metrics`."""
        pos = {n: i for i, n in enumerate(self.dataframe.index.values)}
        for metric in list(self.inc_metrics):
            if not metric.endswith(" (inc)"):
                continue
            base = metric[: -len(" (inc)")]
            if base in self.dataframe:
                continue
            inc = self.dataframe.column(metric).astype(np.float64)
            exc = inc.copy()
            for node in self.graph.traverse():
                for child in node.children:
                    exc[pos[node]] -= inc[pos[child]]
            self.dataframe[base] = exc
            if base not in self.exc_metrics:
                self.exc_metrics.append(base)

    # ------------------------------------------------------------------
    # filtering / squashing
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[dict], bool], squash: bool = True
               ) -> "GraphFrame":
        """Keep rows whose row-dict satisfies *predicate*.

        With ``squash=True`` the graph is rebuilt so that children of
        removed nodes are re-parented to their nearest kept ancestor.
        """
        keep_mask = np.fromiter(
            (bool(predicate(row)) for _, row in self.dataframe.iterrows()),
            dtype=bool, count=len(self.dataframe),
        )
        if not squash:
            out = self.shallow_copy()
            out.dataframe = out.dataframe[keep_mask]
            return out
        kept_nodes = {n for n, m in zip(self.dataframe.index.values, keep_mask) if m}
        return self._rekeyed(*squash_graph(self.graph, kept_nodes),
                             self.dataframe[keep_mask])

    # ------------------------------------------------------------------
    def tree(self, metric_column: str | None = None, precision: int = 3,
             color: bool = False) -> str:
        """ASCII rendering of the call tree annotated with a metric."""
        from ..viz.tree import render_tree

        return render_tree(self.graph, self.dataframe,
                           metric_column or self.default_metric,
                           precision=precision, color=color)

    def __repr__(self) -> str:
        return (f"GraphFrame(nodes={len(self.graph)}, "
                f"metrics={self.exc_metrics + self.inc_metrics!r})")
