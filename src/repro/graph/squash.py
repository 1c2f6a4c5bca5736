"""Non-destructive graph squashing.

Given a set of nodes to keep, build a **new** forest of fresh node
objects where children of dropped nodes are re-parented to their
nearest kept ancestor.  The old→new mapping lets callers re-key
dataframes indexed by the old nodes.  Used by Thicket's intersection
composition, call-path querying, ``GraphFrame.filter`` and (keeping
every node) ``Graph.copy``.
"""

from __future__ import annotations

from .graph import Graph
from .node import Node

__all__ = ["squash_graph"]


def squash_graph(graph: Graph, keep: set[Node]) -> tuple[Graph, dict[Node, Node]]:
    """Return ``(new_graph, old_node -> new_node)`` restricted to *keep*."""
    mapping: dict[Node, Node] = {}
    new_roots: list[Node] = []

    def rebuild(node: Node, nearest_kept: Node | None) -> None:
        if node in keep:
            clone = mapping[node] = node.copy()
            if nearest_kept is None:
                new_roots.append(clone)
            else:
                nearest_kept.connect(clone)
            nearest_kept = clone
        for child in node.children:
            rebuild(child, nearest_kept)

    for root in graph.roots:
        rebuild(root, None)
    return Graph(new_roots), mapping
