"""Graph union on structural identity.

Two nodes are identified when their *call paths* — the sequence of
frames from a root — are equal.  For labelled call trees this is
exactly the intersection/union of the trees the paper computes via
labelled-graph isomorphism: paths are canonical names for nodes, so
matching paths ⇔ an isomorphism of the shared subtree that preserves
labels.  The union graph contains one node per distinct path across
both inputs.
"""

from __future__ import annotations

from ..obs import span as obs_span
from .graph import Graph
from .node import Frame, Node

__all__ = ["union_graphs", "union_many"]


def union_graphs(a: Graph, b: Graph) -> tuple[Graph, dict[Node, Node], dict[Node, Node]]:
    """Union of two graphs: ``(union, map_a, map_b)``, where the maps
    send each input's nodes to the union node of the same call path."""
    union, maps = union_many([a, b])
    return union, maps[0], maps[1]


def union_many(graphs: list[Graph]) -> tuple[Graph, list[dict[Node, Node]]]:
    """Union of any number of graphs in one pass.

    Returns the union graph plus, per input graph, a mapping from its
    nodes to union nodes.  Children keep first-seen order so the union
    of identical graphs reproduces the input ordering.
    """
    # a union node stands for one call path, so (union parent, frame)
    # names a path without hashing the whole frame tuple
    path_to_node: dict[tuple[Node | None, Frame], Node] = {}
    roots: list[Node] = []
    maps: list[dict[Node, Node]] = []

    with obs_span("graph.union", graphs=len(graphs)) as s:
        for graph in graphs:
            mapping: dict[Node, Node] = {}

            def visit(node: Node, parent_union: Node | None) -> None:
                key = (parent_union, node.frame)
                union_node = path_to_node.get(key)
                if union_node is None:
                    union_node = Node(node.frame)
                    path_to_node[key] = union_node
                    if parent_union is None:
                        roots.append(union_node)
                    else:
                        parent_union.connect(union_node)
                mapping[node] = union_node
                for child in node.children:
                    visit(child, union_node)

            for root in graph.roots:
                visit(root, None)
            maps.append(mapping)

        union = Graph(roots)
        s.set("union_nodes", len(path_to_node))
    return union, maps
