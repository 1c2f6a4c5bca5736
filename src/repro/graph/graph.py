"""The call graph: a forest of :class:`~repro.graph.node.Node` trees.

Provides traversal, literal round-trips, copying and structural
equality; ``Graph(roots)`` refuses a root that has a parent.  The union
that composes profiles (the composition basis, §3.2 of the paper) is
:mod:`repro.graph.union`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..errors import CompositionError
from .node import Frame, Node

__all__ = ["Graph"]


class Graph:
    """A rooted forest of call-tree nodes, snapshotted at construction:
    one walk numbers the nodes (``_nid``) in pre-order and keeps the
    order that traversal, ``len`` and the finders read."""

    def __init__(self, roots: Iterable[Node]):
        self.roots = list(roots)
        for root in self.roots:
            if root.parent is not None:
                raise CompositionError(f"root {root!r} has a parent, "
                                       f"{root.parent!r}")
        order: list[Node] = []
        stack = self.roots[::-1]
        while stack:
            node = stack.pop()
            node._nid = len(order)
            order.append(node)
            stack.extend(reversed(node.children))
        self._order = order

    # ------------------------------------------------------------------
    @classmethod
    def from_literal(cls, literal: list[Mapping]) -> "Graph":
        """Build a graph from a nested dict description::

            Graph.from_literal([
                {"frame": {"name": "main"}, "children": [
                    {"frame": {"name": "solve"}},
                ]},
            ])
        """

        def build(spec: Mapping, parent: Node | None) -> Node:
            frame = Frame(spec["frame"]) if "frame" in spec else Frame(
                name=spec["name"]
            )
            node = Node(frame)
            if parent is not None:
                parent.connect(node)
            for child_spec in spec.get("children", []):
                build(child_spec, node)
            return node

        return cls([build(spec, None) for spec in literal])

    def to_literal(self) -> list[dict]:
        """Inverse of :meth:`from_literal` (tree view of the graph)."""

        def emit(node: Node) -> dict:
            spec: dict = {"frame": dict(node.frame.attrs)}
            if node.children:
                spec["children"] = [emit(c) for c in node.children]
            return spec

        return [emit(r) for r in self.roots]

    # ------------------------------------------------------------------
    def traverse(self, order: str = "pre") -> Iterator[Node]:
        if order == "pre":
            return iter(self._order)
        return (node for root in self.roots for node in root.traverse(order))

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def node_order(self) -> list[Node]:
        """A new list of every node in pre-order."""
        return list(self._order)

    def find(self, name: str) -> Node | None:
        """First node (pre-order) whose frame name equals *name*."""
        return next((n for n in self._order if n.frame.name == name), None)

    def find_all(self, predicate: str | Callable[[Node], bool]) -> list[Node]:
        if isinstance(predicate, str):
            wanted = predicate
            predicate = lambda n: n.frame.name == wanted  # noqa: E731
        return [n for n in self._order if predicate(n)]

    # ------------------------------------------------------------------
    def copy(self) -> tuple["Graph", dict[Node, Node]]:
        """Deep copy of the structure; returns (graph, old→new node map)."""
        from .squash import squash_graph

        return squash_graph(self, set(self._order))

    # ------------------------------------------------------------------
    # structural identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: same shape with equal frames."""
        if not isinstance(other, Graph):
            return NotImplemented
        from .canon import canonical_form

        return canonical_form(self) == canonical_form(other)

    def __hash__(self):
        raise TypeError("Graph objects are not hashable")
