"""Call-tree nodes.

A :class:`Frame` is the identity of a node — an immutable, ordered
attribute mapping (at minimum ``name``, usually also ``type``).  A
:class:`Node` places a frame in a graph: it stores parent and child
links and a stable numeric id used for deterministic ordering.

Nodes are used directly as row labels in the performance-data table
(the paper's *(call tree node, profile index)* key), so they hash by
identity and sort by ``(name, nid)``.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

__all__ = ["Frame", "Node", "node_path"]


class Frame:
    """Immutable attribute set identifying a call-tree node."""

    __slots__ = ("attrs", "_key")

    def __init__(self, attrs: Mapping[str, Any] | None = None, **kwargs: Any):
        merged: dict[str, Any] = dict(attrs or {})
        merged.update(kwargs)
        if "name" not in merged:
            raise ValueError("Frame requires a 'name' attribute")
        merged.setdefault("type", "region")
        self.attrs = merged
        self._key = tuple(sorted(merged.items()))

    @property
    def name(self) -> str:
        return self.attrs["name"]

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Frame) and self._key == other._key

    def __lt__(self, other: "Frame") -> bool:
        return self._key < other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Frame({self.attrs!r})"

    def __str__(self) -> str:
        return self.name


class Node:
    """A node in a call graph; identity-hashed, ordered by (name, nid)."""

    __slots__ = ("frame", "parents", "children", "_nid")

    def __init__(self, frame: Frame, nid: int = -1):
        self.frame = frame
        self.parents: list[Node] = []
        self.children: list[Node] = []
        self._nid = nid

    # -- structure -----------------------------------------------------
    def add_child(self, child: "Node") -> None:
        if child not in self.children:
            self.children.append(child)

    def add_parent(self, parent: "Node") -> None:
        if parent not in self.parents:
            self.parents.append(parent)

    def connect(self, child: "Node") -> "Node":
        """Link *child* under self (both directions); returns the child."""
        self.add_child(child)
        child.add_parent(self)
        return child

    @property
    def name(self) -> str:
        return self.frame.name

    def traverse(self, order: str = "pre") -> Iterator["Node"]:
        """Depth-first traversal of the subtree rooted here.

        Visits each node once even when the graph is a DAG (a node with
        several parents appears a single time).
        """
        visited: set[int] = set()

        def _walk(node: "Node") -> Iterator["Node"]:
            if id(node) in visited:
                return
            visited.add(id(node))
            if order == "pre":
                yield node
            for child in node.children:
                yield from _walk(child)
            if order == "post":
                yield node

        yield from _walk(self)

    # -- ordering ------------------------------------------------------
    # Equality and hashing are the object defaults (identity), which
    # dicts and sets keyed by nodes evaluate in C; a Python-level
    # __hash__/__eq__ would cost every such lookup a function call.
    def __lt__(self, other: "Node") -> bool:
        return (self.frame.name, self._nid) < (other.frame.name, other._nid)

    def __repr__(self) -> str:
        return f"Node({{'name': {self.frame.name!r}, 'type': {self.frame.get('type')!r}}})"

    def __str__(self) -> str:
        return self.frame.name

    def copy(self) -> "Node":
        """Shallow copy with no parent/child links."""
        return Node(self.frame, nid=self._nid)


def node_path(node: Node) -> tuple[Frame, ...]:
    """Frames from the root down to *node* (first-parent path in a DAG)."""
    parts: list[Frame] = []
    cur: Node | None = node
    seen: set[int] = set()
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        parts.append(cur.frame)
        cur = cur.parents[0] if cur.parents else None
    return tuple(reversed(parts))
