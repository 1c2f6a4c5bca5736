"""Call-tree nodes.

A :class:`Frame` is the identity of a node — an immutable, ordered
attribute mapping (at minimum ``name``, usually also ``type``).  A
:class:`Node` places a frame in a call tree: it stores its one parent,
its children and a stable numeric id used for deterministic ordering.
:meth:`Node.connect`, the only way to link nodes, keeps graphs trees.

Nodes are used directly as row labels in the performance-data table
(the paper's *(call tree node, profile index)* key), so they hash by
identity and sort by ``(name, nid)``.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..errors import CompositionError

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
    """A node in a call tree; identity-hashed, ordered by (name, nid)."""

    __slots__ = ("frame", "parent", "children", "_nid")

    def __init__(self, frame: Frame, nid: int = -1):
        self.frame = frame
        self.parent: Node | None = None
        self.children: list[Node] = []
        self._nid = nid

    # -- structure -----------------------------------------------------
    def connect(self, child: "Node") -> "Node":
        """Link *child* under self (both directions); returns the child.

        Does nothing when *child* is already under self.  Raises
        :class:`~repro.errors.CompositionError` (a ``ValueError``) when
        *child* has another parent, or is self or the root of self's
        tree: a node has one parent and no cycles.
        """
        if child.parent is self:
            return child
        if child.parent is not None:
            raise CompositionError(f"{child!r} already has a parent, "
                                   f"{child.parent!r}")
        # a parentless child is an ancestor of self only as the root of
        # self's tree, which a childless node other than self cannot be
        if child is self or (child.children and _root(self) is child):
            raise CompositionError(f"connecting {child!r} under "
                                   f"{self!r} would close a cycle")
        child.parent = self
        self.children.append(child)
        return child

    @property
    def name(self) -> str:
        return self.frame.name

    def traverse(self, order: str = "pre") -> Iterator["Node"]:
        """Depth-first traversal of the subtree rooted here."""
        if order == "pre":
            yield self
        for child in self.children:
            yield from child.traverse(order)
        if order == "post":
            yield self

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


def _root(node: Node) -> Node:
    while node.parent is not None:
        node = node.parent
    return node


def node_path(node: Node) -> tuple[Frame, ...]:
    """Frames from the root down to *node*."""
    parts: list[Frame] = []
    cur: Node | None = node
    while cur is not None:
        parts.append(cur.frame)
        cur = cur.parent
    return tuple(reversed(parts))
