"""Canonical forms for labelled call trees (the isomorphism test).

The paper notes Thicket "solves the graph isomorphism problem" to
intersect the call trees of an ensemble.  For rooted *labelled* trees,
isomorphism is decidable in linear time via canonical forms
(Aho-Hopcroft-Ullman): recursively canonize children, sort, and wrap
with the node's own label.  Two trees are isomorphic (with matching
labels) iff their canonical forms are equal.  :meth:`Node.connect`
keeps every graph a forest of trees, so each node is canonized once.

This module is also used by the ablation benchmark comparing
canonical-form matching against naive recursive merging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = ["canonical_form", "trees_isomorphic"]


def _canon(node: Node) -> tuple:
    """Canonical tuple for the subtree rooted at *node*."""
    return (node.frame._key, tuple(sorted(_canon(c) for c in node.children)))


def canonical_form(graph: "Graph") -> tuple:
    """Order-independent canonical form of a whole forest."""
    return tuple(sorted(_canon(root) for root in graph.roots))


def trees_isomorphic(a: "Graph", b: "Graph") -> bool:
    """Label-preserving isomorphism test for two forests."""
    return canonical_form(a) == canonical_form(b)
