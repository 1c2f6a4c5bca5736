"""``repro.graph`` — labelled call-tree substrate (Hatchet substitute)."""

from .arithmetic import combine_graphframes, divide, subtract
from .canon import canonical_form, trees_isomorphic
from .graph import Graph
from .graphframe import GraphFrame
from .node import Frame, Node, node_path
from .union import union_graphs, union_many

__all__ = [
    "Frame",
    "Node",
    "node_path",
    "Graph",
    "GraphFrame",
    "union_graphs",
    "union_many",
    "canonical_form",
    "trees_isomorphic",
    "combine_graphframes",
    "subtract",
    "divide",
]
