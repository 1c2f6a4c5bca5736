"""Frozen per-node evaluator of string-dialect queries, for the oracles.

A frozen copy of how ``query_thicket`` evaluated a string-dialect
``WHERE`` before comparisons were evaluated per column: for each node
the row view gathers the node's cells of a column into a ``Series``
(an object column through the frame's per-node type inference), and
the comparison's ``check`` is called on every value, ``.all()`` style.

Queries are written as data here and rendered to the string dialect
for the live code, so the reference shares no parsing or predicate
code with it; only the path-matching engine and the frame's ``Series``
are shared.

A query is ``(steps, where)``: ``steps`` a list of ``(quantifier,
ident or None)``, ``where`` ``None`` or an expression —
``("cmp", ident, attr, op, literal)``, ``("and" | "or", left, right)``
or ``("not", inner)``.  A number literal is a ``(text, value)`` pair.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.frame import Series
from repro.query import QueryMatcher, QueryNode


def render(query) -> str:
    """The query in the string dialect."""
    steps, where = query

    def step(quantifier, ident) -> str:
        q = str(quantifier) if isinstance(quantifier, int) else f'"{quantifier}"'
        return f"({q}, {ident})" if ident else f"({q})"

    text = "MATCH " + "->".join(step(*s) for s in steps)
    return text if where is None else f"{text} WHERE {_render(where)}"


def _render(expr) -> str:
    if expr[0] == "cmp":
        _, ident, attr, op, literal = expr
        lit = literal[0] if isinstance(literal, tuple) else f'"{literal}"'
        return f'{ident}."{attr}" {op} {lit}'
    if expr[0] == "not":
        return f"NOT {_render(expr[1])}"
    return f"({_render(expr[1])} {expr[0].upper()} {_render(expr[2])})"


def uses(expr, op: str, attr: str) -> bool:
    """Whether *expr* holds a comparison ``attr op …``."""
    if expr is None:
        return False
    if expr[0] == "cmp":
        return expr[2:4] == (attr, op)
    return any(uses(e, op, attr) for e in expr[1:])


# --- the frozen evaluator --------------------------------------------

def _scalar_check(op: str, literal: Any) -> Callable[[Any], bool]:
    if op == "=~":
        pattern = re.compile(str(literal))
        return lambda v: v is not None and pattern.fullmatch(str(v)) is not None
    if op == "=":
        return lambda v: v == literal or (
            isinstance(v, (int, float)) and isinstance(literal, float)
            and float(v) == literal)
    if op == "!=":
        return lambda v: v != literal
    numeric = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }[op]

    def check(v: Any) -> bool:
        try:
            return bool(numeric(float(v), float(literal)))
        except (TypeError, ValueError):
            return False

    return check


def _predicate(expr) -> Callable[[str, Any], bool]:
    """``fn(bound_name, row) -> bool``."""
    if expr[0] == "not":
        inner = _predicate(expr[1])
        return lambda name, row: not inner(name, row)
    if expr[0] in ("and", "or"):
        left, right = _predicate(expr[1]), _predicate(expr[2])
        if expr[0] == "and":
            return lambda name, row: left(name, row) and right(name, row)
        return lambda name, row: left(name, row) or right(name, row)
    _, ident, attr, op, literal = expr
    if isinstance(literal, tuple):
        literal = literal[1]
    check = _scalar_check(op, literal)

    def compare(name: str, row: Any) -> bool:
        if name != ident:
            return True  # comparison constrains a different binding
        try:
            value = row[attr]
        except (KeyError, TypeError):
            return False
        if hasattr(value, "apply") and hasattr(value, "all"):
            return all(check(v) for v in value)  # stops at the first miss
        return bool(check(value))

    return compare


def _matcher(query) -> QueryMatcher:
    steps, where = query
    bindings = {name: idx for idx, (_, name) in enumerate(steps)
                if name is not None}
    nodes = [QueryNode(quantifier) for quantifier, _ in steps]
    if where is not None:
        expr = _predicate(where)
        for name, idx in bindings.items():
            nodes[idx] = QueryNode(steps[idx][0],
                                   lambda row, name=name: expr(name, row))
    return QueryMatcher(nodes)


def _row_view(tk, infer: bool):
    labels = list(tk.dataframe.index.values)

    class RowView:
        """Column -> Series of one node's per-profile values."""

        def __init__(self, pos: list):
            self.pos = pos

        def __getitem__(self, col):
            if col not in tk.dataframe:
                raise KeyError(col)
            values = tk.dataframe.column(col)[self.pos]
            if values.dtype == object and infer:
                values = list(values)  # infer a type for this node's rows
            return Series(values, name=col)

    return lambda node: RowView([i for i, t in enumerate(labels)
                                 if t[0] is node])


def matched_nodes(tk, query, infer: bool = True) -> list:
    """The nodes the per-node evaluator matches, in traversal order.

    ``infer=False`` hands each node's stored object cells to the
    comparisons as they are, without the per-node type inference.
    """
    return _matcher(query).apply(tk.graph, _row_view(tk, infer))
