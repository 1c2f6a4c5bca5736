"""String-based dialect of the Call Path Query Language.

Hatchet (and therefore Thicket) ships a Cypher-inspired string syntax
alongside the object/fluent APIs; this module implements it::

    MATCH (".", p)->("*")->(".", q)
    WHERE p."name" = "Base_CUDA" AND q."name" =~ ".*block_128"

Grammar (informal):

.. code-block:: text

    query      := MATCH pattern [WHERE predicate]
    pattern    := step ("->" step)*
    step       := "(" quantifier ["," ident] ")"
    quantifier := '"."' | '"*"' | '"+"' | INT
    predicate  := disjunction of conjunctions of comparisons
    comparison := ident '.' STRING op literal | NOT comparison
                  | "(" predicate ")"
    op         := = | != | < | <= | > | >= | =~   (regex full-match)

Comparisons on a node bound to an ensemble row apply Thicket's
``.all()`` semantics: every profile's value must satisfy the test.

The parser turns ``WHERE`` into an expression of comparisons joined by
``and``/``or``/``not`` and gives each bound query node two forms of
it.  The *predicate* reads one node's row view, comparison by
comparison, for any mapping of column name to a value or a Series of
values.  The *column form* (``QueryNode.columns``) hands each
comparison to a caller-supplied ``compare(ref, check)`` that tests a
whole column at once and returns one boolean per node;
:func:`repro.core.querying.query_thicket` evaluates a thicket's
queries this way and combines the per-node arrays.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from ..errors import ReproError
from .matcher import QueryMatcher
from .primitives import AttrRef, QueryNode

__all__ = ["parse_string_dialect", "QuerySyntaxError"]


class QuerySyntaxError(ReproError, ValueError):
    """Raised for malformed string-dialect queries.

    Doubles as a ``ValueError`` so callers predating the typed
    hierarchy keep working.
    """

    default_stage = "parse"


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<arrow>->)
  | (?P<op><=|>=|!=|=~|=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
""", re.VERBOSE)

_KEYWORDS = {"MATCH", "WHERE", "AND", "OR", "NOT"}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "word" and value.upper() in _KEYWORDS:
            kind, value = "keyword", value.upper()
        tokens.append(_Token(kind, value, m.start()))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        # (bound identifier, AttrRef) per comparison, in source order —
        # the statically known structure validate_query() works from.
        self.comparisons: list[tuple[str, AttrRef]] = []

    # -- token helpers ---------------------------------------------------
    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query")
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise QuerySyntaxError(
                f"expected {value or kind} at position {tok.pos}, "
                f"got {tok.value!r}")
        return tok

    def accept(self, kind: str, value: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok and tok.kind == kind and (value is None or tok.value == value):
            self.i += 1
            return tok
        return None

    # -- grammar ----------------------------------------------------------
    def parse(self) -> QueryMatcher:
        self.expect("keyword", "MATCH")
        steps = [self._step()]
        while self.accept("arrow"):
            steps.append(self._step())

        bindings = {name: idx for idx, (_, name) in enumerate(steps)
                    if name is not None}
        where = self._disjunction() if self.accept("keyword", "WHERE") else None
        if self.peek() is not None:
            raise QuerySyntaxError(
                f"trailing input at position {self.peek().pos}")

        refs_of: dict[int, list[AttrRef]] = {}
        unbound: list[tuple[str, AttrRef]] = []
        for ident, ref in self.comparisons:
            if ident in bindings:
                refs_of.setdefault(bindings[ident], []).append(ref)
            else:
                unbound.append((ident, ref))

        nodes = []
        for idx, (quantifier, name) in enumerate(steps):
            if where is None or bindings.get(name) != idx:
                nodes.append(QueryNode(quantifier, refs=refs_of.get(idx, [])))
            else:
                nodes.append(QueryNode(
                    quantifier, partial(_row_truth, where, name),
                    refs=refs_of.get(idx, []),
                    columns=partial(_column_truth, where, name)))
        matcher = QueryMatcher(nodes)
        matcher.unbound_refs = unbound
        return matcher

    def _step(self) -> tuple[str | int, str | None]:
        self.expect("lparen")
        tok = self.next()
        if tok.kind == "string":
            quantifier: str | int = _unquote(tok.value)
            if quantifier not in (".", "*", "+"):
                raise QuerySyntaxError(
                    f"bad quantifier {quantifier!r} at position {tok.pos}")
        elif tok.kind == "number":
            quantifier = int(float(tok.value))
        else:
            raise QuerySyntaxError(
                f"expected quantifier at position {tok.pos}")
        name = None
        if self.accept("comma"):
            name = self.expect("word").value
        self.expect("rparen")
        return quantifier, name

    # WHERE expression: a _Comparison, or ("and" | "or", left, right),
    # or ("not", inner)
    def _disjunction(self):
        left = self._conjunction()
        while self.accept("keyword", "OR"):
            left = ("or", left, self._conjunction())
        return left

    def _conjunction(self):
        left = self._unary()
        while self.accept("keyword", "AND"):
            left = ("and", left, self._unary())
        return left

    def _unary(self):
        if self.accept("keyword", "NOT"):
            return ("not", self._unary())
        if self.accept("lparen"):
            inner = self._disjunction()
            self.expect("rparen")
            return inner
        return self._comparison()

    def _comparison(self) -> "_Comparison":
        ident = self.expect("word").value
        self.expect("dot")
        attr = _unquote(self.expect("string").value)
        op = self.expect("op").value
        lit_tok = self.next()
        if lit_tok.kind == "string":
            literal: Any = _unquote(lit_tok.value)
        elif lit_tok.kind == "number":
            literal = float(lit_tok.value)
        else:
            raise QuerySyntaxError(
                f"expected literal at position {lit_tok.pos}")
        ref = AttrRef(attr, op, literal)
        self.comparisons.append((ident, ref))
        return _Comparison(ident, ref, _scalar_check(op, literal))


class _Comparison(NamedTuple):
    """``ident."attr" op literal``; *check* tests one cell."""

    ident: str
    ref: AttrRef
    check: Callable[[Any], bool]


def _row_truth(expr, name: str, row: Any) -> bool:
    """*expr* for the node bound to *name*, read from its row view."""
    if isinstance(expr, _Comparison):
        if expr.ident != name:
            return True  # comparison constrains a different binding
        try:
            value = row[expr.ref.attr]
        except (KeyError, TypeError):
            return False
        if hasattr(value, "apply") and hasattr(value, "all"):
            return all(map(expr.check, value))  # stops at the first miss
        return bool(expr.check(value))
    if expr[0] == "not":
        return not _row_truth(expr[1], name, row)
    if expr[0] == "and":
        return _row_truth(expr[1], name, row) and _row_truth(expr[2], name, row)
    return _row_truth(expr[1], name, row) or _row_truth(expr[2], name, row)


def _column_truth(expr, name: str,
                  compare: Callable[[AttrRef, Callable[[Any], bool]], Any]):
    """*expr* for every node at once, as one boolean per node.

    ``compare(ref, check)`` answers one comparison for every node; the
    answers are combined elementwise.  The result is a scalar ``True``
    when no comparison constrains *name*.
    """
    if isinstance(expr, _Comparison):
        return compare(expr.ref, expr.check) if expr.ident == name else True
    if expr[0] == "not":
        return np.logical_not(_column_truth(expr[1], name, compare))
    combine = np.logical_and if expr[0] == "and" else np.logical_or
    return combine(_column_truth(expr[1], name, compare),
                   _column_truth(expr[2], name, compare))


def _unquote(text: str) -> str:
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _scalar_check(op: str, literal: Any) -> Callable[[Any], bool]:
    if op == "=~":
        try:
            pattern = re.compile(str(literal))
        except re.error as exc:
            raise QuerySyntaxError(
                f"invalid regex {str(literal)!r}: {exc}") from exc
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


def parse_string_dialect(query: str) -> QueryMatcher:
    """Compile a string-dialect query into a :class:`QueryMatcher`."""
    return _Parser(_tokenize(query)).parse()
