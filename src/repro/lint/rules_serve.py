"""Family C: rules for the serving boundary (``repro/serve/``).

A daemon's exception discipline is stricter than a library's: whatever
goes wrong inside a request handler, the *client* must receive a typed
JSON error envelope with a machine-readable code — never a raw
traceback, never a torn connection caused by an exception unwinding
through the socket layer.  RPR009 turns that contract into a
machine-checked invariant over ``src/repro/serve/``.

======  ==============================================================
RPR009  serve handlers must map exceptions to typed JSON responses
======  ==============================================================
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule, module_matches, register

__all__ = ["SERVE_RULE_IDS"]

_BROAD = {"Exception", "BaseException"}

#: the exception→response mapper (``serve/service.py``); a broad
#: handler in serve/ must funnel through it (or re-raise)
_MAPPER = "error_payload"


def _dotted_tail(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[0] if parts else ""


def _is_broad(type_node: ast.AST | None) -> bool:
    if type_node is None:
        return True
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(e) for e in type_node.elts)
    return _dotted_tail(type_node) in _BROAD


def _calls_mapper(body: list[ast.stmt]) -> bool:
    """Does any call in *body* route through the mapper?"""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) \
                    and _dotted_tail(sub.func) == _MAPPER:
                return True
    return False


def _reraises(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True
    return False


@register
class ServeErrorMappingRule(Rule):
    rule_id = "RPR009"
    severity = "error"
    description = ("serve/ request handlers must map every exception to "
                   "a typed JSON error response (no bare except "
                   "swallowing errors into code-less 500s, no exception "
                   "raising through the socket layer)")
    rationale = ("a traceback leaking to an HTTP client is both an "
                 "information leak and an untyped contract violation; "
                 "clients retry on machine-readable codes, not on "
                 "stack traces or torn connections")

    SERVE_MODULES = ("serve/",)
    # the worker pool intentionally captures exceptions to transport
    # them back to the waiting request thread, where they re-raise
    # and reach the mapper; its broad handlers are the mechanism
    TRANSPORT_MODULES = ("serve/workers.py",)

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: FileContext) -> None:
        if not module_matches(ctx.module, self.SERVE_MODULES):
            return
        if module_matches(ctx.module, self.TRANSPORT_MODULES):
            return
        if not _is_broad(node.type):
            return
        if _reraises(node.body) or _calls_mapper(node.body):
            return
        caught = "everything" if node.type is None \
            else _dotted_tail(node.type)
        ctx.report(self, node,
                   f"broad except catching {caught} in a serve module "
                   f"must re-raise or map the exception through "
                   f"{_MAPPER}() so the client receives "
                   f"a typed JSON error")

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: FileContext) -> None:
        if not module_matches(ctx.module, self.SERVE_MODULES):
            return
        if not node.name.startswith("do_"):
            return
        body = list(node.body)
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]  # docstring
        guarded = [stmt for stmt in body if self._is_guarded_try(stmt)]
        unguarded = [stmt for stmt in body
                     if not self._is_guarded_try(stmt)]
        if not guarded or unguarded:
            ctx.report(self, node,
                       f"HTTP verb handler {node.name} must wrap its "
                       f"whole body in try/except Exception mapping to "
                       f"a typed JSON error ({_MAPPER}());"
                       f" an exception escaping do_* tears the "
                       f"connection instead of answering it")
            return
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise) and not self._inside_try(
                        sub, guarded):
                    ctx.report(self, sub,
                               f"raise outside the guarded try in "
                               f"{node.name}: exceptions must not "
                               f"unwind through the socket layer")

    @staticmethod
    def _is_guarded_try(stmt: ast.stmt) -> bool:
        """A Try whose broad handler maps errors to JSON responses."""
        if not isinstance(stmt, ast.Try):
            return False
        for handler in stmt.handlers:
            if _is_broad(handler.type) and _calls_mapper(handler.body):
                return True
        return False

    @staticmethod
    def _inside_try(node: ast.Raise, guarded: list[ast.stmt]) -> bool:
        for try_stmt in guarded:
            assert isinstance(try_stmt, ast.Try)
            for sub in ast.walk(ast.Module(body=try_stmt.body,
                                           type_ignores=[])):
                if sub is node:
                    return True
        return False


SERVE_RULE_IDS = ["RPR009"]
