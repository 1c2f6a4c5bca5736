"""Interprocedural exception-flow analysis and rule ``RPR010``.

``RPR002`` checks every ``raise`` statement against the typed-error
contract, but only *where it is written*: a ``KeyError`` raised in a
private helper is legal there, and nothing checks whether it can
surface from ``load_ensemble`` three frames up.  This module
propagates *raise sets* through the project call graph and closes that
gap.

The analysis is a classic may-raise fixpoint:

    raises(F) = direct(F) ∪ ⋃ over call sites c in F of
                { E ∈ raises(callee(c)) | no handler around c catches E }

* ``direct(F)`` is the set of exception class names ``F`` raises
  explicitly (minus those caught by enclosing ``try`` blocks inside
  ``F`` itself).
* Handler matching is subclass-aware: ``except ReproError`` absorbs a
  propagating ``SchemaError`` because the real class hierarchy (from
  :mod:`repro.errors` and ``builtins``) is consulted, not just names.
* Only *explicit* raises in project code propagate — exceptions born
  inside the standard library are invisible, which keeps the analysis
  an under-approximation: every reported leak corresponds to a raise
  statement actually present in the tree.

``RPR010`` then applies the ``RPR002`` whitelist *per public entry
point*: a public function in the exported surface (``core/``,
``query/``, ``ingest/``, ``errors.py`` — the ``RPR006`` modules) must
not leak anything that is neither a :class:`~repro.errors.ReproError`
nor a builtin whitelisted for its module, and the finding prints the
call chain from the entry point to the offending ``raise``.
"""

from __future__ import annotations

import builtins
from typing import Any

from .engine import Finding, module_matches
from .project import ProjectIndex, ProjectRule, register_project

__all__ = ["EXCFLOW_RULE_IDS", "propagate_raises"]


def _class_for_name(name: str):
    """The real exception class behind *name*, when importable."""
    from .. import errors as repro_errors

    cls = getattr(repro_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls
    if name == "QuerySyntaxError":
        try:
            from ..query.dialect import QuerySyntaxError
            return QuerySyntaxError
        except ImportError:  # pragma: no cover - query always present
            return None
    cls = getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls
    return None


def catches(caught_name: str, raised_name: str) -> bool:
    """Whether ``except caught_name`` absorbs a raised *raised_name*.

    ``"*"`` (a bare/broad handler) catches everything; otherwise the
    real class hierarchy decides, falling back to exact name equality
    when either class is unknown.
    """
    if caught_name == "*" or caught_name == raised_name:
        return True
    caught = _class_for_name(caught_name)
    raised = _class_for_name(raised_name)
    if caught is None or raised is None:
        return False
    return issubclass(raised, caught)


def _filter_caught(raised: set[str], caught: list[str]) -> set[str]:
    if not caught:
        return raised
    return {r for r in raised if not any(catches(c, r) for c in caught)}


def propagate_raises(
        index: ProjectIndex,
) -> dict[str, dict[str, tuple[Any, ...]]]:
    """Fixpoint raise-set propagation over the call graph.

    Returns ``qual → {exception name → origin}`` where origin is either
    ``("raise", line)`` for a direct raise or
    ``("call", call line, callee qual)`` for a propagated one, so
    callers can reconstruct the full leak chain.
    """
    graph = index.call_graph
    raises: dict[str, dict[str, tuple[Any, ...]]] = {}
    for qual, fn, _summary in index.iter_functions():
        direct: dict[str, tuple[Any, ...]] = {}
        for r in fn["raises"]:
            if any(catches(c, r["name"]) for c in r["caught"]):
                continue
            direct.setdefault(r["name"], ("raise", r["line"]))
        raises[qual] = direct

    changed = True
    while changed:
        changed = False
        for qual, fn, _summary in index.iter_functions():
            mine = raises[qual]
            for callee, call in graph.edges.get(qual, ()):
                incoming = _filter_caught(set(raises.get(callee, ())),
                                          call["caught"])
                for name in sorted(incoming):
                    if name not in mine:
                        mine[name] = ("call", call["line"], callee)
                        changed = True
    return raises


def leak_chain(raises: dict[str, dict[str, tuple[Any, ...]]],
               qual: str, name: str,
               limit: int = 12) -> list[tuple[str, int]]:
    """Reconstruct ``[(function, line), …]`` from *qual* to the raise
    statement that originates exception *name*."""
    chain: list[tuple[str, int]] = []
    current = qual
    for _ in range(limit):
        origin = raises.get(current, {}).get(name)
        if origin is None:
            break
        if origin[0] == "raise":
            chain.append((current, origin[1]))
            break
        _kind, line, callee = origin
        chain.append((current, line))
        current = callee
    return chain


@register_project
class PublicLeakRule(ProjectRule):
    rule_id = "RPR010"
    severity = "error"
    description = ("public API functions must not leak exceptions that "
                   "are neither typed ReproErrors nor builtins "
                   "whitelisted for their module (interprocedural "
                   "generalization of RPR002)")
    rationale = ("the per-raise rule cannot see a KeyError thrown two "
                 "private helpers below a public entry point; callers "
                 "program against the typed hierarchy, so anything "
                 "else crossing the API boundary is a contract bug")

    #: exceptions that may always cross the boundary: deliberate
    #: process-exit signals re-raised by the SignalGuard machinery
    ALWAYS_ALLOWED = {"KeyboardInterrupt", "SystemExit", "GeneratorExit",
                      "StopIteration"}

    def check(self, index: ProjectIndex) -> list[Finding]:
        # the whitelist semantics are RPR002's, reused so the two rules
        # can never drift apart
        from .rules_repo import DocstringRule, TypedRaiseRule, \
            _typed_error_names

        typed = _typed_error_names()
        raises = propagate_raises(index)
        findings: list[Finding] = []
        for qual, fn, summary in index.iter_functions():
            if not fn["public"]:
                continue
            cls = fn.get("cls")
            top_short = f"{cls}.{fn['name']}" if cls else fn["name"]
            if fn["short"] != top_short:
                continue  # nested functions are not entry points
            if cls is not None and cls.startswith("_"):
                continue
            module = summary.relpath
            if not module_matches(module, DocstringRule.PUBLIC_MODULES):
                continue
            strict = module_matches(module, TypedRaiseRule.STRICT_MODULES)
            allowed = set(self.ALWAYS_ALLOWED)
            if not strict:
                allowed |= TypedRaiseRule.GLOBAL_BUILTINS
                for pattern, extra in \
                        TypedRaiseRule.MODULE_BUILTINS.items():
                    if module_matches(module, (pattern,)):
                        allowed |= extra
            for name in sorted(raises.get(qual, ())):
                if name in typed or name in allowed:
                    continue
                chain = leak_chain(raises, qual, name)
                hops = " -> ".join(
                    f"{q.split(':', 1)[1]}:{line}" for q, line in chain)
                where = "strict module" if strict else "exported module"
                findings.append(Finding(
                    self.rule_id, summary.path, fn["line"], 0,
                    self.severity,
                    f"public {fn['short']} in {where} {summary.relpath} "
                    f"can leak {name} (via {hops}); wrap it in a typed "
                    f"ReproError at the boundary"))
        return findings


EXCFLOW_RULE_IDS = ["RPR010"]
