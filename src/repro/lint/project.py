"""Whole-program pass: module summaries, symbol table, project rules.

The per-file engine (:mod:`repro.lint.engine`) sees one AST at a time,
so it cannot prove anything about behavior that crosses a function
call — a lock held here around a call that sleeps three frames deeper,
or a ``KeyError`` raised two modules away from the public function it
escapes from.  The project pass closes that gap in three steps:

1. **Summaries** — each file's AST is distilled into a JSON-serializable
   :class:`ModuleSummary`: functions with their call sites (annotated
   with the locks statically held at each site and the exceptions the
   enclosing ``try`` blocks catch), direct blocking operations, lock
   acquisitions, ``yield`` points, and ``raise`` statements, plus the
   module's import aliases, classes, and known lock/thread/queue
   attributes.  Summaries are what the incremental cache persists, so
   a warm run rebuilds the whole-program view without parsing a single
   file.
2. **Index** — :class:`ProjectIndex` stitches the summaries into a
   symbol table that resolves dotted call names through import aliases
   (including relative imports and re-export chains), ``self.``/
   ``super().`` method dispatch, and constructor-typed attributes
   (``self._pool = WorkerPool(...)`` makes ``self._pool.submit`` a call
   into ``WorkerPool.submit``).  Resolution is deliberately
   conservative: a name that cannot be pinned to a project function is
   dropped, never guessed.
3. **Rules** — :class:`ProjectRule` subclasses (registered with
   :func:`register_project`) receive the index and report through the
   ordinary :class:`~repro.lint.engine.Finding` machinery, so project
   findings participate in ``# repro: noqa[...]`` suppression, the
   stale-suppression rule ``RPR000``, and every reporter.  The index
   builds the call graph (:mod:`repro.lint.callgraph`) once, on first
   use, and every project rule reads that one graph.

The built-in project rules live in
:mod:`repro.lint.rules_concurrency` (``RPC201``–``RPC203``) and
:mod:`repro.lint.excflow` (``RPR010``).
"""

from __future__ import annotations

import ast
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

from .engine import Finding, module_relpath

__all__ = [
    "ModuleSummary", "ProjectIndex", "ProjectRule", "register_project",
    "all_project_rules", "extract_summary", "module_name_of",
    "SUMMARY_SCHEMA_VERSION", "GUARD_TOKEN",
]

#: bumped whenever the summary shape changes; part of the cache key so
#: stale cache entries from older lint versions are never trusted
SUMMARY_SCHEMA_VERSION = 4

#: pseudo-lock token for ``with SignalGuard():`` critical sections —
#: signal deferral is process-global, so one token is the right
#: granularity
GUARD_TOKEN = "guard:signal"

_LOCK_CTORS = {"Lock", "RLock", "Condition", "Semaphore",
               "BoundedSemaphore"}
_THREAD_CTORS = {"Thread", "Process", "Timer"}
_QUEUE_CTORS = {"Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
                "JoinableQueue"}
_EVENT_CTORS = {"Event", "Condition", "Barrier"}

# attribute names that identify blocking socket operations regardless
# of receiver type (conservative: these names rarely mean anything else)
_SOCKET_ATTRS = {"recv", "recvfrom", "accept", "connect", "sendall",
                 "makefile"}
# direct file-system touch points; ``atomic_write_text`` fsyncs, which
# makes it one of the slowest things you can do while holding a lock
_FILE_FUNCS = {"atomic_write_text", "fsync_path"}
# unambiguous pathlib I/O methods, safe to match on any receiver
_FILE_ATTRS = {"read_text", "read_bytes", "write_text", "write_bytes"}
# ambiguous names (str.replace, list.rename…) only count with an
# explicit os./shutil. receiver
_OS_FILE_ATTRS = {"fsync", "replace", "rename", "unlink", "copy",
                  "copytree", "rmtree", "move"}
_SUBPROCESS_FUNCS = {"run", "Popen", "check_output", "check_call",
                     "call", "system"}
# annotated containers whose subscript has a known item type: the one
# argument of a sequence, the value (second) argument of a mapping
_SEQUENCE_ANNOTATIONS = {"list", "Sequence"}
_MAPPING_ANNOTATIONS = {"dict", "Mapping"}


def module_name_of(path: str | Path) -> str:
    """Dotted module name of *path*, walking up through ``__init__.py``
    packages (``src/repro/serve/http.py`` → ``repro.serve.http``; a file
    outside any package maps to its bare stem)."""
    path = Path(path).resolve()
    parts: list[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:  # filesystem root; defensive
            break
        d = parent
    return ".".join(parts) if parts else path.stem


def _dotted(node: ast.AST) -> str:
    """Dotted name of an expression; ``super().x`` maps to ``super.x``
    and anything non-name-like collapses to the resolvable suffix."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "super":
        parts.append("super")
    return ".".join(reversed(parts))


def _has_timeout_arg(call: ast.Call) -> bool:
    """True when the call passes any positional argument or a
    ``timeout=`` keyword — used to classify joins/waits as *bounded*."""
    if call.args:
        return True
    return any(kw.arg == "timeout" for kw in call.keywords)


def _is_nonblocking_acquire(call: ast.Call) -> bool:
    """``lock.acquire(False)`` / ``acquire(blocking=False)`` never block."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and call.args[0].value is False:
        return True
    for kw in call.keywords:
        if kw.arg == "blocking" and isinstance(kw.value, ast.Constant) \
                and kw.value.value is False:
            return True
    return False


def _looks_like_lock(ident: str) -> bool:
    return "lock" in ident.lower()


class ModuleSummary:
    """Everything the project pass needs to know about one module."""

    __slots__ = ("name", "relpath", "path", "imports", "classes",
                 "functions", "module_locks", "module_types")

    def __init__(self, name: str, relpath: str, path: str):
        self.name = name
        self.relpath = relpath
        self.path = path
        #: local alias → fully qualified dotted target
        self.imports: dict[str, str] = {}
        #: class name → {"bases": [dotted], "methods": {name: qual},
        #:               "lock_attrs": [...], "attr_types": {attr: dotted}}
        self.classes: dict[str, dict[str, Any]] = {}
        #: qualname (``module:Class.method``) → function record
        self.functions: dict[str, dict[str, Any]] = {}
        #: module-level names bound to threading.Lock()/RLock()
        self.module_locks: list[str] = []
        #: module-level names bound to project-class constructors
        self.module_types: dict[str, str] = {}

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (what the lint cache persists)."""
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "name": self.name,
            "relpath": self.relpath,
            "path": self.path,
            "imports": dict(sorted(self.imports.items())),
            "classes": self.classes,
            "functions": self.functions,
            "module_locks": sorted(self.module_locks),
            "module_types": dict(sorted(self.module_types.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModuleSummary":
        """Inverse of :meth:`to_dict`; raises on schema mismatch."""
        if doc.get("schema") != SUMMARY_SCHEMA_VERSION:
            raise ValueError("summary schema mismatch")
        out = cls(doc["name"], doc["relpath"], doc["path"])
        out.imports = dict(doc["imports"])
        out.classes = dict(doc["classes"])
        out.functions = dict(doc["functions"])
        out.module_locks = list(doc["module_locks"])
        out.module_types = dict(doc["module_types"])
        return out


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST producing its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary):
        self.s = summary
        self.class_stack: list[str] = []
        self.func_stack: list[dict[str, Any]] = []
        # per-function context stacks
        self.lock_stack: list[list[tuple[str, str]]] = []  # (token, kind)
        self.try_stack: list[list[list[str]]] = []
        self.local_types_stack: list[dict[str, str]] = []
        self.local_funcs_stack: list[dict[str, str]] = []
        # annotated parameters/locals: name → class, ``name[]`` → item
        self.annotated_stack: list[dict[str, str]] = []

    # -- helpers -------------------------------------------------------

    def _class_entry(self, name: str) -> dict[str, Any]:
        return self.s.classes.setdefault(name, {
            "bases": [], "methods": {}, "lock_attrs": [],
            "attr_types": {}, "line": 0})

    def _qual(self, name: str) -> str:
        prefix = ""
        if self.func_stack:
            prefix = self.func_stack[-1]["short"] + "."
        elif self.class_stack:
            prefix = self.class_stack[-1] + "."
        return f"{self.s.name}:{prefix}{name}"

    def _held(self) -> list[str]:
        if not self.lock_stack:
            return []
        return [tok for tok, _kind in self.lock_stack[-1]]

    def _caught(self) -> list[str]:
        if not self.try_stack:
            return []
        out: list[str] = []
        for frame in self.try_stack[-1]:
            out.extend(frame)
        return sorted(set(out))

    def _lock_token(self, expr: ast.AST) -> tuple[str, str] | None:
        """(token, kind) when *expr* denotes a lock or signal guard."""
        if isinstance(expr, ast.Call):
            callee = _dotted(expr.func).split(".")[-1]
            if callee == "SignalGuard":
                return (GUARD_TOKEN, "guard")
            return None
        name = _dotted(expr)
        if not name:
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2 \
                and self.class_stack:
            cls = self.class_stack[-1]
            entry = self._class_entry(cls)
            if parts[1] in entry["lock_attrs"] or _looks_like_lock(parts[1]):
                return (f"{self.s.name}:{cls}.{parts[1]}", "lock")
            return None
        if len(parts) == 1:
            ident = parts[0]
            if ident in self.s.module_locks or _looks_like_lock(ident):
                if self.local_types_stack \
                        and ident in self.local_funcs_stack[-1]:
                    return None
                target = self.s.imports.get(ident)
                if target and "." in target:
                    # an imported lock keeps its defining module's
                    # identity, so cross-module ordering cycles connect
                    owner, _, name = target.rpartition(".")
                    return (f"{owner}:{name}", "lock")
                return (f"{self.s.name}:{ident}", "lock")
        return None

    def _record_assignment(self, target: ast.AST, value: ast.AST) -> None:
        """Track ``x = threading.Lock()`` / ``self.p = Pool(...)`` style
        bindings that give later attribute calls a static type."""
        if not isinstance(value, ast.Call):
            return
        ctor = _dotted(value.func).split(".")[-1]
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in ("self", "cls") and self.class_stack:
            entry = self._class_entry(self.class_stack[-1])
            if ctor in _LOCK_CTORS:
                if target.attr not in entry["lock_attrs"]:
                    entry["lock_attrs"].append(target.attr)
            elif ctor in _THREAD_CTORS:
                entry["attr_types"][target.attr] = "<thread>"
            elif ctor in _QUEUE_CTORS:
                entry["attr_types"][target.attr] = "<queue>"
            elif ctor in _EVENT_CTORS:
                entry["attr_types"][target.attr] = "<event>"
            elif ctor and ctor[0].isupper():
                entry["attr_types"][target.attr] = _dotted(value.func)
        elif isinstance(target, ast.Name):
            if self.func_stack:
                types = self.local_types_stack[-1]
                if ctor in _LOCK_CTORS:
                    types[target.id] = "<lock>"
                elif ctor in _THREAD_CTORS:
                    types[target.id] = "<thread>"
                elif ctor in _QUEUE_CTORS:
                    types[target.id] = "<queue>"
                elif ctor in _EVENT_CTORS:
                    types[target.id] = "<event>"
                elif ctor and ctor[0].isupper():
                    types[target.id] = _dotted(value.func)
            elif not self.class_stack:
                if ctor in _LOCK_CTORS:
                    if target.id not in self.s.module_locks:
                        self.s.module_locks.append(target.id)
                elif ctor and ctor[0].isupper():
                    self.s.module_types[target.id] = _dotted(value.func)

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            alias = a.asname or a.name.split(".")[0]
            target = a.name if a.asname else a.name.split(".")[0]
            self.s.imports[alias] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            pkg_parts = self.s.name.split(".")
            if Path(self.s.path).name == "__init__.py":
                pkg_parts.append("__init__")  # a package is its own anchor
            # relative to the containing package: one level strips the
            # module's own name, further levels strip packages
            anchor = pkg_parts[:-node.level] if len(pkg_parts) >= node.level \
                else []
            base = ".".join(anchor + ([base] if base else []))
        for a in node.names:
            if a.name == "*":
                continue
            alias = a.asname or a.name
            self.s.imports[alias] = f"{base}.{a.name}" if base else a.name
        self.generic_visit(node)

    # -- classes & functions -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.func_stack or self.class_stack:
            # nested/local classes are out of scope for the project pass
            return
        entry = self._class_entry(node.name)
        entry["line"] = node.lineno
        entry["bases"] = [_dotted(b) for b in node.bases if _dotted(b)]
        self.class_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> None:
        short = node.name
        if self.func_stack:
            short = f"{self.func_stack[-1]['short']}.{node.name}"
        elif self.class_stack:
            short = f"{self.class_stack[-1]}.{node.name}"
        qual = f"{self.s.name}:{short}"
        record: dict[str, Any] = {
            "short": short,
            "name": node.name,
            "cls": self.class_stack[-1] if self.class_stack else None,
            "line": node.lineno,
            "public": not node.name.startswith("_"),
            "calls": [], "blocking": [], "acquires": [],
            "yields": [], "raises": [],
        }
        if self.class_stack:
            self._class_entry(self.class_stack[-1])["methods"][
                node.name] = qual
        if self.func_stack:
            # let the enclosing function resolve bare calls to this
            # nested def directly
            self.local_funcs_stack[-1][node.name] = qual
        self.s.functions[qual] = record
        self.func_stack.append(record)
        self.lock_stack.append([])
        self.try_stack.append([])
        self.local_types_stack.append({})
        self.local_funcs_stack.append({})
        self.annotated_stack.append({})
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if arg.annotation is not None:
                self._annotate(arg.arg, arg.annotation)
        for stmt in node.body:
            self.visit(stmt)
        self.func_stack.pop()
        self.lock_stack.pop()
        self.try_stack.pop()
        self.local_types_stack.pop()
        self.local_funcs_stack.pop()
        self.annotated_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- statements ----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self.func_stack and isinstance(node.target, ast.Name):
            self._annotate(node.target.id, node.annotation)
        if node.value is not None:
            self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_With(self, node: ast.With | ast.AsyncWith) -> None:
        if not self.func_stack:
            self.generic_visit(node)
            return
        acquired: list[tuple[str, str]] = []
        for item in node.items:
            tok = self._lock_token(item.context_expr)
            if tok is not None:
                acquired.append(tok)
            # still scan the context expression itself (e.g. an
            # open() call inside `with open(...)`)
            self.visit(item.context_expr)
        fn = self.func_stack[-1]
        for tok, kind in acquired:
            if kind == "lock":
                fn["acquires"].append({
                    "lock": tok, "line": node.lineno,
                    "held": self._held()})
        self.lock_stack[-1].extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.lock_stack[-1][len(self.lock_stack[-1]) - len(acquired):]

    visit_AsyncWith = visit_With

    def visit_Try(self, node: ast.Try) -> None:
        if not self.func_stack:
            self.generic_visit(node)
            return
        caught: list[str] = []
        for handler in node.handlers:
            if handler.type is None:
                caught.append("*")
            elif isinstance(handler.type, ast.Tuple):
                caught.extend(_dotted(e).split(".")[-1]
                              for e in handler.type.elts)
            else:
                caught.append(_dotted(handler.type).split(".")[-1])
        caught = [("*" if c in ("Exception", "BaseException") else c)
                  for c in caught if c]
        self.try_stack[-1].append(caught)
        for stmt in node.body:
            self.visit(stmt)
        self.try_stack[-1].pop()
        # handlers / else / finally are not protected by this try
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)

    visit_TryStar = visit_Try

    def _yield(self, node: ast.Yield | ast.YieldFrom) -> None:
        if self.func_stack:
            self.func_stack[-1]["yields"].append({
                "line": node.lineno, "locks": self._held()})
        self.generic_visit(node)

    visit_Yield = _yield
    visit_YieldFrom = _yield

    def visit_Raise(self, node: ast.Raise) -> None:
        if self.func_stack and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = _dotted(target).split(".")[-1]
            if name and name[0].isupper():
                self.func_stack[-1]["raises"].append({
                    "name": name, "line": node.lineno,
                    "caught": self._caught()})
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def _type_of_base(self, parts: list[str]) -> str | None:
        """Static type of the receiver for ``base.attr(...)`` calls."""
        if len(parts) < 2:
            return None
        if parts[0] in ("self", "cls") and len(parts) == 3 \
                and self.class_stack:
            entry = self._class_entry(self.class_stack[-1])
            return entry["attr_types"].get(parts[1])
        if len(parts) == 2:
            if self.local_types_stack:
                t = self.local_types_stack[-1].get(parts[0])
                if t:
                    return t
            return self.s.module_types.get(parts[0])
        return None

    def _annotate(self, name: str, ann: ast.AST) -> None:
        """Type *name* from its annotation, ``| None`` aside: a class
        ``X`` types ``name.m()``; ``list[X]``, ``Sequence[X]`` or
        ``dict[K, X]`` types ``name[i].m()``."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr) \
                and isinstance(ann.right, ast.Constant) \
                and ann.right.value is None:
            ann = ann.left
        key = name
        if isinstance(ann, ast.Subscript):
            head = _dotted(ann.value).split(".")[-1]
            args = ann.slice.elts if isinstance(ann.slice, ast.Tuple) \
                else [ann.slice]
            if head in _SEQUENCE_ANNOTATIONS and len(args) == 1 \
                    or head in _MAPPING_ANNOTATIONS and len(args) == 2:
                key, ann = f"{name}[]", args[-1]
        dotted = _dotted(ann) if isinstance(ann, (ast.Name, ast.Attribute)) \
            else ""
        if dotted and dotted.split(".")[-1][0].isupper():
            self.annotated_stack[-1][key] = dotted

    def _annotated_receiver(self, func: ast.AST) -> str | None:
        """Annotated type of the receiver of ``x.m()`` or ``xs[i].m()``."""
        if not (self.annotated_stack and isinstance(func, ast.Attribute)):
            return None
        receiver, suffix = func.value, ""
        if isinstance(receiver, ast.Subscript):
            receiver, suffix = receiver.value, "[]"
        if not isinstance(receiver, ast.Name):
            return None
        return self.annotated_stack[-1].get(receiver.id + suffix)

    def _blocking_kind(self, node: ast.Call,
                       name: str) -> tuple[str, bool] | None:
        """(kind label, bounded?) when the call itself blocks."""
        parts = name.split(".")
        tail = parts[-1]
        base_type = self._type_of_base(parts)
        if name == "time.sleep" or (
                len(parts) == 1 and tail == "sleep"
                and self.s.imports.get("sleep", "") == "time.sleep"):
            return ("time.sleep", False)
        if parts[0] == "subprocess" or (
                len(parts) == 1
                and self.s.imports.get(tail, "").startswith("subprocess.")
                and tail in _SUBPROCESS_FUNCS):
            return (f"subprocess {tail}()", False)
        if name == "os.system":
            return ("os.system()", False)
        if parts[0] == "socket" or tail in _SOCKET_ATTRS:
            return (f"socket {tail}()", False)
        if tail == "join" and (base_type in ("<thread>",)
                               or (len(parts) >= 2
                                   and "thread" in parts[-2].lower())):
            return ("thread join()", _has_timeout_arg(node))
        if tail in ("get", "put") and base_type == "<queue>":
            return (f"queue {tail}()", _has_timeout_arg(node))
        if tail == "wait" and (base_type in ("<event>", "<lock>")
                               or len(parts) >= 2):
            return ("wait()", _has_timeout_arg(node))
        if tail == "acquire" and len(parts) >= 2:
            receiver = parts[-2]
            is_lock = (base_type == "<lock>" or _looks_like_lock(receiver)
                       or (parts[0] in ("self", "cls") and len(parts) == 3
                           and self.class_stack
                           and parts[1] in self._class_entry(
                               self.class_stack[-1])["lock_attrs"])
                       or receiver in self.s.module_locks)
            if is_lock and not _is_nonblocking_acquire(node):
                return ("lock acquire()", _has_timeout_arg(node))
            return None
        if len(parts) == 1 and tail == "open":
            return ("open()", False)
        if tail in _FILE_ATTRS and base_type is None and len(parts) >= 2:
            return (f"file {tail}()", False)
        if tail in _OS_FILE_ATTRS and len(parts) >= 2 \
                and parts[0] in ("os", "shutil"):
            return (f"{parts[0]}.{tail}()", False)
        if tail in _FILE_FUNCS:
            return (f"{tail}()", False)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self.func_stack:
            name = _dotted(node.func)
            if name:
                fn = self.func_stack[-1]
                parts = name.split(".")
                direct = None
                typed = None
                if len(parts) == 1 and self.local_funcs_stack \
                        and parts[0] in self.local_funcs_stack[-1]:
                    direct = self.local_funcs_stack[-1][parts[0]]
                else:
                    base_type = self._annotated_receiver(node.func) \
                        or self._type_of_base(parts)
                    if base_type and not base_type.startswith("<"):
                        typed = f"{base_type}.{parts[-1]}"
                kind = self._blocking_kind(node, name)
                if kind is not None:
                    label, bounded = kind
                    op = {"kind": label, "line": node.lineno,
                          "locks": self._held(), "bounded": bounded}
                    method = typed or (name if len(parts) > 1
                                       and parts[0] != "socket" else None)
                    if method and label.startswith("socket "):
                        # matched by method name alone; the project
                        # index drops it when the call is a project method
                        op["method"] = method
                    fn["blocking"].append(op)
                    if label == "lock acquire()":
                        tok = self._lock_token(node.func.value) \
                            if isinstance(node.func, ast.Attribute) else None
                        if tok is not None and tok[1] == "lock":
                            fn["acquires"].append({
                                "lock": tok[0], "line": node.lineno,
                                "held": self._held()})
                record: dict[str, Any] = {
                    "name": typed or name, "line": node.lineno,
                    "locks": self._held(), "caught": self._caught()}
                if direct:
                    record["resolved"] = direct
                fn["calls"].append(record)
        self.generic_visit(node)


def extract_summary(path: str | Path, tree: ast.AST) -> ModuleSummary:
    """Distill *tree* into the :class:`ModuleSummary` for *path*."""
    summary = ModuleSummary(module_name_of(path),
                            module_relpath(Path(path)), str(path))
    _Extractor(summary).visit(tree)
    return summary


# ----------------------------------------------------------------------
# the project index: summaries stitched into a resolvable symbol table
# ----------------------------------------------------------------------

class ProjectIndex:
    """Symbol table over a set of :class:`ModuleSummary` objects."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.modules: dict[str, ModuleSummary] = {}
        for s in summaries:
            self.modules[s.name] = s
        self.functions: dict[str, dict[str, Any]] = {}
        self.function_module: dict[str, ModuleSummary] = {}
        for s in self.modules.values():
            for qual, record in s.functions.items():
                self.functions[qual] = record
                self.function_module[qual] = s
        # `node.connect()` or `self.accept()` on a project class is that
        # class's method, not a socket operation
        for qual, record in self.functions.items():
            s = self.function_module[qual]
            record["blocking"] = [
                b for b in record["blocking"] if "method" not in b
                or self.resolve_call(s, record, {"name": b["method"]}) is None]

    @cached_property
    def call_graph(self):
        """The project's :class:`~repro.lint.callgraph.CallGraph`,
        built once and shared by every project rule."""
        from .callgraph import CallGraph

        return CallGraph(self)

    # -- name resolution ----------------------------------------------

    def _module_prefix(self, dotted: str) -> tuple[str, list[str]] | None:
        """Longest project-module prefix of *dotted* + leftover parts."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                return prefix, parts[i:]
        return None

    def resolve_name(self, modname: str, ident: str,
                     _depth: int = 0) -> tuple[str, Any] | None:
        """Resolve *ident* in *modname* to ``("func", qual)``,
        ``("class", (module, class))`` or ``("module", name)``."""
        if _depth > 8 or modname not in self.modules:
            return None
        mod = self.modules[modname]
        qual = f"{modname}:{ident}"
        if qual in mod.functions:
            return ("func", qual)
        if ident in mod.classes:
            return ("class", (modname, ident))
        sub = f"{modname}.{ident}"
        if sub in self.modules:
            return ("module", sub)
        target = mod.imports.get(ident)
        if target is None:
            return None
        if target in self.modules:
            return ("module", target)
        hit = self._module_prefix(target)
        if hit is None:
            return None
        owner, leftover = hit
        if not leftover:
            return ("module", owner)
        out = self.resolve_name(owner, leftover[0], _depth + 1)
        # a re-export chain deeper than `module.attr` is not followed
        if out is not None and len(leftover) > 1:
            return None
        return out

    def resolve_method(self, modname: str, cls: str, meth: str,
                       _seen: set | None = None) -> str | None:
        """Resolve ``Class.meth`` through the statically known bases."""
        _seen = _seen or set()
        if (modname, cls) in _seen or modname not in self.modules:
            return None
        _seen.add((modname, cls))
        entry = self.modules[modname].classes.get(cls)
        if entry is None:
            return None
        if meth in entry["methods"]:
            return entry["methods"][meth]
        for base in entry["bases"]:
            head = base.split(".")
            resolved = self.resolve_name(modname, head[0])
            if resolved is None:
                continue
            if resolved[0] == "module" and len(head) >= 2:
                resolved = self.resolve_name(resolved[1], head[1])
            if resolved is not None and resolved[0] == "class":
                bmod, bcls = resolved[1]
                hit = self.resolve_method(bmod, bcls, meth, _seen)
                if hit:
                    return hit
        return None

    def resolve_call(self, summary: ModuleSummary,
                     fn: dict[str, Any], call: dict[str, Any]) -> str | None:
        """Qualname of the project function *call* lands in, or None."""
        if "resolved" in call:
            return call["resolved"] if call["resolved"] in self.functions \
                else None
        parts = call["name"].split(".")
        head = parts[0]
        if head in ("self", "cls"):
            if len(parts) == 2 and fn.get("cls"):
                return self.resolve_method(summary.name, fn["cls"], parts[1])
            return None
        if head == "super":
            if len(parts) == 2 and fn.get("cls"):
                entry = summary.classes.get(fn["cls"])
                for base in (entry or {}).get("bases", []):
                    resolved = self.resolve_name(summary.name,
                                                 base.split(".")[0])
                    if resolved is not None and resolved[0] == "class":
                        bmod, bcls = resolved[1]
                        hit = self.resolve_method(bmod, bcls, parts[1])
                        if hit:
                            return hit
            return None
        resolved = self.resolve_name(summary.name, head)
        i = 1
        while resolved is not None and i < len(parts):
            kind, value = resolved
            if kind == "module":
                resolved = self.resolve_name(value, parts[i])
                i += 1
            elif kind == "class":
                cmod, cname = value
                return self.resolve_method(cmod, cname, parts[i]) \
                    if i == len(parts) - 1 else None
            else:
                return None
        if resolved is None:
            return None
        kind, value = resolved
        if kind == "func":
            return value if i == len(parts) else None
        if kind == "class":
            cmod, cname = value
            return self.resolve_method(cmod, cname, "__init__")
        return None

    def iter_functions(self) -> list[tuple[str, dict[str, Any],
                                           ModuleSummary]]:
        """All function records, deterministically ordered."""
        return [(qual, self.functions[qual], self.function_module[qual])
                for qual in sorted(self.functions)]

    def finding_path(self, qual: str) -> str:
        """Filesystem path of the module defining *qual*."""
        return self.function_module[qual].path


# ----------------------------------------------------------------------
# project rules
# ----------------------------------------------------------------------

class ProjectRule:
    """Base class for whole-program rules.

    Subclasses set ``rule_id`` / ``severity`` / ``description`` /
    ``rationale`` and implement :meth:`check`, returning findings;
    the engine routes them through suppression and reporting exactly
    like per-file findings.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""
    rationale: str = ""

    def check(self, index: ProjectIndex) -> list[Finding]:
        """Analyze the whole-program *index*; return findings."""
        raise NotImplementedError


_PROJECT_REGISTRY: dict[str, type[ProjectRule]] = {}


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the registry."""
    if not cls.rule_id:
        raise ValueError(f"project rule {cls.__name__} has no rule_id")
    if cls.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule id {cls.rule_id}")
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def all_project_rules() -> dict[str, type[ProjectRule]]:
    """The registered project rules, keyed by id."""
    return dict(_PROJECT_REGISTRY)
