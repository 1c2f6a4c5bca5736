"""Family A: rules enforcing this repository's hardening invariants.

PRs 1–3 established discipline that, until now, existed only by
convention: failures surface as the typed :class:`~repro.errors`
hierarchy, durable writes go through the :mod:`repro.ioutil` atomic
primitives, wall-clock reads stay behind injectable clock seams, and
serialization iterates deterministically.  Each rule here turns one of
those conventions into a machine-checked invariant; ``scripts/check.sh``
and CI run them over ``src/repro`` as a hard gate.

======  ==============================================================
RPR001  no bare/broad ``except`` without re-raise or justification
RPR002  raises must be typed ``ReproError``\\ s or per-module builtins
RPR003  durable writes must route through ``ioutil.atomic_write_text``
RPR004  no wall-clock reads outside the clock-service seams
RPR005  deterministic serialization (sorted keys, no unsorted sets)
RPR006  public API functions must carry docstrings
RPR007  retries and pools route through ``repro.resilience``
RPR008  telemetry names are static lowercase dotted string literals
RPR011  outbound HTTP/socket calls route through ``repro.client``
======  ==============================================================
"""

from __future__ import annotations

import ast
import re

from .engine import FileContext, Rule, module_matches, register

__all__ = ["REPO_RULE_IDS"]


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``a.b.c`` → "a.b.c")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


_BROAD = {"Exception", "BaseException"}


@register
class BroadExceptRule(Rule):
    rule_id = "RPR001"
    severity = "error"
    description = ("bare or broad except (Exception/BaseException) without "
                   "a re-raise or an explicit justification comment")
    rationale = ("a blanket handler swallows typed ReproErrors and "
                 "programming bugs alike; catch what you expect, re-raise, "
                 "or justify the breadth on the except line")

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: FileContext) -> None:
        if not self._is_broad(node.type):
            return
        # a handler that re-raises (bare `raise` anywhere in its body)
        # is cleanup, not swallowing
        for sub in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return
        # `# pragma` on the except line is accepted as justification
        # (matching the pre-existing convention in this repo)
        if "pragma" in ctx.line_text(node.lineno):
            return
        caught = _dotted(node.type) if node.type is not None else "everything"
        ctx.report(self, node,
                   f"broad except catching {caught} without re-raise or "
                   f"justification; catch specific exceptions or add a "
                   f"'# pragma: ...' justification")

    @staticmethod
    def _is_broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(BroadExceptRule._is_broad(e) for e in type_node.elts)
        return _dotted(type_node).split(".")[-1] in _BROAD


def _typed_error_names() -> set[str]:
    """Names of the repo's typed exception hierarchy, kept in sync with
    :mod:`repro.errors` by introspection rather than a literal copy."""
    from .. import errors

    names = set(errors.__all__)
    names.update({"QuerySyntaxError"})  # typed, but lives in repro.query
    return names


@register
class TypedRaiseRule(Rule):
    rule_id = "RPR002"
    severity = "error"
    description = ("raised exceptions must be typed ReproError subclasses "
                   "or builtins whitelisted for the module")
    rationale = ("a raw KeyError deep in a reader names neither the file "
                 "nor the stage that failed; the typed hierarchy carries "
                 "both (PR 1)")

    # builtins every module may raise: the substrate layers (frame,
    # graph, learn, …) are numpy/pandas-style libraries where these are
    # the expected contract
    GLOBAL_BUILTINS = {"ValueError", "TypeError", "KeyError", "IndexError",
                       "NotImplementedError", "AssertionError",
                       "StopIteration"}
    # per-module additions, each justified where it is granted
    MODULE_BUILTINS = {
        "cli.py": {"SystemExit"},        # argparse-style CLI exits
        "caliper/": {"RuntimeError"},    # begin/end protocol misuse
        "learn/": {"RuntimeError"},      # sklearn "not fitted" idiom
        "workloads/": {"FileNotFoundError"},  # fault injectors address files
        # re-raising deferred SIGINT/SIGTERM is these types by definition
        "resilience/signals.py": {"KeyboardInterrupt", "SystemExit"},
    }
    # modules where even GLOBAL_BUILTINS are banned: every failure on
    # these paths must carry source + stage attribution
    STRICT_MODULES = ("readers/", "ingest/", "core/io.py")

    def begin_file(self, ctx: FileContext) -> None:
        self.typed = _typed_error_names()

    def visit_Raise(self, node: ast.Raise, ctx: FileContext) -> None:
        if node.exc is None:  # bare re-raise
            return
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        name = _dotted(target).split(".")[-1]
        if not name or not name[0].isupper():
            return  # re-raising a variable; type unknowable statically
        if name in self.typed:
            return
        if module_matches(ctx.module, self.STRICT_MODULES):
            ctx.report(self, node,
                       f"raise {name} in strict module {ctx.module}: "
                       f"ingestion/reader/store paths must raise typed "
                       f"ReproError subclasses with source+stage")
            return
        allowed = set(self.GLOBAL_BUILTINS)
        for pattern, extra in self.MODULE_BUILTINS.items():
            if module_matches(ctx.module, (pattern,)):
                allowed |= extra
        if name not in allowed:
            ctx.report(self, node,
                       f"raise {name} is neither a typed ReproError nor a "
                       f"builtin whitelisted for {ctx.module}")


_WRITE_MODES = set("wax+")


@register
class AtomicWriteRule(Rule):
    rule_id = "RPR003"
    severity = "error"
    description = ("file writes outside ioutil.py/checkpoint.py must route "
                   "through ioutil.atomic_write_text")
    rationale = ("a crash mid-write leaves a torn file; the atomic "
                 "primitives guarantee old-or-new, never hybrid (PR 3)")

    ALLOWED_MODULES = ("ioutil.py", "ingest/checkpoint.py")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"):
            ctx.report(self, node,
                       f"direct {func.attr}() write; route durable writes "
                       f"through ioutil.atomic_write_text")
            return
        if isinstance(func, ast.Name) and func.id == "open":
            mode_pos = 1  # builtin open(path, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode_pos = 0  # Path.open(mode) / os.fdopen(fd, mode)
        else:
            return
        if self._write_mode(node, mode_pos):
            ctx.report(self, node,
                       "open() for writing; route durable writes through "
                       "ioutil.atomic_write_text")

    @staticmethod
    def _write_mode(node: ast.Call, mode_pos: int) -> bool:
        mode = None
        if (len(node.args) > mode_pos
                and isinstance(node.args[mode_pos], ast.Constant)):
            mode = node.args[mode_pos].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        # only strings that actually look like open() modes, so e.g.
        # archive.open("data") is not mistaken for mode="data"
        return (isinstance(mode, str) and 0 < len(mode) <= 3
                and set(mode) <= set("rwxab+tU")
                and bool(set(mode) & _WRITE_MODES))


@register
class WallClockRule(Rule):
    rule_id = "RPR004"
    severity = "error"
    description = ("no time.time()/datetime.now() outside the clock "
                   "service seams (TimerService, obs.core)")
    rationale = ("direct wall-clock reads make runs irreproducible and "
                 "untestable; clocks are injected so tests and replay can "
                 "substitute them (PR 2)")

    ALLOWED_MODULES = ("caliper/services.py", "obs/core.py")
    _CLOCK_OWNERS = {"datetime", "date"}
    _CLOCK_ATTRS = {"now", "utcnow", "today"}

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        dotted = _dotted(node.func).split(".")
        if len(dotted) < 2:
            return
        tail, owner = dotted[-1], dotted[-2]
        if (tail, owner) == ("time", "time"):
            ctx.report(self, node,
                       "time.time() outside TimerService/obs.core; inject "
                       "a clock instead")
        elif tail in self._CLOCK_ATTRS and owner in self._CLOCK_OWNERS:
            ctx.report(self, node,
                       f"{owner}.{tail}() outside TimerService/obs.core; "
                       f"inject a clock instead")


@register
class DeterminismRule(Rule):
    rule_id = "RPR005"
    severity = "error"
    description = ("serialization and checksum inputs must iterate "
                   "deterministically: json.dumps needs sort_keys, and "
                   "sets/dict.keys() feeding hashes need sorted()")
    rationale = ("content checksums and byte-identical save→load→save "
                 "round-trips (PR 3) break the moment key order depends "
                 "on insertion or hash order")

    _HASH_FUNCS = {"sha256_of", "crc32_of", "canonical_json"}
    _HASH_ATTRS = {"sha256", "sha1", "md5", "crc32", "blake2b"}

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        is_dumps = isinstance(func, ast.Attribute) and func.attr == "dumps"
        if is_dumps:
            if not any(kw.arg == "sort_keys" for kw in node.keywords):
                ctx.report(self, node,
                           "json.dumps without sort_keys: serialized key "
                           "order must not depend on dict insertion order")
        is_hash = (isinstance(func, ast.Name)
                   and func.id in self._HASH_FUNCS) or (
            isinstance(func, ast.Attribute)
            and func.attr in self._HASH_ATTRS)
        if is_dumps or is_hash:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                offender = _unsorted_iteration(arg)
                if offender:
                    ctx.report(self, node,
                               f"{offender} feeds "
                               f"{'json.dumps' if is_dumps else 'a checksum'}"
                               f" without sorted(): iteration order is "
                               f"non-deterministic")
                    break


def _unsorted_iteration(node: ast.AST) -> str | None:
    """Name the first unsorted set/keys() construct in *node*, skipping
    subtrees already wrapped in ``sorted(...)``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            return None
        if isinstance(node.func, ast.Name) and node.func.id == "set":
            return "set(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys()"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    for child in ast.iter_child_nodes(node):
        found = _unsorted_iteration(child)
        if found:
            return found
    return None


@register
class DocstringRule(Rule):
    rule_id = "RPR006"
    severity = "warning"
    description = ("public functions, classes, and methods in modules "
                   "re-exported by repro/__init__.py must have docstrings")
    rationale = ("the exported surface (core, query, ingest, errors) is "
                 "the paper-facing API; undocumented entry points are "
                 "unusable from a notebook")

    # the packages whose names repro/__init__.py re-exports
    PUBLIC_MODULES = ("core/", "query/", "ingest/", "errors.py")

    def visit_Module(self, node: ast.Module, ctx: FileContext) -> None:
        if not module_matches(ctx.module, self.PUBLIC_MODULES):
            return
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check(stmt, "function", ctx)
            elif isinstance(stmt, ast.ClassDef):
                if not stmt.name.startswith("_"):
                    self._check(stmt, "class", ctx)
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            self._check(sub, f"method {stmt.name}.", ctx)

    def _check(self, node, kind: str, ctx: FileContext) -> None:
        name = node.name
        if name.startswith("_"):  # private (and dunder) names exempt
            return
        if ast.get_docstring(node) is None:
            label = f"{kind}{name}" if kind.endswith(".") else \
                f"{kind} {name}"
            ctx.report(self, node,
                       f"public {label} in exported module {ctx.module} "
                       f"has no docstring")


@register
class ResilienceRoutingRule(Rule):
    rule_id = "RPR007"
    severity = "error"
    description = ("retry loops sleeping via time.sleep, or via any "
                   "*sleep callable inside an except handler, and bare "
                   "multiprocessing/concurrent.futures pools outside "
                   "repro/resilience/")
    rationale = ("an open-coded sleep-retry loop has no deadline, no "
                 "jitter, and no circuit breaker, and a bare pool cannot "
                 "kill a hung worker; bulk work routes through "
                 "resilience.SupervisedExecutor / ResiliencePolicy (PR 5)")

    ALLOWED_MODULES = ("resilience/",)
    # an injected sleep seam still hides a hand-rolled retry loop; only
    # the executor's and the HTTP client's own loops may sleep this way
    SEAM_ALLOWED_MODULES = ("resilience/", "client/")
    _POOL_CLASSES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
                     "Process"}
    _POOL_MODULES = {"multiprocessing", "concurrent.futures",
                     "multiprocessing.pool", "multiprocessing.dummy"}

    def begin_file(self, ctx: FileContext) -> None:
        self.sleep_aliases: set[str] = set()
        self.pool_names: set[str] = set()
        self.module_aliases: set[str] = set()
        self.reported: set[int] = set()
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    self.sleep_aliases |= {a.asname or a.name
                                           for a in node.names
                                           if a.name == "sleep"}
                elif node.module in self._POOL_MODULES:
                    self.pool_names |= {a.asname or a.name
                                        for a in node.names
                                        if a.name in self._POOL_CLASSES}
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name in self._POOL_MODULES:
                        self.module_aliases.add(
                            (a.asname or a.name).split(".")[0])

    def _is_sleep(self, node: ast.Call) -> bool:
        dotted = _dotted(node.func)
        return dotted == "time.sleep" or (
            isinstance(node.func, ast.Name)
            and node.func.id in self.sleep_aliases)

    def _loop_check(self, node, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and self._is_sleep(sub) \
                    and id(sub) not in self.reported:
                self.reported.add(id(sub))
                ctx.report(self, sub,
                           "time.sleep inside a loop: an open-coded "
                           "retry/poll loop; use resilience."
                           "ResiliencePolicy backoff or an injected sleep "
                           "seam")
        if module_matches(ctx.module, self.SEAM_ALLOWED_MODULES):
            return
        for handler in ast.walk(node):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            for sub in ast.walk(handler):
                if isinstance(sub, ast.Call) \
                        and _dotted(sub.func).endswith("sleep") \
                        and id(sub) not in self.reported:
                    self.reported.add(id(sub))
                    ctx.report(self, sub,
                               "sleep inside an except handler in a loop: "
                               "a hand-rolled retry loop; use resilience."
                               "call_with_retries")

    visit_While = _loop_check
    visit_For = _loop_check

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.pool_names:
            name = func.id
        else:
            dotted = _dotted(func).split(".")
            if len(dotted) < 2 or dotted[-1] not in self._POOL_CLASSES \
                    or dotted[0] not in self.module_aliases:
                return
            name = dotted[-1]
        ctx.report(self, node,
                   f"bare {name} pool outside repro/resilience/; route "
                   f"bulk work through resilience.SupervisedExecutor")


_OBS_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


@register
class TelemetryNameRule(Rule):
    rule_id = "RPR008"
    severity = "error"
    description = ("span()/counter()/gauge()/observe() names must be "
                   "static lowercase dotted string literals")
    rationale = ("the perf sentinel matches call-tree nodes by name "
                 "across runs and machines; a computed or mixed-case "
                 "telemetry name explodes metric cardinality and makes "
                 "baseline comparison silently miss the node")

    # the module-level helpers (and their conventional import aliases)
    _BARE_FUNCS = {"span", "counter", "gauge", "observe",
                   "obs_span", "obs_counter", "obs_gauge", "obs_observe"}
    # attribute form: obs.span(...) / obs.counter(...)
    _ATTR_OWNERS = {"obs"}
    _ATTR_FUNCS = {"span", "counter", "gauge", "observe"}
    # the definitions themselves forward `name` variables by design
    ALLOWED_MODULES = ("obs/core.py", "obs/metrics.py")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._BARE_FUNCS:
            label = func.id
        elif isinstance(func, ast.Attribute) \
                and func.attr in self._ATTR_FUNCS:
            dotted = _dotted(func).split(".")
            if len(dotted) != 2 or dotted[0] not in self._ATTR_OWNERS:
                return
            label = ".".join(dotted)
        else:
            return
        if not node.args:
            return  # e.g. an unrelated zero-arg helper named `span`
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            ctx.report(self, node,
                       f"{label}() name must be a static string literal "
                       f"(computed names explode metric cardinality and "
                       f"break cross-run baseline matching)")
        elif not _OBS_NAME_RE.match(first.value):
            ctx.report(self, node,
                       f"{label}() name {first.value!r} is not lowercase "
                       f"dotted (expected e.g. 'ingest.profile'); "
                       f"inconsistent names fragment the metric namespace")


@register
class OutboundHttpRule(Rule):
    rule_id = "RPR011"
    severity = "error"
    description = ("outbound HTTP/socket connections "
                   "(http.client.HTTPConnection, urllib urlopen, "
                   "socket.create_connection) outside repro/client/")
    rationale = ("a raw HTTPConnection has no deadline propagation, no "
                 "retry budget, no idempotency key, and no circuit "
                 "breaker; every outbound call routes through "
                 "client.ReproClient so the resilience contract cannot "
                 "be bypassed one call site at a time (PR 10)")

    # the client package is the sanctioned transport; http.server-based
    # inbound code (serve/, workloads/flaky_server.py) never matches
    # because these patterns are all outbound constructors
    ALLOWED_MODULES = ("client/",)
    _CONN_CLASSES = {"HTTPConnection", "HTTPSConnection"}
    _URLOPEN_OWNERS = {"urllib", "request", "urllib.request"}

    def begin_file(self, ctx: FileContext) -> None:
        self.conn_aliases: set[str] = set()
        self.urlopen_aliases: set[str] = set()
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "http.client":
                    self.conn_aliases |= {a.asname or a.name
                                          for a in node.names
                                          if a.name in self._CONN_CLASSES}
                elif node.module == "urllib.request":
                    self.urlopen_aliases |= {a.asname or a.name
                                             for a in node.names
                                             if a.name == "urlopen"}

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if module_matches(ctx.module, self.ALLOWED_MODULES):
            return
        func = node.func
        dotted = _dotted(func).split(".")
        tail = dotted[-1]
        if isinstance(func, ast.Name):
            if func.id in self.conn_aliases:
                self._flag(node, func.id, ctx)
            elif func.id in self.urlopen_aliases:
                self._flag(node, "urlopen", ctx)
            return
        if len(dotted) < 2:
            return
        owner = ".".join(dotted[:-1])
        if tail in self._CONN_CLASSES and owner.endswith("client"):
            self._flag(node, f"{owner}.{tail}", ctx)
        elif tail == "urlopen" and owner in self._URLOPEN_OWNERS:
            self._flag(node, f"{owner}.{tail}", ctx)
        elif tail == "create_connection" and dotted[-2] == "socket":
            self._flag(node, "socket.create_connection", ctx)

    def _flag(self, node: ast.Call, label: str, ctx: FileContext) -> None:
        ctx.report(self, node,
                   f"outbound connection via {label} outside "
                   f"repro/client/; use client.ReproClient so deadlines, "
                   f"retry budgets, and idempotency keys apply")


REPO_RULE_IDS = ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                 "RPR006", "RPR007", "RPR008", "RPR011"]
