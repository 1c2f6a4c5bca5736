"""The ``repro.lint`` rule engine: AST walking, findings, suppression.

The engine is rule-agnostic: a rule is a class with a ``rule_id``, a
``severity``, and ``visit_<NodeType>`` methods; the engine parses each
file once with :func:`ast.parse`, walks the tree once, and dispatches
every node to the rules that registered a visitor for its type.  Rules
never re-walk the tree themselves (except within the subtree they were
handed), so a lint run is a single pass per file regardless of how
many rules are active.

Suppression uses dedicated comments so it cannot collide with other
tools' ``noqa``::

    path.write_text(text)  # repro: noqa[RPR003] fault injector

A suppression that never fires is itself a finding (``RPR000``): stale
suppressions are how invariants rot silently, so they fail the build
exactly like the violation they used to hide.  A file that does not
parse yields a single ``RPR999`` finding rather than a crash.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..obs import counter as obs_counter
from ..obs import span as obs_span

__all__ = ["Finding", "Rule", "FileContext", "LintResult", "run_lint",
           "lint_file", "register", "all_rules", "module_matches",
           "SEVERITIES"]

SEVERITIES = ("error", "warning")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]")

RULE_UNUSED_SUPPRESSION = "RPR000"
RULE_SYNTAX_ERROR = "RPR999"


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule_id", "path", "line", "col", "severity", "message")

    def __init__(self, rule_id: str, path: str, line: int, col: int,
                 severity: str, message: str):
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.col = col
        self.severity = severity
        self.message = message

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict[str, Any]:
        return {"rule": self.rule_id, "path": self.path, "line": self.line,
                "col": self.col, "severity": self.severity,
                "message": self.message}

    def __repr__(self) -> str:
        return (f"Finding({self.rule_id} {self.path}:{self.line}:{self.col} "
                f"{self.message!r})")


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` / ``severity`` / ``description`` /
    ``rationale`` and implement ``visit_<NodeType>(node, ctx)`` methods
    (plus optional ``begin_file`` / ``end_file`` hooks).  A fresh
    instance is created per file, so instance attributes are safe
    per-file state.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""
    rationale: str = ""

    def begin_file(self, ctx: "FileContext") -> None:
        """Hook called before the walk of each file."""

    def end_file(self, ctx: "FileContext") -> None:
        """Hook called after the walk of each file."""


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """The registered rules, keyed by id (rule modules must be imported
    first; ``repro.lint`` imports both built-in families)."""
    return dict(_REGISTRY)


def module_relpath(path: Path) -> str:
    """Path of *path* relative to its enclosing ``repro`` package.

    Module-scoped rule whitelists (``ioutil.py``, ``obs/core.py``, …)
    match against this. Files outside any ``repro`` directory map to
    their bare filename.
    """
    parts = Path(path).resolve().parts
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[i + 1:])
        if rel:
            return rel
    return Path(path).name


def module_matches(module: str, patterns: Iterable[str]) -> bool:
    """True when *module* (a :func:`module_relpath`) is one of
    *patterns* (``a/b.py`` exact file, ``pkg/`` any file under that
    package)."""
    for pat in patterns:
        if pat.endswith("/"):
            if module.startswith(pat):
                return True
        elif module == pat or module.endswith("/" + pat):
            return True
    return False


class FileContext:
    """Everything a rule may need about the file being linted."""

    __slots__ = ("path", "module", "text", "lines", "tree", "findings")

    def __init__(self, path: Path, text: str, tree: ast.AST):
        self.path = Path(path)
        self.module = module_relpath(self.path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.findings: list[Finding] = []

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def report(self, rule: Rule, node: ast.AST | None, message: str,
               line: int | None = None, col: int | None = None) -> None:
        self.findings.append(Finding(
            rule.rule_id, str(self.path),
            line if line is not None else getattr(node, "lineno", 1),
            col if col is not None else getattr(node, "col_offset", 0),
            rule.severity, message))


def _parse_noqa(text: str) -> dict[int, set[str]]:
    """Map line number → rule ids suppressed on that line.

    Only real ``#`` comment tokens count — a noqa spelled inside a
    string or docstring (e.g. documentation showing the syntax) is not
    a suppression.
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m:
                out[tok.start[0]] = {part.strip()
                                     for part in m.group(1).split(",")}
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse passed
        pass
    return out


def _build_dispatch(rules: Sequence[Rule]) -> dict[str, list]:
    """node-type name → [(rule, bound visitor), ...]."""
    dispatch: dict[str, list] = {}
    for rule in rules:
        for name in dir(rule):
            if name.startswith("visit_"):
                dispatch.setdefault(name[len("visit_"):], []).append(
                    (rule, getattr(rule, name)))
    return dispatch


def _analyze_file(path: Path, text: str,
                  rule_classes: Sequence[type[Rule]],
                  ) -> tuple[list[Finding], dict[int, set[str]],
                             ast.AST | None]:
    """Parse *text* (the contents of *path*) and run the per-file rules.

    Returns ``(raw findings, noqa map, tree)`` — *raw* meaning
    pre-suppression, so the caller can merge project-pass findings
    before deciding which suppressions were actually used.  An
    unparseable file yields a single ``RPR999`` finding and a None
    tree.
    """
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return ([Finding(RULE_SYNTAX_ERROR, str(path), exc.lineno or 1,
                         (exc.offset or 1) - 1, "error",
                         f"syntax error: {exc.msg}")], {}, None)

    rules = [cls() for cls in rule_classes]
    ctx = FileContext(path, text, tree)
    dispatch = _build_dispatch(rules)

    for rule in rules:
        rule.begin_file(ctx)
    for node in ast.walk(tree):
        for _rule, visitor in dispatch.get(type(node).__name__, ()):
            visitor(node, ctx)
    for rule in rules:
        rule.end_file(ctx)

    return ctx.findings, _parse_noqa(text), tree


def _apply_suppressions(findings: Iterable[Finding],
                        noqa: dict[int, set[str]],
                        active_ids: set[str],
                        path: str) -> list[Finding]:
    """Drop findings silenced by ``# repro: noqa[...]`` comments and
    report stale suppressions (``RPR000``) for the rest."""
    used: dict[int, set[str]] = {}
    kept: list[Finding] = []
    for f in findings:
        ids = noqa.get(f.line)
        if ids and f.rule_id in ids:
            used.setdefault(f.line, set()).add(f.rule_id)
        else:
            kept.append(f)
    unused_rule = _UnusedSuppression()
    for line, ids in sorted(noqa.items()):
        for rule_id in sorted(ids - used.get(line, set())):
            # only complain about rules that actually ran this pass —
            # a suppression for a deselected rule is not stale
            if rule_id in active_ids:
                kept.append(Finding(
                    RULE_UNUSED_SUPPRESSION, path, line, 0,
                    unused_rule.severity,
                    f"unused suppression: {rule_id} reports nothing on "
                    f"this line; remove the noqa"))
    kept.sort(key=lambda f: f.sort_key)
    return kept


def lint_file(path: str | Path,
              rule_classes: Sequence[type[Rule]]) -> list[Finding]:
    """Lint one file with the given registered rules; returns
    post-suppression findings (including ``RPR000`` for suppressions
    that matched nothing)."""
    return run_lint([path],
                    select=[cls.rule_id for cls in rule_classes]).findings


class _UnusedSuppression(Rule):
    rule_id = RULE_UNUSED_SUPPRESSION
    severity = "warning"
    description = ("a # repro: noqa[...] comment suppresses a rule that "
                   "reports nothing on that line")
    rationale = ("stale suppressions hide future violations; they must be "
                 "removed as soon as the underlying finding is fixed")


class LintResult:
    """Outcome of one lint run."""

    def __init__(self, findings: list[Finding], n_files: int,
                 rules: Sequence[str], project: bool = False,
                 cache_hits: int = 0, cache_misses: int = 0):
        self.findings = findings
        self.n_files = n_files
        self.rules = list(rules)
        self.project = project
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule_id] = out.get(f.rule_id, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "files": self.n_files,
            "rules": list(self.rules),
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts_by_rule(),
            "ok": self.ok,
            "project": self.project,
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses},
        }


def _discover(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts))
        else:
            files.append(p)
    seen: set[Path] = set()
    unique = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def _select_rules(select: Iterable[str] | None,
                  ignore: Iterable[str] | None,
                  ) -> tuple[list[type[Rule]], list]:
    """Resolve ``select``/``ignore`` against both registries; returns
    ``(per-file rule classes, project rule classes)``."""
    from .project import all_project_rules

    registry = all_rules()
    project_registry = all_project_rules()
    known = set(registry) | set(project_registry)
    chosen = set(known)
    if select:
        wanted = set(select)
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        chosen = wanted
    if ignore:
        unknown = set(ignore) - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        chosen -= set(ignore)
    return ([registry[rid] for rid in sorted(chosen & set(registry))],
            [project_registry[rid]
             for rid in sorted(chosen & set(project_registry))])


def run_lint(paths: Sequence[str | Path],
             select: Iterable[str] | None = None,
             ignore: Iterable[str] | None = None,
             project: bool = False,
             cache_dir: str | Path | None = None) -> LintResult:
    """Lint *paths* (files and/or directories) with the registered rules.

    ``select`` limits the run to the given rule ids; ``ignore`` drops
    rules from whatever was selected.  With ``project=True`` the
    whole-program pass runs as well: module summaries are stitched into
    a symbol table + call graph (:mod:`repro.lint.project`) and the
    interprocedural rules (``RPC2xx``, ``RPR010``) report through the
    same suppression machinery as per-file rules.

    ``cache_dir`` enables the incremental cache (per-file findings and
    summaries keyed by content sha256 + ruleset signature; corrupt
    entries fall back to a re-parse).

    The run itself is traced: an ``obs`` span (``lint.run``) plus
    ``lint.files`` / ``lint.findings`` / ``lint.cache.*`` counters, so
    lint time shows up in ``repro obs`` like any other pipeline stage.
    """
    # ensure the built-in rule families are registered even when the
    # caller imported repro.lint.engine directly
    from . import excflow, rules_concurrency  # noqa: F401
    from . import rules_query, rules_repo, rules_serve  # noqa: F401
    from .project import ModuleSummary, ProjectIndex, extract_summary

    file_rules, project_rules = _select_rules(select, ignore)
    if not project:
        project_rules = []
    files = _discover(paths)

    cache = None
    if cache_dir is not None:
        from .cache import LintCache, ruleset_signature

        cache = LintCache(cache_dir, ruleset_signature(
            [cls.rule_id for cls in file_rules]
            + [cls.rule_id for cls in project_rules]))

    active_ids = {cls.rule_id for cls in file_rules} \
        | {cls.rule_id for cls in project_rules}
    findings: list[Finding] = []
    with obs_span("lint.run", files=len(files),
                  rules=len(file_rules) + len(project_rules)) as s:
        per_file: dict[str, tuple[list[Finding], dict[int, set[str]]]] = {}
        summaries: list[ModuleSummary] = []
        for path in files:
            path = Path(path)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                per_file[str(path)] = ([Finding(
                    RULE_SYNTAX_ERROR, str(path), 1, 0, "error",
                    f"cannot read file: {exc}")], {})
                continue
            entry = cache.load(path, text) if cache else None
            if entry is not None:
                raw = [Finding(d["rule"], d["path"], d["line"], d["col"],
                               d["severity"], d["message"])
                       for d in entry["findings"]]
                noqa = entry["noqa"]
                if entry["summary"] is not None:
                    summaries.append(
                        ModuleSummary.from_dict(entry["summary"]))
            else:
                raw, noqa, tree = _analyze_file(path, text, file_rules)
                summary = extract_summary(path, tree) \
                    if tree is not None else None
                if summary is not None:
                    summaries.append(summary)
                if cache:
                    cache.store(path, text,
                                [f.to_dict() for f in raw], noqa,
                                summary.to_dict() if summary else None)
            per_file[str(path)] = (raw, noqa)

        if project_rules:
            with obs_span("lint.project", modules=len(summaries)):
                index = ProjectIndex(summaries)
                for cls in project_rules:
                    for f in cls().check(index):
                        if f.path in per_file:
                            per_file[f.path][0].append(f)

        for path_str, (raw, noqa) in per_file.items():
            findings.extend(_apply_suppressions(raw, noqa, active_ids,
                                                path_str))
        findings.sort(key=lambda f: f.sort_key)

        s.set("findings", len(findings))
        obs_counter("lint.files", len(files))
        obs_counter("lint.findings", len(findings))
        if cache:
            obs_counter("lint.cache.hits", cache.hits)
            obs_counter("lint.cache.misses", cache.misses)
    return LintResult(
        findings, len(files),
        [cls.rule_id for cls in file_rules]
        + [cls.rule_id for cls in project_rules],
        project=bool(project_rules),
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0)
