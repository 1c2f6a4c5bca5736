"""``repro.lint`` — AST-based static analysis for the toolkit.

A two-tier analyzer over one engine (:mod:`repro.lint.engine`):

**Tier 1 — per-file rules**, one parse + one walk per file:

* **Repo invariants** (:mod:`repro.lint.rules_repo`, ``RPR001``–
  ``RPR008`` and ``RPR011``): the hardening discipline introduced by
  earlier PRs — typed errors, atomic writes, injectable clocks,
  deterministic serialization, documented public API, retries/pools
  routed through ``repro.resilience``, static telemetry names,
  outbound HTTP routed through ``repro.client`` — enforced
  mechanically instead of by convention.
* **Query literals** (:mod:`repro.lint.rules_query`, ``RPQ101``–
  ``RPQ102``): string/object-dialect call-path queries embedded as
  literals in any linted source are compiled at lint time, so a
  malformed query fails the lint run, not the analysis run.
* **Serving boundary** (:mod:`repro.lint.rules_serve`, ``RPR009``):
  ``repro/serve/`` request handlers must map every exception to a
  typed JSON error response.

**Tier 2 — whole-program rules** (``run_lint(..., project=True)`` /
``repro lint --project``): each file's AST is distilled into a
:class:`~repro.lint.project.ModuleSummary`, the summaries are stitched
into a symbol table + conservative call graph
(:mod:`repro.lint.project`, :mod:`repro.lint.callgraph`), and
interprocedural rules run over it:

* **Concurrency** (:mod:`repro.lint.rules_concurrency`): ``RPC201``
  blocking calls reached while a lock / ``SignalGuard`` is held (the
  finding prints the hold → call → … → block chain), ``RPC202``
  lock-acquisition-order cycles (potential deadlocks), ``RPC203``
  locks held across ``yield``.
* **Exception flow** (:mod:`repro.lint.excflow`, ``RPR010``): raise
  sets propagate through the call graph; a public API function that
  can leak a non-``ReproError``, non-whitelisted exception is flagged
  with the full propagation chain.

Violations are suppressed per line with ``# repro: noqa[RULE-ID]``
(comma-separated for several rules); a suppression that matches no
finding is itself reported as ``RPR000`` so stale noqa comments
cannot accumulate.  It is the one suppression mechanism: a finding a
tree accepts is recorded next to the line it fires on.

Warm runs are incremental: with a cache directory
(:mod:`repro.lint.cache`, CLI default ``.repro-lint-cache/``)
per-file findings and module summaries are persisted keyed by content
sha256 + ruleset signature, so an unchanged tree re-parses nothing —
including the whole-program pass, which rebuilds its call graph from
cached summaries.  Corrupt cache entries degrade to a re-parse.

CLI: ``repro lint PATH... [--json] [--sarif PATH] [--select IDS]
[--ignore IDS] [--project/--no-project] [--no-cache] [--cache-dir D]``,
exit code 5 when any unsuppressed finding remains.  The project pass
is on by default when linting a directory.

Runtime query checking — validating a *parsed* query against a
concrete thicket before execution — lives in
:func:`repro.query.validate_query` and runs by default from
:meth:`Thicket.query`.
"""

from . import excflow, rules_concurrency  # noqa: F401
from . import rules_query, rules_repo, rules_serve  # noqa: F401
# (imported for their @register / @register_project side effects)
from .cache import DEFAULT_CACHE_DIR, LintCache, ruleset_signature
from .callgraph import CallGraph, find_lock_cycles
from .engine import (
    FileContext,
    Finding,
    LintResult,
    Rule,
    all_rules,
    lint_file,
    register,
    run_lint,
)
from .excflow import EXCFLOW_RULE_IDS, propagate_raises
from .project import (
    ModuleSummary,
    ProjectIndex,
    ProjectRule,
    all_project_rules,
    extract_summary,
    register_project,
)
from .reporters import format_json, format_sarif, format_text
from .rules_concurrency import CONCURRENCY_RULE_IDS
from .rules_query import QUERY_RULE_IDS
from .rules_repo import REPO_RULE_IDS
from .rules_serve import SERVE_RULE_IDS

__all__ = [
    "Finding", "Rule", "FileContext", "LintResult",
    "run_lint", "lint_file", "register", "all_rules",
    "ProjectRule", "ProjectIndex", "ModuleSummary", "CallGraph",
    "register_project", "all_project_rules", "extract_summary",
    "propagate_raises", "find_lock_cycles",
    "LintCache", "DEFAULT_CACHE_DIR", "ruleset_signature",
    "format_text", "format_json", "format_sarif",
    "REPO_RULE_IDS", "QUERY_RULE_IDS", "SERVE_RULE_IDS",
    "CONCURRENCY_RULE_IDS", "EXCFLOW_RULE_IDS",
]
