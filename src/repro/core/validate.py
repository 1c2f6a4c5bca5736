"""Structural invariant validation for :class:`~repro.core.Thicket`.

A thicket is three linked components plus bookkeeping lists, and every
operation (ingest, filter, groupby, concat, load) must preserve the
cross-component invariants:

* every node in the performance-data and statsframe indices belongs to
  the call graph;
* the metadata index, the performance-data profile level, and
  ``tk.profile`` describe the same profile set;
* ``exc_metrics`` / ``inc_metrics`` / ``default_metric`` name existing
  performance-data columns;
* no index has duplicate entries.

:func:`validate_thicket` checks them all and returns a structured
:class:`ValidationReport` instead of raising, so callers can decide
whether an inconsistency is fatal (``load_thicket(..., verify=True)``
treats it as store corruption) or repairable (``repair=True`` fixes
the subset that can be fixed without inventing data: stale metric
lists, duplicate index entries, orphaned perf/stats rows, and a stale
profile list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ValidationIssue", "ValidationReport", "validate_thicket"]


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant."""

    code: str          # stable machine-readable id, e.g. "perf-node-unknown"
    message: str       # human-readable description with counts/examples
    repairable: bool   # whether repair=True can fix it without inventing data
    count: int = 1     # how many entries are affected

    def describe(self) -> str:
        """One-line ``[code] message (repairable?)`` rendering."""
        tag = "repairable" if self.repairable else "NOT repairable"
        return f"[{self.code}] {self.message} ({tag})"


@dataclass
class ValidationReport:
    """Outcome of one :func:`validate_thicket` run."""

    issues: list = field(default_factory=list)    # ValidationIssue
    repaired: list = field(default_factory=list)  # str descriptions

    @property
    def ok(self) -> bool:
        """True iff no invariant is violated (after any repairs)."""
        return not self.issues

    @property
    def repairable(self) -> bool:
        """True iff every remaining issue could be fixed by repair=True."""
        return all(i.repairable for i in self.issues)

    def summary(self) -> str:
        """Multi-line human-readable report of issues and repairs."""
        if self.ok and not self.repaired:
            return "validate: ok (all structural invariants hold)"
        lines = [f"validate: {len(self.issues)} issue(s), "
                 f"{len(self.repaired)} repair(s) applied"]
        for issue in self.issues:
            lines.append(f"  ! {issue.describe()}")
        for fix in self.repaired:
            lines.append(f"  ~ repaired: {fix}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready dict (used by ``repro validate --json``)."""
        return {
            "ok": self.ok,
            "issues": [
                {"code": i.code, "message": i.message,
                 "repairable": i.repairable, "count": i.count}
                for i in self.issues
            ],
            "repaired": list(self.repaired),
        }


def _examples(values, limit: int = 3) -> str:
    shown = ", ".join(repr(v) for v in list(values)[:limit])
    return shown + (", ..." if len(values) > limit else "")


def _plain(value: Any) -> Any:
    """A numpy scalar as its Python value; anything else as it is."""
    return value.item() if hasattr(value, "item") else value


def validate_thicket(tk, repair: bool = False) -> ValidationReport:
    """Check (and optionally repair) *tk*'s cross-component invariants.

    With ``repair=True`` the repairable violations are fixed in place
    (*tk* is mutated) and recorded in ``report.repaired``; the report
    then only lists what could not be fixed.
    """
    report = ValidationReport()
    graph_nodes = set(tk.graph.traverse())

    def issue(code, message, repairable, count=1):
        report.issues.append(
            ValidationIssue(code=code, message=message,
                            repairable=repairable, count=count))

    # -- performance data: nodes must live in the graph ----------------
    orphans = ~tk.dataframe.index.partition(0).row_mask(graph_nodes)
    if orphans.any():
        if repair:
            tk.dataframe = tk.dataframe[~orphans]
            report.repaired.append(
                f"dropped {orphans.sum()} performance row(s) whose "
                f"node is not in the graph")
        else:
            issue("perf-node-unknown",
                  f"{orphans.sum()} performance row(s) reference "
                  f"node(s) not present in the graph", True,
                  count=int(orphans.sum()))

    # -- performance data: no duplicate (node, profile) entries --------
    dup_perf = tk.dataframe.index.duplicated()
    if dup_perf.any():
        if repair:
            tk.dataframe = tk.dataframe[~dup_perf]
            report.repaired.append(
                f"dropped {dup_perf.sum()} duplicate (node, profile) "
                f"performance row(s), keeping the first of each")
        else:
            issue("perf-index-duplicate",
                  f"{dup_perf.sum()} duplicate (node, profile) "
                  f"entry(ies) in the performance data index", True,
                  count=int(dup_perf.sum()))

    # -- metadata: unique profile index --------------------------------
    dup_meta = tk.metadata.index.duplicated()
    if dup_meta.any():
        repeated = [_plain(p) for p in tk.metadata.index.values[dup_meta]]
        if repair:
            tk.metadata = tk.metadata[~dup_meta]
            report.repaired.append(
                f"dropped {len(repeated)} duplicate metadata row(s): "
                f"{_examples(repeated)}")
        else:
            issue("metadata-index-duplicate",
                  f"duplicate profile id(s) in the metadata index: "
                  f"{_examples(repeated)}", True, count=len(repeated))

    # -- profile sets: perf ⊆ metadata, tk.profile == metadata ---------
    meta_set = {_plain(p) for p in tk.metadata.index.values}
    perf_profiles = {_plain(p) for p in tk.dataframe.index.unique_level(1)}
    unknown_profiles = perf_profiles - meta_set
    if unknown_profiles:
        # metadata for these rows does not exist anywhere; dropping the
        # rows would silently discard measurements, so never auto-repair
        issue("perf-profile-unknown",
              f"performance rows reference profile(s) absent from the "
              f"metadata table: {_examples(sorted(unknown_profiles, key=repr))}",
              False, count=len(unknown_profiles))

    profile_list = {_plain(p) for p in tk.profile}
    if profile_list != meta_set:
        extra = profile_list - meta_set
        missing = meta_set - profile_list
        if repair:
            tk.profile = list(tk.metadata.index.values)
            report.repaired.append(
                "reset tk.profile to the metadata index "
                f"(+{len(missing)}/-{len(extra)})")
        else:
            extra_s = _examples(sorted(extra, key=repr)) or "none"
            missing_s = _examples(sorted(missing, key=repr)) or "none"
            issue("profile-list-mismatch",
                  f"tk.profile disagrees with the metadata index "
                  f"(extra: {extra_s}; missing: {missing_s})",
                  True, count=len(extra) + len(missing))

    # -- statsframe: nodes in graph, no duplicates ---------------------
    stats_orphans = [n for n in tk.statsframe.index.values
                     if n not in graph_nodes]
    stats_dups = int(tk.statsframe.index.duplicated().sum())
    if stats_orphans or stats_dups:
        if repair:
            tk.unify_statsframe_index()
            report.repaired.append(
                f"rebuilt the statsframe skeleton "
                f"({len(stats_orphans)} orphaned node(s), "
                f"{stats_dups} duplicate(s); "
                f"computed statistics were discarded)")
        else:
            if stats_orphans:
                issue("stats-node-unknown",
                      f"{len(stats_orphans)} statsframe row(s) reference "
                      f"node(s) not present in the graph", True,
                      count=len(stats_orphans))
            if stats_dups:
                issue("stats-index-duplicate",
                      f"{stats_dups} duplicate node(s) in the "
                      f"statsframe index", True, count=stats_dups)

    # -- metric bookkeeping: exc/inc ⊆ columns, default exists ---------
    columns = set(tk.dataframe.columns)
    for attr, code in (("exc_metrics", "exc-metric-missing"),
                       ("inc_metrics", "inc-metric-missing")):
        metrics = getattr(tk, attr)
        stale = [m for m in metrics if m not in columns]
        if stale:
            if repair:
                setattr(tk, attr, [m for m in metrics if m in columns])
                report.repaired.append(
                    f"removed stale {attr}: {_examples(stale)}")
            else:
                issue(code,
                      f"{attr} name(s) missing from the performance "
                      f"data columns: {_examples(stale)}", True,
                      count=len(stale))

    if (tk.default_metric is not None
            and tk.default_metric not in columns
            and tk.default_metric not in tk.statsframe.columns):
        if repair:
            old = tk.default_metric
            tk.default_metric = tk.exc_metrics[0] if tk.exc_metrics else (
                tk.inc_metrics[0] if tk.inc_metrics else None)
            report.repaired.append(
                f"reset default_metric {old!r} -> {tk.default_metric!r}")
        else:
            issue("default-metric-missing",
                  f"default_metric {tk.default_metric!r} is not a "
                  f"performance or stats column", True)

    return report
