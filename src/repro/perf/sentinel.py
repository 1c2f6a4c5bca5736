"""The regression watchdog: candidate run vs. baseline history.

:func:`check_regression` feeds a baseline ensemble and a candidate
ensemble through :func:`repro.core.regression.compare_thickets` and
applies a frozen :class:`PerfPolicy` to the node-by-node table,
producing a typed :class:`PerfVerdict`: which call-tree nodes got
slower (regressions), which got faster (improvements), and which
appeared or vanished between the two ensembles.  :func:`check_store`
is the one-call form used by ``repro perf check``: load the stored
history as the baseline, compare the candidate, return the verdict.

Detection follows ``find_regressions``'s philosophy — a node alerts
when it exceeds the relative-change threshold and the change is either
statistically significant or undecidable (single-run candidates have
NaN p-values; nightly CI still needs to alert on them) — plus an
absolute floor (``min_seconds``) so microsecond-level nodes cannot trip
the gate on scheduler noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ..obs import span as obs_span
from ..obs.dogfood import WALL_INC
from .store import PerfStore

__all__ = ["PerfPolicy", "PerfVerdict", "DEFAULT_POLICY",
           "check_regression", "check_store"]


@dataclass(frozen=True)
class PerfPolicy:
    """Frozen knobs deciding when a node change counts as a regression.

    ``metric`` is the Thicket metric column compared (inclusive wall
    time by default — the quantity users feel).  A node is flagged when
    its candidate mean exceeds the baseline mean by more than
    ``min_relative_change`` (fraction), the baseline or the candidate
    mean is at least ``min_seconds`` (ignore nodes that are sub-noise on
    both sides), each side has at least
    ``min_samples`` profiles, and the Welch's-t p-value is either below
    ``alpha`` or NaN (undecidable — single-run ensembles still alert).
    Improvements mirror the same thresholds on the other side.
    """

    metric: str = WALL_INC
    alpha: float = 0.05
    min_relative_change: float = 0.5
    min_seconds: float = 0.01
    min_samples: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.min_relative_change <= 0:
            raise ValueError("min_relative_change must be positive, got "
                             f"{self.min_relative_change}")
        if self.min_seconds < 0:
            raise ValueError(
                f"min_seconds must be non-negative, got {self.min_seconds}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be at least 1, got {self.min_samples}")

    def with_overrides(self, **kwargs: Any) -> "PerfPolicy":
        """A copy with the given fields replaced (None values ignored)."""
        return replace(self, **{k: v for k, v in kwargs.items()
                                if v is not None})

    def to_dict(self) -> dict[str, Any]:
        return {"metric": self.metric, "alpha": self.alpha,
                "min_relative_change": self.min_relative_change,
                "min_seconds": self.min_seconds,
                "min_samples": self.min_samples}


DEFAULT_POLICY = PerfPolicy()


@dataclass
class PerfVerdict:
    """Outcome of one sentinel comparison.

    ``regressions`` / ``improvements`` are per-node dicts (name, means,
    relative change, p-value, run counts) sorted worst-first /
    best-first; ``new_nodes`` / ``vanished_nodes`` are call-tree node
    names present on only one side.  ``ok`` is the CI gate: True iff no
    regressions were detected.
    """

    policy: PerfPolicy
    regressions: list[dict[str, Any]] = field(default_factory=list)
    improvements: list[dict[str, Any]] = field(default_factory=list)
    new_nodes: list[str] = field(default_factory=list)
    vanished_nodes: list[str] = field(default_factory=list)
    nodes_compared: int = 0
    baseline_runs: int = 0
    candidate_runs: int = 0

    @property
    def ok(self) -> bool:
        """True when the candidate passes (no regressions flagged)."""
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "policy": self.policy.to_dict(),
            "nodes_compared": self.nodes_compared,
            "baseline_runs": self.baseline_runs,
            "candidate_runs": self.candidate_runs,
            "regressions": [dict(r) for r in self.regressions],
            "improvements": [dict(r) for r in self.improvements],
            "new_nodes": list(self.new_nodes),
            "vanished_nodes": list(self.vanished_nodes),
        }

    def summary(self) -> str:
        """Multi-line human-readable report (worst regressions first)."""
        head = "PASS" if self.ok else "REGRESSION"
        lines = [
            f"perf sentinel: {head} — {self.nodes_compared} nodes compared, "
            f"{self.baseline_runs} baseline vs {self.candidate_runs} "
            f"candidate run(s) on {self.policy.metric!r}",
        ]
        for row in self.regressions:
            lines.append(
                f"  REGRESSED {row['node']}: "
                f"{row['baseline_mean']:.6f}s -> {row['candidate_mean']:.6f}s "
                f"({row['relative_change']:+.1%}, p={row['p_value']:.3g})")
        for row in self.improvements:
            lines.append(
                f"  improved  {row['node']}: "
                f"{row['baseline_mean']:.6f}s -> {row['candidate_mean']:.6f}s "
                f"({row['relative_change']:+.1%})")
        if self.new_nodes:
            lines.append(f"  new nodes: {', '.join(self.new_nodes)}")
        if self.vanished_nodes:
            lines.append(
                f"  vanished nodes: {', '.join(self.vanished_nodes)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"PerfVerdict(ok={self.ok}, "
                f"regressions={len(self.regressions)}, "
                f"improvements={len(self.improvements)}, "
                f"nodes={self.nodes_compared})")


def _node_names(tk, metric: str) -> set[str]:
    """Node names with at least one non-NaN value for *metric*."""
    names: set[str] = set()
    col = tk.dataframe.column(metric)
    for t, v in zip(tk.dataframe.index.values, col):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            continue
        names.add(t[0].frame.name)
    return names


def check_regression(baseline, candidate,
                     policy: PerfPolicy = DEFAULT_POLICY) -> PerfVerdict:
    """Compare two thickets under *policy* and return the verdict.

    *baseline* and *candidate* are :class:`repro.core.Thicket`
    ensembles (typically the stored history vs. a fresh run converted
    through ``obs.to_thicket``).  Comparison is by call-tree node name,
    so ensembles from different recording sessions line up.
    """
    from ..core.regression import compare_thickets

    with obs_span("perf.sentinel.check"):
        table = compare_thickets(baseline, candidate, policy.metric,
                                 alpha=policy.alpha)
        shared = set(table.index.values)
        base_names = _node_names(baseline, policy.metric)
        cand_names = _node_names(candidate, policy.metric)

        verdict = PerfVerdict(
            policy=policy,
            new_nodes=sorted(cand_names - base_names),
            vanished_nodes=sorted(base_names - cand_names),
            nodes_compared=len(shared),
            baseline_runs=len(baseline.profile),
            candidate_runs=len(candidate.profile),
        )

        columns = {col: table.column(col) for col in table.columns}
        for idx, name in enumerate(table.index.values):
            row = {col: values[idx] for col, values in columns.items()}
            b_mean = float(row["baseline_mean"])
            c_mean = float(row["candidate_mean"])
            rel = float(row["relative_change"])
            p = float(row["p_value"])
            entry = {
                "node": name,
                "baseline_mean": b_mean,
                "candidate_mean": c_mean,
                "relative_change": rel,
                "p_value": p,
                "baseline_runs": int(row["baseline_runs"]),
                "candidate_runs": int(row["candidate_runs"]),
            }
            if (entry["baseline_runs"] < policy.min_samples
                    or entry["candidate_runs"] < policy.min_samples):
                continue
            decisive = bool(row["significant"]) or math.isnan(p)
            if not decisive:
                continue
            # the floor drops nodes that are small on both sides: one
            # that grows from under it to over it is a regression
            if max(b_mean, c_mean) < policy.min_seconds:
                continue
            if rel > policy.min_relative_change:
                verdict.regressions.append(entry)
            elif rel < -policy.min_relative_change:
                verdict.improvements.append(entry)

        verdict.regressions.sort(key=lambda r: r["relative_change"],
                                 reverse=True)
        verdict.improvements.sort(key=lambda r: r["relative_change"])
        return verdict


def check_store(store: "PerfStore | str", candidate,
                policy: PerfPolicy = DEFAULT_POLICY,
                limit: int | None = None,
                exclude: Sequence[str] = ()) -> PerfVerdict:
    """Check a candidate against a store's recorded history.

    *store* is a :class:`~repro.perf.store.PerfStore` (or its root
    path).  *candidate* is anything ``obs.to_thicket`` accepts — a
    :class:`~repro.obs.Telemetry`, root spans, or a trace file path —
    or a stored run id string (``run-NNNNNN``), which is loaded from
    the store and excluded from the baseline automatically.
    """
    from ..obs import to_thicket

    if not isinstance(store, PerfStore):
        store = PerfStore(store)
    exclude = list(exclude)
    if isinstance(candidate, str) and candidate.startswith("run-"):
        roots, _meta, _metrics = store.load_run(candidate)
        exclude.append(candidate)
        candidate_tk = to_thicket(roots)
    else:
        candidate_tk = to_thicket(candidate)
    baseline_tk = store.load_history(limit=limit, exclude=exclude)
    return check_regression(baseline_tk, candidate_tk, policy)
