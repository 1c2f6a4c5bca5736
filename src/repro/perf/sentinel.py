"""The regression watchdog: candidate run vs. baseline history.

:func:`check_regression` feeds a baseline ensemble and a candidate
ensemble through :func:`repro.core.regression.compare_thickets` and
applies a frozen :class:`PerfPolicy` to the node-by-node table,
producing a typed :class:`PerfVerdict`: which call-tree nodes got
slower (regressions), which got faster (improvements), and which
appeared or vanished between the two ensembles.  :func:`check_store`
is the one-call form used by ``repro perf check``: load the stored
history as the baseline, compare the candidate, return the verdict.

Detection is :func:`repro.core.regression.judge`, the rule
``find_regressions`` applies too — a node alerts when it exceeds the
relative-change threshold and the change is either statistically
significant or undecidable (single-run candidates have NaN p-values;
nightly CI still needs to alert on them) — here with an absolute floor
(``min_seconds``) so microsecond-level nodes cannot trip the gate on
scheduler noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from ..obs import span as obs_span
from ..obs.dogfood import WALL_INC
from .store import PerfStore, is_run_id

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
            f"candidate root span(s) on {self.policy.metric!r}",
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


def check_regression(baseline, candidate,
                     policy: PerfPolicy = DEFAULT_POLICY) -> PerfVerdict:
    """Compare two thickets under *policy* and return the verdict.

    *baseline* and *candidate* are :class:`repro.core.Thicket`
    ensembles (typically the stored history vs. a fresh run converted
    through ``obs.to_thicket``).  Comparison is by call-tree node name,
    so ensembles from different recording sessions line up.  Each node
    is judged by :func:`repro.core.regression.judge`.
    """
    from ..core.regression import _per_node_values, compare_thickets, judge

    with obs_span("perf.sentinel.check"):
        table = compare_thickets(baseline, candidate, policy.metric,
                                 alpha=policy.alpha)
        base_names = set(_per_node_values(baseline, policy.metric))
        cand_names = set(_per_node_values(candidate, policy.metric))

        verdict = PerfVerdict(
            policy=policy,
            new_nodes=sorted(cand_names - base_names),
            vanished_nodes=sorted(base_names - cand_names),
            nodes_compared=len(table),
            baseline_runs=len(baseline.profile),
            candidate_runs=len(candidate.profile),
        )

        changed = judge(table, policy.min_relative_change,
                        min_samples=policy.min_samples,
                        min_mean=policy.min_seconds)
        columns = {col: table.column(col) for col in table.columns}
        for idx in np.flatnonzero(changed):
            entry = {"node": table.index[int(idx)]}
            for col in ("baseline_mean", "candidate_mean",
                        "relative_change", "p_value"):
                entry[col] = float(columns[col][idx])
            for col in ("baseline_runs", "candidate_runs"):
                entry[col] = int(columns[col][idx])
            (verdict.regressions if changed[idx] > 0
             else verdict.improvements).append(entry)

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
    :class:`~repro.obs.Telemetry`, root spans (pooled, one profile
    per root), or a trace file path — or a stored run id string
    (exactly ``run-NNNNNN``), which is loaded from the store and
    excluded from the baseline automatically.
    """
    from ..obs import to_thicket

    if not isinstance(store, PerfStore):
        store = PerfStore(store)
    exclude = list(exclude)
    if isinstance(candidate, str) and is_run_id(candidate):
        roots, _meta, _metrics = store.load_run(candidate)
        exclude.append(candidate)
        candidate_tk = to_thicket(roots)
    else:
        candidate_tk = to_thicket(candidate)
    baseline_tk = store.load_history(limit=limit, exclude=exclude)
    return check_regression(baseline_tk, candidate_tk, policy)
