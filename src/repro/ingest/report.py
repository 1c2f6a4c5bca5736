"""Structured results of a fault-tolerant ensemble ingestion.

``load_ensemble`` never swallows a failure: every profile it drops is
recorded as a :class:`QuarantinedProfile` (source, pipeline stage, and
the typed exception), and every profile-id collision it repairs is
recorded as a :class:`RepairedProfileId`.  The :class:`IngestReport`
aggregates these into something a human can read (``summary()``) and a
script can act on (``to_dict()``, exit-code-ready ``ok``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..errors import ReproError

__all__ = ["QuarantinedProfile", "RepairedProfileId", "IngestReport",
           "IngestResult"]


@dataclass(frozen=True)
class QuarantinedProfile:
    """One profile dropped from the ensemble, with full attribution."""

    source: str            # file path / positional label of the input
    stage: str             # pipeline stage that failed: read/validate/build/compose
    error: ReproError      # the typed exception (never a bare KeyError)
    index: int             # position of the profile in the input sequence

    @property
    def error_type(self) -> str:
        """Class name of the typed error, e.g. ``SchemaError``."""
        return type(self.error).__name__

    def to_dict(self) -> dict:
        """The form of ``provenance["dropped_profiles"]`` entries and,
        with ``index``, of :meth:`IngestReport.to_dict` quarantines."""
        record = self.error.to_record()
        return {"source": self.source, "stage": self.stage,
                "error_type": record["error_type"],
                "error": record["error"]}

    def describe(self) -> str:
        """One-line ``source [stage] ErrorType: message`` rendering."""
        return (f"{self.source} [{self.stage}] "
                f"{self.error_type}: {self.error}")


@dataclass(frozen=True)
class RepairedProfileId:
    """A deterministically repaired profile-id collision."""

    source: str
    original: Any
    repaired: Any

    def describe(self) -> str:
        """One-line description of the collision and its repair."""
        return (f"{self.source}: profile id {self.original!r} collided, "
                f"repaired to {self.repaired!r}")


@dataclass
class IngestReport:
    """Outcome of one :func:`repro.ingest.load_ensemble` run."""

    policy: str
    requested: int = 0
    loaded: list = field(default_factory=list)        # sources that made it in
    quarantined: list = field(default_factory=list)   # QuarantinedProfile
    repaired: list = field(default_factory=list)      # RepairedProfileId
    stage_seconds: dict = field(default_factory=dict)  # stage -> wall seconds
    checkpoint_path: str | None = None     # journal dir, when checkpointing
    resumed: list = field(default_factory=list)  # sources rebuilt from journal
    resumed_quarantined: int = 0  # quarantines skipped thanks to the journal
    jobs: int = 1                 # worker-pool width (1 = serial)
    timeouts: int = 0             # tasks killed for deadline overrun
    worker_crashes: int = 0       # tasks lost to dead/hung workers
    breaker_trips: int = 0        # circuit-breaker closed/half-open → open

    @property
    def n_loaded(self) -> int:
        """Number of profiles that made it into the thicket."""
        return len(self.loaded)

    @property
    def n_quarantined(self) -> int:
        """Number of profiles set aside with a typed error."""
        return len(self.quarantined)

    @property
    def n_resumed(self) -> int:
        """Number of profiles rebuilt from the checkpoint journal."""
        return len(self.resumed)

    @property
    def ok(self) -> bool:
        """True iff every requested profile composed cleanly."""
        return not self.quarantined and not self.repaired

    def errors_by_stage(self) -> dict[str, int]:
        """Quarantine counts keyed by failing pipeline stage."""
        out: dict[str, int] = {}
        for q in self.quarantined:
            out[q.stage] = out.get(q.stage, 0) + 1
        return out

    def summary(self) -> str:
        """Human-readable quarantine summary (one profile per line)."""
        lines = [
            f"ingest: {self.n_loaded}/{self.requested} profiles loaded "
            f"(policy={self.policy}, quarantined={self.n_quarantined}, "
            f"repaired ids={len(self.repaired)})"
        ]
        if self.checkpoint_path is not None:
            lines.append(
                f"  checkpoint: {self.checkpoint_path} "
                f"({self.n_resumed} resumed, "
                f"{self.resumed_quarantined} quarantine(s) skipped)")
        if self.jobs > 1 or self.timeouts or self.worker_crashes \
                or self.breaker_trips:
            lines.append(
                f"  execution: jobs={self.jobs}, "
                f"timeouts={self.timeouts}, "
                f"worker crashes={self.worker_crashes}, "
                f"breaker trips={self.breaker_trips}")
        for q in self.quarantined:
            lines.append(f"  - {q.describe()}")
        for r in self.repaired:
            lines.append(f"  ~ {r.describe()}")
        if self.stage_seconds:
            total = sum(self.stage_seconds.values())
            stages = ", ".join(f"{k}={v:.3f}s"
                               for k, v in self.stage_seconds.items())
            lines.append(f"  stages: {stages} (total {total:.3f}s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form for scripted consumers."""
        return {
            "policy": self.policy,
            "requested": self.requested,
            "loaded": [str(s) for s in self.loaded],
            "quarantined": [{**q.to_dict(), "index": q.index}
                            for q in self.quarantined],
            "repaired": [
                {"source": r.source, "original": repr(r.original),
                 "repaired": repr(r.repaired)}
                for r in self.repaired
            ],
            "stage_seconds": {k: round(v, 6)
                              for k, v in self.stage_seconds.items()},
            "checkpoint": {
                "path": self.checkpoint_path,
                "resumed": self.n_resumed,
                "resumed_quarantined": self.resumed_quarantined,
            },
            "execution": {
                "jobs": self.jobs,
                "timeouts": self.timeouts,
                "worker_crashes": self.worker_crashes,
                "breaker_trips": self.breaker_trips,
            },
        }


class IngestResult(NamedTuple):
    """``(thicket, report)`` pair returned by ``load_ensemble``.

    ``thicket`` is ``None`` when no profile survived under a
    non-strict policy.
    """

    thicket: Any
    report: IngestReport
