"""Append-only, checksummed history of recorded performance runs.

Each recorded run is one file under ``<root>/runs/`` carrying the
``repro-perfrun-v1`` envelope — the same ``format`` / ``checksum`` /
``payload`` discipline as the v2 thicket store (PR 3), written through
:func:`repro.ioutil.atomic_write_text` so a crash mid-record leaves
the history intact.  The payload holds the run's root spans (the
lossless flat-record form from :func:`repro.obs.spans_to_records`),
the metrics snapshot, and the run metadata (machine, commit,
timestamp, label); run ids are a monotonically increasing
``run-NNNNNN`` sequence, so the directory listing *is* the index and
there is no separate index file to corrupt.

``load_history()`` is the paper's "forest" applied to our own
benchmarks: every stored run's span tree becomes one profile (via
``obs.spans_to_graphframes``) and the runs compose into a single
multi-run ensemble Thicket whose metadata table carries each run's
context — ready for ``core.regression.compare_thickets``.
"""

from __future__ import annotations

import json
import platform
import re
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..errors import CorruptStoreError, PersistenceError
from ..ioutil import atomic_write_text, canonical_json, sha256_of
from ..obs import counter as obs_counter
from ..obs import span as obs_span
from ..obs.core import Span, Telemetry
from ..obs.export import records_to_spans, spans_to_records

__all__ = ["PerfStore", "PerfRunInfo", "FORMAT_PERFRUN", "detect_commit",
           "is_run_id"]

FORMAT_PERFRUN = "repro-perfrun-v1"

_RUN_PREFIX = "run-"
_RUN_DIGITS = 6
_RUN_ID = re.compile(rf"{_RUN_PREFIX}[0-9]{{{_RUN_DIGITS}}}")


def is_run_id(text: str) -> bool:
    """True when *text* is a stored run id (``run-NNNNNN``) and nothing
    more, so a trace file such as ``run-1.json`` is not mistaken for
    one."""
    return _RUN_ID.fullmatch(text) is not None


def detect_commit(cwd: "str | Path | None" = None) -> str | None:
    """Best-effort ``git rev-parse HEAD`` of *cwd* (None off a repo)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5.0)
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


class PerfRunInfo:
    """Index entry for one stored run: id, path, and its metadata."""

    __slots__ = ("run_id", "path", "meta")

    def __init__(self, run_id: str, path: Path, meta: dict[str, Any]):
        self.run_id = run_id
        self.path = path
        self.meta = meta

    def to_dict(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "path": str(self.path),
                "meta": dict(self.meta)}

    def __repr__(self) -> str:
        return f"PerfRunInfo({self.run_id!r}, meta={self.meta!r})"


class PerfStore:
    """On-disk history of recorded performance runs.

    Parameters
    ----------
    root:
        Directory of the store (created on first record).
    clock:
        Injectable wall-clock epoch source for run timestamps
        (default ``time.time``; injected by tests per RPR004).

    The store is append-only: :meth:`record` assigns the next sequence
    id and writes one immutable run file; :meth:`prune` is the only
    destructive operation (retention, oldest-first).
    """

    def __init__(self, root: "str | Path", *,
                 clock: Callable[[], float] | None = None):
        self.root = Path(root)
        self._clock = clock or time.time

    @property
    def runs_dir(self) -> Path:
        """Directory holding one ``run-NNNNNN.json`` file per run."""
        return self.root / "runs"

    # -- write ---------------------------------------------------------
    def record(self, source: "Telemetry | Sequence[Span]",
               meta: Mapping[str, Any] | None = None,
               label: str | None = None) -> PerfRunInfo:
        """Append one run to the history.

        *source* is a :class:`~repro.obs.Telemetry` (its finished root
        spans and metrics snapshot are stored) or a sequence of root
        spans.  *meta* scalars are stored with the run and later
        surface as metadata columns on the history ensemble; machine,
        commit, and timestamp are filled in automatically when absent.
        Raises :class:`PersistenceError` when there are no completed
        spans to record.
        """
        with obs_span("perf.store.record"):
            if isinstance(source, Telemetry):
                roots = source.finished_spans()
                snap = source.metrics.snapshot()
                metrics = snap if any(snap.values()) else None
            else:
                roots = list(source)
                metrics = None
            roots = [r for r in roots if r.end is not None]
            if not roots:
                raise PersistenceError(
                    "refusing to record a run with no completed spans",
                    source=self.root, stage="record")

            run_meta: dict[str, Any] = {
                "machine": platform.node(),
                "commit": detect_commit(),
                "timestamp": float(self._clock()),
                "python": platform.python_version(),
                "roots": len(roots),
                "spans": sum(1 for r in roots for _ in r.walk()),
            }
            if label is not None:
                run_meta["label"] = str(label)
            for key, value in (meta or {}).items():
                if isinstance(value, (str, int, float, bool)) or value is None:
                    run_meta[str(key)] = value

            run_id = self._next_run_id()
            payload = {
                "meta": run_meta,
                "spans": spans_to_records(roots),
                "metrics": metrics or {},
            }
            doc = {
                "format": FORMAT_PERFRUN,
                "run_id": run_id,
                "checksum": sha256_of(canonical_json(payload)),
                "payload": payload,
            }
            path = self.runs_dir / f"{run_id}.json"
            atomic_write_text(path, json.dumps(doc, sort_keys=True))
            obs_counter("perf.store.runs_recorded")
            return PerfRunInfo(run_id, path, run_meta)

    def _next_run_id(self) -> str:
        last = 0
        for p in self._run_paths():
            try:
                last = max(last, int(p.stem[len(_RUN_PREFIX):]))
            except ValueError:
                continue
        return f"{_RUN_PREFIX}{last + 1:0{_RUN_DIGITS}d}"

    # -- read ----------------------------------------------------------
    def _run_paths(self) -> list[Path]:
        if not self.runs_dir.is_dir():
            return []
        return sorted(self.runs_dir.glob(f"{_RUN_PREFIX}*.json"))

    def _load_doc(self, path: Path) -> dict[str, Any]:
        try:
            text = path.read_text()
        except OSError as e:
            raise PersistenceError(f"cannot read perf run: {e}",
                                   source=path, stage="load") from e
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise CorruptStoreError(
                f"perf run is not valid JSON (truncated?): {e}",
                source=path, stage="load") from e
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_PERFRUN:
            raise CorruptStoreError(
                f"not a {FORMAT_PERFRUN} document "
                f"(format={doc.get('format') if isinstance(doc, dict) else None!r})",
                source=path, stage="load")
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CorruptStoreError("perf run has no payload object",
                                    source=path)
        actual = sha256_of(canonical_json(payload))
        if doc.get("checksum") != actual:
            raise CorruptStoreError(
                f"checksum mismatch: stored {doc.get('checksum')!r}, "
                f"computed {actual!r} — the run file was modified or "
                f"corrupted after it was written", source=path)
        return doc

    def runs(self) -> list[PerfRunInfo]:
        """All stored runs, oldest first (checksums verified)."""
        out = []
        for path in self._run_paths():
            doc = self._load_doc(path)
            out.append(PerfRunInfo(doc.get("run_id", path.stem), path,
                                   dict(doc["payload"].get("meta", {}))))
        return out

    def load_run(self, run_id: str) -> tuple[list[Span], dict, dict]:
        """One stored run as ``(root spans, meta, metrics snapshot)``."""
        path = self.runs_dir / f"{run_id}.json"
        if not path.exists():
            raise PersistenceError(
                f"no such perf run {run_id!r} in {self.root}",
                source=path, stage="load")
        doc = self._load_doc(path)
        payload = doc["payload"]
        return (records_to_spans(payload.get("spans", [])),
                dict(payload.get("meta", {})),
                dict(payload.get("metrics", {})))

    def load_history(self, limit: int | None = None,
                     exclude: Sequence[str] = ()):
        """Compose stored runs into one multi-run ensemble Thicket.

        Every run's root spans become profiles (one per root, via
        ``obs.spans_to_graphframes``); run metadata lands as
        ``run.<key>`` metadata columns and the profile index is
        ``"<run_id>/<root index>"``.  ``limit`` keeps only the most
        recent N runs; ``exclude`` skips run ids (e.g. the candidate
        itself).  Raises :class:`PersistenceError` when the history is
        empty.
        """
        from ..core.thicket import Thicket
        from ..obs.dogfood import WALL_EXC, spans_to_graphframes

        with obs_span("perf.store.load_history"):
            infos = [i for i in self.runs() if i.run_id not in set(exclude)]
            if limit is not None:
                infos = infos[-limit:]
            if not infos:
                raise PersistenceError(
                    f"perf store {self.root} has no recorded runs",
                    source=self.root, stage="load")
            gfs, pids = [], []
            for info in infos:
                roots, meta, _metrics = self.load_run(info.run_id)
                for idx, gf in enumerate(spans_to_graphframes(roots)):
                    gf.metadata["run.id"] = info.run_id
                    for key, value in meta.items():
                        gf.metadata.setdefault(f"run.{key}", value)
                    gfs.append(gf)
                    pids.append(f"{info.run_id}/{idx}")
            tk = Thicket._compose(gfs, profile_ids=pids)
            tk.default_metric = WALL_EXC
            tk.provenance["perf_store"] = {
                "root": str(self.root),
                "runs": [i.run_id for i in infos],
            }
            return tk

    # -- retention -----------------------------------------------------
    def prune(self, keep: int) -> list[str]:
        """Drop the oldest runs beyond the newest *keep*; returns the
        removed run ids."""
        if keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        paths = self._run_paths()
        victims = paths[:max(0, len(paths) - keep)]
        removed = []
        for path in victims:
            path.unlink()
            removed.append(path.stem)
        if removed:
            obs_counter("perf.store.runs_pruned", len(removed))
        return removed

    def __len__(self) -> int:
        return len(self._run_paths())

    def __repr__(self) -> str:
        return f"PerfStore({str(self.root)!r}, runs={len(self)})"
