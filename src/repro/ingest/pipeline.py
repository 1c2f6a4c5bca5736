"""Fault-tolerant ensemble ingestion (read → validate → build → compose).

``load_ensemble`` is the campaign-scale loading path: where
``Thicket.from_caliperreader`` historically aborted a 1,900-profile
composition on the first truncated file, this pipeline pushes every
profile through four stages and applies a per-profile *error policy*:

``strict``
    Raise the first typed error (:class:`repro.errors.ReproError`
    subclass naming the offending file and stage).  The default, and
    the old behaviour — minus the raw ``KeyError``.
``skip``
    Drop bad profiles, emitting a ``warnings.warn`` per drop, and
    compose the rest.
``collect``
    Drop bad profiles silently and return a structured
    :class:`IngestReport` attributing every quarantined profile to its
    exception, stage, and source.

Transient I/O errors (``OSError`` other than a missing file) are
retried under the policy's jittered exponential backoff before the
profile is given up on.  Every profile read from a file becomes a
decoded cali-JSON payload first, and every payload is built into a
GraphFrame on the main process by the one :func:`_build`, whether it
was just read, came back from a pool worker or was saved by a
checkpoint.  Colliding profile ids are repaired deterministically
under ``skip``/``collect`` (and recorded in the report) instead of
aborting the whole ensemble.

With ``checkpoint=DIR`` every outcome of a path source is additionally
journaled to a crash-tolerant JSONL file, and each loaded profile's
payload saved beside it (:mod:`repro.ingest.checkpoint`); a re-run
after an interruption resumes from the journal, rebuilding
already-ingested profiles from their payloads and skipping
already-quarantined ones.  Payload dicts and GraphFrames given as
sources are built or used as given, never journaled.  Resume counts
surface in the :class:`IngestReport` and the ``ingest.checkpoint.*``
obs counters.  A checkpointed run installs a
:class:`~repro.resilience.SignalGuard` so SIGINT/SIGTERM can never
tear an in-flight journal record.

With a supervised :class:`~repro.resilience.ResiliencePolicy`
(``policy=ResiliencePolicy(jobs=4, task_timeout=5)``) the read and
validate stages fan out across a
:class:`~repro.resilience.SupervisedExecutor` worker pool — per-task
wall-clock deadlines kill hung readers, crashed workers are replaced
and their profiles quarantined as typed
:class:`~repro.errors.ExecutionError`\\ s, a per-directory circuit
breaker converts repeated source failures into fast quarantines — and
the checked payloads come back in input order to be built and
composed on the main process, so the result is byte-identical to a
serial run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
import warnings
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..errors import (
    CompositionError,
    ExecutionError,
    ProfileConflictError,
    ReaderError,
    ReproError,
    SchemaError,
    WorkerCrashError,
    from_record,
)
from ..graph import GraphFrame
from ..obs import counter as obs_counter
from ..obs import span as obs_span
from ..readers.caliper import _assemble, _check
from ..resilience import (
    ResiliencePolicy,
    SignalGuard,
    SupervisedExecutor,
    call_with_retries,
    in_worker,
)
from .report import (
    IngestReport,
    IngestResult,
    QuarantinedProfile,
    RepairedProfileId,
)

__all__ = ["load_ensemble", "ERROR_POLICIES", "FAULT_KEY"]

ERROR_POLICIES = ("strict", "skip", "collect")

logger = logging.getLogger("repro.ingest")


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Accumulate wall seconds for *stage*; always on (two clock reads
    per stage are noise next to JSON parsing), independent of whether
    span tracing is enabled."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = (timings.get(stage, 0.0)
                          + time.perf_counter() - t0)


def _read_text(path: Path) -> str:
    """Read a profile file; module-level so tests can inject faults."""
    return path.read_text()


# ----------------------------------------------------------------------
# deterministic execution-fault injection (workloads.corrupt_campaign)
# ----------------------------------------------------------------------

#: Top-level payload key that marks an injected execution fault.  A
#: payload carrying it is never a valid cali profile, so honouring the
#: sentinel only changes *how* a already-doomed profile fails — which
#: is exactly what makes timeout/heartbeat/breaker paths testable
#: without real flaky hardware.
FAULT_KEY = "__repro_fault__"


def _trip_fault(payload: Any, source: str, sleep) -> Any:
    """Execute an injected fault sentinel, if *payload* carries one.

    ``slow_io`` sleeps then yields the embedded real payload;
    ``slowdown`` burns CPU for the configured seconds then yields it
    (a *compute* regression rather than an I/O stall — the perf
    sentinel's staged fault); ``hang`` sleeps past any sane timeout
    then fails; ``worker_crash`` kills the worker process outright
    (simulated as a typed error on the main process, which must never
    die).
    """
    if not isinstance(payload, Mapping) or FAULT_KEY not in payload:
        return payload
    fault = payload[FAULT_KEY]
    mode = fault.get("mode") if isinstance(fault, Mapping) else None
    if mode == "slow_io":
        sleep(float(fault.get("seconds", 0.05)))
        return payload.get("payload", {})  # the wrapped real profile
    if mode == "slowdown":
        seconds = float(fault.get("seconds", 0.25))
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            sum(range(1000))  # busy-burn: wall AND cpu time inflate
        return payload.get("payload", {})
    if mode == "hang":
        seconds = float(fault.get("seconds", 30.0))
        sleep(seconds)
        raise ReaderError(
            f"injected hang in {source} woke after {seconds}s",
            source=source)
    if mode == "worker_crash":
        if in_worker():
            os._exit(3)
        raise WorkerCrashError(
            f"injected worker crash in {source} (simulated in-process)",
            source=source)
    raise SchemaError(f"unknown injected fault mode {mode!r} in {source}",
                      source=source)


# ----------------------------------------------------------------------
# one profile: read → validate → build
# ----------------------------------------------------------------------

def _read_payload(path: Path) -> Any:
    """Read and decode one profile file.  A missing file is permanent;
    any other ``OSError`` is a ``transient`` ``ReaderError``."""
    try:
        text = _read_text(path)
    except FileNotFoundError as e:
        raise ReaderError(f"profile file not found: {path}",
                          source=path) from e
    except OSError as e:
        err = ReaderError(f"I/O error reading {path}: {e}", source=path)
        err.transient = True
        raise err from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ReaderError(f"invalid JSON in {path}: {e}",
                          source=path) from e


def _build(payload: Any, source: str,
           timings: dict[str, float]) -> GraphFrame:
    """Run one decoded payload through validate → build, raising only
    :class:`ReproError`\\ s; stage wall times accumulate into
    *timings*: ``validate`` is the reader's schema check, ``build`` the
    tree and frame it assembles from the checked pieces."""
    with _timed(timings, "validate"), obs_span("ingest.validate",
                                               source=source):
        checked = _check(payload, source)
    with _timed(timings, "build"), obs_span("ingest.build", source=source):
        try:
            return _assemble(checked, source)
        except ReproError:
            raise
        except (KeyError, IndexError, TypeError, ValueError,
                AttributeError, OverflowError) as e:
            # belt and braces: nothing structural may escape untyped
            # (OverflowError: an integer cell beyond int64)
            raise ReaderError(
                f"failed to build call tree from {source}: "
                f"{type(e).__name__}: {e}", source=source,
                stage="build") from e


def _build_file(payload: Any, source: str,
                timings: dict[str, float]) -> GraphFrame:
    """:func:`_build` for a path source: the frame records its file."""
    gf = _build(payload, source, timings)
    gf.metadata.setdefault("profile.file", source)
    return gf


def _read_task(path: str) -> Any:
    """Worker task: read one profile file, run any injected fault, and
    check the payload; the parent builds it with :func:`_build_file`.

    Checking here keeps a schema failure a failure of the task, so it
    counts against the source directory's circuit breaker.  The
    supervisor owns the retry budget for transient read errors.
    """
    payload = _trip_fault(_read_payload(Path(path)), path, time.sleep)
    _check(payload, path)
    return payload


def _log_retry(error: ReproError, attempt: int, delay: float) -> None:
    logger.warning("%s (attempt %d); retrying in %.3fs", error,
                   attempt + 1, delay)
    obs_counter("ingest.read.retries")


def _read_file(source: str, policy: ResiliencePolicy, rng, sleep,
               timings: dict[str, float]) -> Any:
    """Read one profile file on the main process under the policy's
    retry budget (never its circuit breaker), then run any injected
    fault."""
    with _timed(timings, "read"), obs_span("ingest.read", source=source):
        payload, _ = call_with_retries(_read_payload, Path(source), policy,
                                       rng, sleep, on_retry=_log_retry)
    return _trip_fault(payload, source, sleep)


def _source_label(src: Any, index: int) -> str:
    if isinstance(src, GraphFrame):
        return str(src.metadata.get("profile.file",
                                    f"<graphframe #{index}>"))
    if isinstance(src, Mapping):
        return f"<payload #{index}>"
    return str(src)


def _repair_id(pid: Any, occurrence: int) -> Any:
    """Deterministic replacement id for the *occurrence*-th collision."""
    if isinstance(pid, (int, np.integer)) and not isinstance(pid, bool):
        digest = hashlib.sha256(f"{pid}:{occurrence}".encode()).digest()
        return int.from_bytes(digest[:8], "big", signed=True)
    return f"{pid}#{occurrence}"


class _Outcomes:
    """Where each profile's outcome lands: built frames in ``slots``
    (keyed by input index), failures in the report, and — for path
    sources under a checkpoint — both in the journal."""

    def __init__(self, report: IngestReport, on_error: str, ckpt,
                 guard: SignalGuard | None):
        self.report = report
        self.on_error = on_error
        self.ckpt = ckpt
        # journal writes run with SIGINT/SIGTERM deferred
        self.critical = guard.critical if guard is not None \
            else nullcontext
        self.timings = report.stage_seconds
        self.slots: dict[int, GraphFrame] = {}

    def quarantine(self, idx: int, source: str, error: ReproError,
                   where: str = "") -> None:
        """Drop one profile under ``skip``/``collect``: warn under
        ``skip``, log, count, and attribute it in the report."""
        if self.on_error == "skip":
            warnings.warn(f"skipping profile{where}: {error}",
                          stacklevel=4)
        logger.warning("quarantined profile %s%s [%s]: %s: %s", source,
                       where, error.stage, type(error).__name__, error)
        obs_counter("ingest.profiles.quarantined")
        self.report.quarantined.append(
            QuarantinedProfile(source=source, stage=error.stage,
                               error=error, index=idx))

    def fold(self, idx: int, source: str, gf: GraphFrame | None,
             error: ReproError | None, attempts: int = 1,
             payload: Any = None, from_file: bool = True
             ) -> ReproError | None:
        """Slot or quarantine one profile, journaling it when it came
        from a file (*payload* is the one it was built from); under
        ``strict`` a failure is returned for the caller to raise.  A
        transient read error that outlived its retries names
        *attempts*."""
        journal = self.ckpt if from_file else None
        if error is None:
            if journal is not None:
                with _timed(self.timings, "checkpoint"), \
                        self.critical(), \
                        obs_span("ingest.checkpoint.record", source=source):
                    journal.record_ok(source, payload)
            self.slots[idx] = gf
            return None
        if getattr(error, "transient", False):
            logger.error("giving up on %s after %d attempt(s): %s",
                         source, attempts, error)
            head = f"I/O error reading {error.source}"
            gave_up = ReaderError(
                f"{head} after {attempts} attempt(s)"
                f"{str(error).removeprefix(head)}", source=error.source)
            gave_up.__cause__, error = error, gave_up
        if journal is not None:
            with self.critical():
                journal.record_quarantined(source, error)
        if self.on_error == "strict":
            return error
        self.quarantine(idx, source, error)
        return None

    def resume(self, idx: int, source: str) -> bool:
        """Settle *source* from the checkpoint journal, if it can be.

        A journaled ``ok`` profile is rebuilt from its saved payload; a
        payload that is missing, unreadable or fails to build (one
        saved in an older format, say) is re-ingested from its source.
        A journaled quarantine is skipped under ``skip``/``collect``
        and retried under ``strict``, since the file may have been
        fixed since.  Returns False when the source must be ingested.
        """
        rec = self.ckpt.get(source)
        if rec is None:
            return False
        if rec.get("status") == "ok":
            try:
                with _timed(self.timings, "resume"), \
                        obs_span("ingest.checkpoint.load", source=source):
                    payload = self.ckpt.load_payload(rec)
                gf = _build_file(payload, source, self.timings)
            except ReproError as e:
                logger.warning("checkpoint payload for %s unusable "
                               "(%s: %s); re-ingesting", source,
                               type(e).__name__, e)
                obs_counter("ingest.checkpoint.payload_invalid")
                return False
            obs_counter("ingest.checkpoint.resumed")
            self.report.resumed.append(source)
            self.slots[idx] = gf
            return True
        if self.on_error == "strict":
            return False
        error = from_record({"source": source, **rec})
        obs_counter("ingest.checkpoint.quarantine_skipped")
        self.report.resumed_quarantined += 1
        self.quarantine(idx, source, error, where=" (from checkpoint)")
        return True


def _derive_profile_ids(gfs, sources, metadata_key, outcomes: _Outcomes):
    """Profile id per GraphFrame; collisions repaired or raised.

    Returns ``(kept_gfs, kept_sources, profile_ids)`` — under non-strict
    policies a profile whose id cannot be derived is quarantined here
    (stage ``compose``) rather than aborting the ensemble.
    """
    from ..core.thicket import profile_hash

    on_error, report = outcomes.on_error, outcomes.report
    kept_gfs, kept_sources, ids = [], [], []
    for (idx, source), gf in zip(sources, gfs):
        try:
            if metadata_key is not None:
                if metadata_key not in gf.metadata:
                    raise ProfileConflictError(
                        f"metadata_key {metadata_key!r} missing from "
                        f"profile #{idx} ({source})", source=source)
                pid = gf.metadata[metadata_key]
            else:
                pid = profile_hash(gf.metadata)
        except ReproError as e:
            if on_error == "strict":
                raise
            outcomes.quarantine(idx, source, e)
            continue
        kept_gfs.append(gf)
        kept_sources.append((idx, source))
        ids.append(pid)

    seen: dict[Any, int] = {}
    final_ids = []
    for (idx, source), pid in zip(kept_sources, ids):
        if pid in seen:
            if on_error == "strict":
                first = kept_sources[seen[pid]][1]
                raise ProfileConflictError(
                    f"profile id {pid!r} of {source} collides with "
                    f"{first}; choose a different metadata_key or use "
                    f"on_error='skip'/'collect'", source=source)
            occurrence = 1
            new = _repair_id(pid, occurrence)
            while new in seen or new in ids:
                occurrence += 1
                new = _repair_id(pid, occurrence)
            logger.warning("profile id %r of %s collided; repaired to %r",
                           pid, source, new)
            obs_counter("ingest.profile_ids.repaired")
            report.repaired.append(
                RepairedProfileId(source=source, original=pid, repaired=new))
            pid = new
        seen[pid] = len(final_ids)
        final_ids.append(pid)
    return kept_gfs, kept_sources, final_ids


def _load_parallel(outcomes: _Outcomes, tasks, policy: ResiliencePolicy,
                   sleep) -> None:
    """Fan *tasks* (``(idx, path)`` pairs) out across a supervised pool.

    Workers return checked payloads, which are built here, so a pool
    profile is built exactly as a serial one.  Failures are quarantined
    exactly as the serial path would, with executor failures (timeout,
    crash, breaker, deadline) additionally counted on the report.
    Under ``strict`` the lowest-index error is raised — after every
    outcome has been journaled, so a checkpointed re-run still resumes.
    """
    report = outcomes.report
    paths = [path for _, path in tasks]
    try:
        executor = SupervisedExecutor(
            policy, breaker_key=lambda key: str(Path(key).parent),
            sleep=sleep)
    except ValueError as e:  # breaker settings; ResiliencePolicy checks them
        raise ExecutionError(f"cannot start the worker pool: {e}") from e
    with _timed(outcomes.timings, "execute"), \
            obs_span("ingest.parallel", tasks=len(tasks),
                     jobs=policy.jobs):
        results = executor.map(_read_task, paths, key=str)
    report.breaker_trips += executor.breaker.trips
    first_error: ReproError | None = None
    for (idx, source), result in zip(tasks, results):
        gf, error = None, result.error
        if result.ok:
            try:
                gf = _build_file(result.value, source, outcomes.timings)
            except ReproError as e:
                error = e
        report.timeouts += result.status in ("timeout", "deadline")
        report.worker_crashes += result.status == "crash"
        error = outcomes.fold(idx, source, gf, error, result.attempts,
                              payload=result.value)
        first_error = first_error or error
    if first_error is not None:
        raise first_error


def load_ensemble(sources: Iterable[Any] | Any,
                  on_error: str = "strict",
                  metadata_key: str | None = None,
                  intersection: bool = False,
                  fill_perfdata: bool = False,
                  sleep=None,
                  checkpoint: Any = None,
                  policy: ResiliencePolicy | None = None) -> IngestResult:
    """Compose an ensemble of cali-JSON profiles fault-tolerantly.

    Parameters
    ----------
    sources:
        File paths, payload dicts, and/or GraphFrames (mixed is fine).
    on_error:
        ``"strict"`` (raise first error), ``"skip"`` (drop + warn), or
        ``"collect"`` (drop silently, attribute in the report).
    metadata_key / intersection / fill_perfdata:
        As :meth:`repro.core.Thicket.from_caliperreader`.
    sleep:
        Injectable sleep function (testing); defaults to ``time.sleep``.
    checkpoint:
        Directory for a crash-tolerant ingestion checkpoint (created
        if missing).  The outcome of every path source is journaled
        there as the run progresses, and a re-run with the same
        directory resumes from the journal instead of re-reading
        finished profiles.
        Checkpointed runs defer SIGINT/SIGTERM across journal writes
        so an interrupt can never tear an in-flight record.
    policy:
        A :class:`~repro.resilience.ResiliencePolicy`; ``None`` means
        ``ResiliencePolicy()``.  Its ``max_retries`` / ``backoff`` /
        ``backoff_jitter`` govern retries of transient ``OSError``
        while reading profile files (jitter drawn from a
        ``random.Random(0)``, as the executor's).  A *supervised* policy
        (``jobs > 1``, or a ``task_timeout`` / ``deadline``) fans the
        per-file read → validate stages out across a
        :class:`~repro.resilience.SupervisedExecutor` worker pool with
        per-task deadlines, heartbeat liveness, and per-directory
        circuit breakers; build and composition stay on the main
        process and results keep input order.  Otherwise profiles load serially on
        the calling process, with no circuit breaker.

    Returns
    -------
    IngestResult
        ``(thicket, report)``; ``thicket`` is ``None`` when nothing
        was loadable under a non-strict policy.
    """
    from ..core.thicket import Thicket

    if on_error not in ERROR_POLICIES:
        # CompositionError subclasses ValueError, so the historical
        # bad-argument contract holds while staying a typed ReproError
        raise CompositionError(
            f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}")
    if sleep is None:
        sleep = time.sleep
    eff = policy if policy is not None else ResiliencePolicy()
    rng = random.Random(0)
    if isinstance(sources, (str, Path, GraphFrame, Mapping)):
        sources = [sources]
    sources = list(sources)
    report = IngestReport(policy=on_error, requested=len(sources),
                          jobs=eff.jobs)
    if not sources:
        raise CompositionError("no profiles given")

    ckpt = None
    guard: SignalGuard | None = None
    timings = report.stage_seconds
    with ExitStack() as stack:
        if checkpoint is not None:
            from .checkpoint import CheckpointJournal

            # the guard makes journal appends and worker teardown
            # uninterruptible windows; outside them Ctrl-C is instant
            guard = stack.enter_context(SignalGuard())
            ckpt = CheckpointJournal(checkpoint)
            report.checkpoint_path = str(Path(checkpoint))
        outcomes = _Outcomes(report, on_error, ckpt, guard)
        labels = [_source_label(src, idx) for idx, src in enumerate(sources)]

        try:
            with obs_span("ingest.load_ensemble", profiles=len(sources),
                          policy=on_error, jobs=eff.jobs) as top:
                logger.info(
                    "ingesting %d profile(s) (policy=%s, jobs=%d)",
                    len(sources), on_error, eff.jobs)
                tasks: list[tuple[int, str]] = []   # parallelizable paths
                for idx, (src, source) in enumerate(zip(sources, labels)):
                    if isinstance(src, GraphFrame):
                        outcomes.slots[idx] = src
                        continue
                    from_file = not isinstance(src, Mapping)
                    if from_file and ckpt is not None \
                            and outcomes.resume(idx, source):
                        continue
                    if from_file and eff.supervised:
                        tasks.append((idx, source))
                        continue
                    gf = payload = error = None
                    try:
                        with obs_span("ingest.profile", source=source):
                            if from_file:
                                payload = _read_file(source, eff, rng, sleep,
                                                     timings)
                                gf = _build_file(payload, source, timings)
                            else:
                                gf = _build(_trip_fault(src, source, sleep),
                                            source, timings)
                    except ReproError as e:
                        error = e
                    error = outcomes.fold(idx, source, gf, error,
                                          getattr(error, "attempts", 1),
                                          payload, from_file)
                    if error is not None:
                        raise error
                if tasks:
                    _load_parallel(outcomes, tasks, eff, sleep)
                order = sorted(outcomes.slots)
                gfs = [outcomes.slots[i] for i in order]
                labelled = [(i, labels[i]) for i in order]
                obs_counter("ingest.profiles.loaded", len(gfs))

                with _timed(timings, "compose"), \
                        obs_span("ingest.derive_ids"):
                    gfs, labelled, profile_ids = _derive_profile_ids(
                        gfs, labelled, metadata_key, outcomes)

                report.loaded = [source for _, source in labelled]
                if not gfs:
                    if on_error == "strict":
                        raise CompositionError(
                            "no profiles could be loaded")
                    logger.error("nothing loadable: all %d profile(s) "
                                 "quarantined", len(sources))
                    return IngestResult(None, report)

                provenance = {
                    "ingest_policy": on_error,
                    "dropped_profiles": [q.to_dict()
                                         for q in report.quarantined],
                    "repaired_profile_ids": [
                        {"source": r.source, "original": r.original,
                         "repaired": r.repaired}
                        for r in report.repaired
                    ],
                }
                with _timed(timings, "compose"), \
                        obs_span("ingest.compose", profiles=len(gfs)):
                    try:
                        tk = Thicket._compose(gfs, profile_ids,
                                              intersection=intersection,
                                              fill_perfdata=fill_perfdata,
                                              provenance=provenance)
                    except ReproError:
                        raise
                    except ValueError as e:  # a GraphFrame that does not fit
                        raise CompositionError(f"cannot compose: {e}") from e
                top.set("loaded", len(gfs))
                top.set("quarantined", report.n_quarantined)
                if report.resumed or report.resumed_quarantined:
                    top.set("resumed", report.n_resumed)
                    logger.info("checkpoint resume: %d profile(s) rebuilt "
                                "from journal, %d quarantine(s) skipped",
                                report.n_resumed,
                                report.resumed_quarantined)
                if report.quarantined:
                    logger.info("ingest finished: %d/%d loaded, "
                                "%d quarantined", report.n_loaded,
                                report.requested, report.n_quarantined)
        finally:
            if ckpt is not None:
                with outcomes.critical():
                    ckpt.close()
    return IngestResult(tk, report)
