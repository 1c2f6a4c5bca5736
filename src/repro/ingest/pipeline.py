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
profile is given up on; serial and parallel ingest share one read, one
build and one outcome fold.  Colliding profile ids are repaired
deterministically under ``skip``/``collect`` (and recorded in the
report) instead of aborting the whole ensemble.

With ``checkpoint=DIR`` every per-profile outcome is additionally
journaled to a crash-tolerant JSONL file plus incrementally saved
GraphFrame payloads (:mod:`repro.ingest.checkpoint`); a re-run after
an interruption resumes from the journal, skipping already-ingested
and already-quarantined profiles.  Resume counts surface in the
:class:`IngestReport` and the ``ingest.checkpoint.*`` obs counters.
A checkpointed run installs a :class:`~repro.resilience.SignalGuard`
so SIGINT/SIGTERM can never tear an in-flight journal record.

With a supervised :class:`~repro.resilience.ResiliencePolicy`
(``policy=ResiliencePolicy(jobs=4, task_timeout=5)``) the read →
validate → build stages fan out across a
:class:`~repro.resilience.SupervisedExecutor` worker pool — per-task
wall-clock deadlines kill hung readers, crashed workers are replaced
and their profiles quarantined as typed
:class:`~repro.errors.ExecutionError`\\ s, a per-directory circuit
breaker converts repeated source failures into fast quarantines — and
results fold back in input order, so composition (which stays on the
main process) is byte-identical to a serial run.
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
    ProfileConflictError,
    ReaderError,
    ReproError,
    SchemaError,
    WorkerCrashError,
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
    (simulated as a typed error when running inline on the main
    process, which must never die).
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


def _build(payload: Any, source: str, sleep,
           timings: dict[str, float]) -> GraphFrame:
    """Run one decoded payload through fault → validate → build,
    raising only :class:`ReproError`\\ s; stage wall times accumulate
    into *timings*: ``validate`` is the reader's schema check,
    ``build`` the tree and frame it assembles from the checked
    pieces."""
    payload = _trip_fault(payload, source, sleep)
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


def _parallel_ingest_task(path: str) -> dict:
    """Worker task: one profile path through read → validate → build.

    Returns the GraphFrame as a lossless checkpoint payload dict
    (:func:`repro.ingest.checkpoint._gf_to_payload`), so parallel
    composition is byte-identical to serial.  The supervisor owns the
    retry budget for transient read errors.
    """
    from .checkpoint import _gf_to_payload

    gf = _build(_read_payload(Path(path)), path, time.sleep, {})
    gf.metadata.setdefault("profile.file", path)
    return _gf_to_payload(gf)


def _log_retry(error: ReproError, attempt: int, delay: float) -> None:
    logger.warning("%s (attempt %d); retrying in %.3fs", error,
                   attempt + 1, delay)
    obs_counter("ingest.read.retries")


def _source_label(src: Any, index: int) -> str:
    if isinstance(src, GraphFrame):
        return str(src.metadata.get("profile.file",
                                    f"<graphframe #{index}>"))
    if isinstance(src, Mapping):
        return f"<payload #{index}>"
    return str(src)


def _load_one(src: Any, source: str, policy: ResiliencePolicy, rng, sleep,
              timings: dict[str, float]) -> GraphFrame:
    """Load one source on the main process; paths read under the
    policy's retry budget (never its circuit breaker)."""
    if isinstance(src, GraphFrame):
        return src
    if isinstance(src, Mapping):
        return _build(src, source, sleep, timings)
    with _timed(timings, "read"), obs_span("ingest.read", source=source):
        payload, _ = call_with_retries(_read_payload, Path(src), policy,
                                       rng, sleep, on_retry=_log_retry)
    gf = _build(payload, source, sleep, timings)
    gf.metadata.setdefault("profile.file", source)
    return gf


def _repair_id(pid: Any, occurrence: int) -> Any:
    """Deterministic replacement id for the *occurrence*-th collision."""
    if isinstance(pid, (int, np.integer)) and not isinstance(pid, bool):
        digest = hashlib.sha256(f"{pid}:{occurrence}".encode()).digest()
        return int.from_bytes(digest[:8], "big", signed=True)
    return f"{pid}#{occurrence}"


def _derive_profile_ids(gfs, sources, metadata_key, on_error, report):
    """Profile id per GraphFrame; collisions repaired or raised.

    Returns ``(kept_gfs, kept_sources, profile_ids)`` — under non-strict
    policies a profile whose id cannot be derived is quarantined here
    (stage ``compose``) rather than aborting the ensemble.
    """
    from ..core.thicket import profile_hash

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
            if on_error == "skip":
                warnings.warn(f"skipping profile: {e}", stacklevel=3)
            logger.warning("quarantined profile %s [compose]: %s: %s",
                           source, type(e).__name__, e)
            obs_counter("ingest.profiles.quarantined")
            report.quarantined.append(
                QuarantinedProfile(source=source, stage=e.stage,
                                   error=e, index=idx))
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


def _resume_quarantined(rec: Mapping, source: str, idx: int,
                        on_error: str, report) -> None:
    """Re-attribute a journaled quarantine without re-reading the file."""
    import repro.errors as errors_mod

    err_cls = getattr(errors_mod, rec.get("error_type", ""), ReproError)
    if not (isinstance(err_cls, type) and issubclass(err_cls, ReproError)):
        err_cls = ReproError
    error = err_cls(str(rec.get("error", "quarantined in a previous run")),
                    source=source, stage=rec.get("stage", "ingest"))
    if on_error == "skip":
        warnings.warn(f"skipping profile (from checkpoint): {error}",
                      stacklevel=3)
    logger.info("checkpoint: skipping previously quarantined profile %s "
                "[%s]", source, error.stage)
    obs_counter("ingest.checkpoint.quarantine_skipped")
    obs_counter("ingest.profiles.quarantined")
    report.resumed_quarantined += 1
    report.quarantined.append(
        QuarantinedProfile(source=source, stage=error.stage, error=error,
                           index=idx))


def _fold(report: IngestReport, idx: int, source: str,
          gf: GraphFrame | None, error: ReproError | None, attempts: int,
          on_error: str, ckpt, crit, timings,
          slots: dict[int, GraphFrame]) -> ReproError | None:
    """Journal one profile's outcome and slot or quarantine it; under
    ``strict`` a failure is returned for the caller to raise.  A
    transient read error that outlived its retries names *attempts*."""
    if error is None:
        if ckpt is not None:
            with _timed(timings, "checkpoint"), crit(), \
                    obs_span("ingest.checkpoint.record", source=source):
                ckpt.record_ok(source, gf)
        slots[idx] = gf
        return None
    if getattr(error, "transient", False):
        logger.error("giving up on %s after %d attempt(s): %s",
                     source, attempts, error)
        head = f"I/O error reading {error.source}"
        gave_up = ReaderError(
            f"{head} after {attempts} attempt(s)"
            f"{str(error).removeprefix(head)}", source=error.source)
        gave_up.__cause__, error = error, gave_up
    if ckpt is not None:
        with crit():
            ckpt.record_quarantined(source, error.stage,
                                    type(error).__name__, str(error))
    if on_error == "strict":
        return error
    if on_error == "skip":
        warnings.warn(f"skipping profile: {error}", stacklevel=3)
    logger.warning("quarantined profile %s [%s]: %s: %s",
                   source, error.stage, type(error).__name__, error)
    obs_counter("ingest.profiles.quarantined")
    report.quarantined.append(
        QuarantinedProfile(source=source, stage=error.stage, error=error,
                           index=idx))
    return None


def _try_resume(ckpt, source: str, idx: int, on_error: str, report,
                timings) -> tuple[bool, GraphFrame | None]:
    """Consult the checkpoint journal for *source*.

    Returns ``(handled, gf)``: ``(True, gf)`` for a resumed profile,
    ``(True, None)`` for a skipped quarantine, ``(False, None)`` when
    the source must be (re-)ingested.
    """
    rec = ckpt.get(source)
    if rec is None:
        return False, None
    if rec.get("status") == "ok":
        with _timed(timings, "resume"), \
                obs_span("ingest.checkpoint.load", source=source):
            gf = ckpt.load_gf(rec)
        if gf is not None:
            obs_counter("ingest.checkpoint.resumed")
            report.resumed.append(source)
            return True, gf
        return False, None  # payload lost/corrupt: re-ingest
    if on_error != "strict":
        _resume_quarantined(rec, source, idx, on_error, report)
        return True, None
    return False, None  # strict + previously quarantined: retry


def _load_parallel(tasks, policy: ResiliencePolicy, on_error: str,
                   report: IngestReport, ckpt, crit, sleep, timings,
                   slots: dict[int, GraphFrame]) -> None:
    """Fan *tasks* (``(idx, path)`` pairs) out across a supervised pool.

    Successful profiles land in *slots* (keyed by input index, so the
    caller reassembles input order); failures are quarantined exactly
    as the serial path would, with executor failures (timeout, crash,
    breaker, deadline) additionally counted on the report.  Under
    ``strict`` the lowest-index error is raised — after every outcome
    has been journaled, so a checkpointed re-run still resumes.
    """
    from .checkpoint import _payload_to_gf

    paths = [path for _, path in tasks]
    executor = SupervisedExecutor(
        policy, breaker_key=lambda key: str(Path(key).parent),
        sleep=sleep)
    with _timed(timings, "execute"), \
            obs_span("ingest.parallel", tasks=len(tasks),
                     jobs=policy.jobs):
        outcomes = executor.map(_parallel_ingest_task, paths, keys=paths)
    report.breaker_trips += executor.breaker.trips
    first_error: ReproError | None = None
    for (idx, source), outcome in zip(tasks, outcomes):
        gf = _payload_to_gf(outcome.value) if outcome.ok else None
        report.timeouts += outcome.status in ("timeout", "deadline")
        report.worker_crashes += outcome.status == "crash"
        error = _fold(report, idx, source, gf, outcome.error,
                      outcome.attempts, on_error, ckpt, crit, timings,
                      slots)
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
        if missing).  Per-profile outcomes are journaled there as the
        run progresses, and a re-run with the same directory resumes
        from the journal instead of re-reading finished profiles.
        Checkpointed runs defer SIGINT/SIGTERM across journal writes
        so an interrupt can never tear an in-flight record.
    policy:
        A :class:`~repro.resilience.ResiliencePolicy`; ``None`` means
        ``ResiliencePolicy()``.  Its ``max_retries`` / ``backoff`` /
        ``backoff_jitter`` govern retries of transient ``OSError``
        while reading profile files (jitter drawn from a
        ``random.Random(0)``, as the executor's).  A *supervised* policy
        (``jobs > 1``, or a ``task_timeout`` / ``deadline``) fans the
        per-profile read → validate → build stages out across a
        :class:`~repro.resilience.SupervisedExecutor` worker pool with
        per-task deadlines, heartbeat liveness, and per-directory
        circuit breakers; composition stays on the main process and
        results keep input order.  Otherwise profiles load serially on
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

        def crit():
            return guard.critical() if guard is not None else nullcontext()

        try:
            with obs_span("ingest.load_ensemble", profiles=len(sources),
                          policy=on_error, jobs=eff.jobs) as top:
                logger.info(
                    "ingesting %d profile(s) (policy=%s, jobs=%d)",
                    len(sources), on_error, eff.jobs)
                slots: dict[int, GraphFrame] = {}
                tasks: list[tuple[int, str]] = []   # parallelizable paths
                for idx, src in enumerate(sources):
                    source = _source_label(src, idx)
                    if ckpt is not None:
                        handled, gf = _try_resume(ckpt, source, idx,
                                                  on_error, report, timings)
                        if handled:
                            if gf is not None:
                                slots[idx] = gf
                            continue
                    if eff.supervised and not isinstance(
                            src, (GraphFrame, Mapping)):
                        tasks.append((idx, str(src)))
                        continue
                    try:
                        with obs_span("ingest.profile", source=source):
                            gf = _load_one(src, source, eff, rng, sleep,
                                           timings)
                        error = None
                    except ReproError as e:
                        gf, error = None, e
                    error = _fold(report, idx, source, gf, error,
                                  getattr(error, "attempts", 1), on_error,
                                  ckpt, crit, timings, slots)
                    if error is not None:
                        raise error
                if tasks:
                    _load_parallel(tasks, eff, on_error, report, ckpt,
                                   crit, sleep, timings, slots)
                gfs = [slots[i] for i in sorted(slots)]
                labelled = [(i, _source_label(sources[i], i))
                            for i in sorted(slots)]
                obs_counter("ingest.profiles.loaded", len(gfs))

                with _timed(timings, "compose"), \
                        obs_span("ingest.derive_ids"):
                    gfs, labelled, profile_ids = _derive_profile_ids(
                        gfs, labelled, metadata_key, on_error, report)

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
                    "dropped_profiles": [
                        {"source": q.source, "stage": q.stage,
                         "error_type": q.error_type, "error": str(q.error)}
                        for q in report.quarantined
                    ],
                    "repaired_profile_ids": [
                        {"source": r.source, "original": r.original,
                         "repaired": r.repaired}
                        for r in report.repaired
                    ],
                }
                with _timed(timings, "compose"), \
                        obs_span("ingest.compose", profiles=len(gfs)):
                    tk = Thicket._compose(gfs, profile_ids,
                                          intersection=intersection,
                                          fill_perfdata=fill_perfdata,
                                          provenance=provenance)
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
                with crit():
                    ckpt.close()
    return IngestResult(tk, report)
