"""``SupervisedExecutor`` — a worker pool that survives its workers.

Campaign-scale bulk stages (hundreds of profile reads off flaky
parallel filesystems) meet three failure modes a plain pool cannot
handle: a task that *hangs* (``concurrent.futures`` has no way to kill
one stuck worker), a worker that *crashes* (taking queued results with
it), and a source that fails *repeatedly* (burning the retry budget on
every one of its tasks).  This module supervises a pool of worker
processes from the parent:

* **per-task deadlines** — the supervisor, not the worker, watches the
  wall clock; an overrunning worker is killed and its task quarantined
  as :class:`~repro.errors.TaskTimeoutError`;
* **heartbeats** — each worker refreshes a shared liveness stamp from
  a background thread; a worker that stops beating (or whose process
  dies) is declared crashed, killed, and replaced;
* **bounded retries with jittered exponential backoff** — transient
  failures (a task raising a ``ReproError`` with ``transient=True``)
  are re-dispatched after ``policy.delay_for(attempt, rng)`` seconds;
  serial ingest blocks on the same rule through
  :func:`call_with_retries`, the one in-process retry loop;
* **circuit breakers** — consecutive failures per failure domain trip
  a :class:`~repro.resilience.breaker.CircuitBreaker`, converting
  retry storms into fast :class:`~repro.errors.CircuitOpenError`
  quarantines;
* **run deadlines** — an overall wall budget after which remaining
  tasks fail fast with :class:`~repro.errors.DeadlineExceededError`;
* **deterministic ordering** — results come back sorted by task index,
  so parallel output is byte-identical to a serial run.

Every task runs in a worker process, whatever the policy's ``jobs``:
a caller with nothing to supervise calls its function directly.
Tasks must be picklable module-level callables returning picklable
values; worker processes are started with the ``fork`` method where
available so test seams (monkeypatched module globals) propagate.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    ReproError,
    TaskTimeoutError,
    WorkerCrashError,
    from_record,
)
from ..obs import counter as obs_counter
from ..obs import span as obs_span
from .breaker import CircuitBreaker
from .policy import ResiliencePolicy

__all__ = ["SupervisedExecutor", "TaskOutcome", "call_with_retries",
           "in_worker"]

# Supervisor poll tick: bounds how late a timeout/heartbeat check can
# fire; small enough that sub-second task_timeouts are honoured.
_TICK = 0.02
# How often each worker refreshes its shared liveness stamp; a worker
# silent for ``policy.heartbeat_grace`` seconds is declared hung.
_HEARTBEAT_INTERVAL = 0.05

# Set in worker processes; lets task functions (e.g. fault injectors)
# distinguish "really crash the process" from "simulate in-process".
_WORKER_STATE: dict[str, Any] = {"in_worker": False, "stop_heartbeat": None}


def in_worker() -> bool:
    """True when called inside a SupervisedExecutor worker process."""
    return bool(_WORKER_STATE["in_worker"])


@dataclass
class TaskOutcome:
    """The supervised result of one task, successful or not."""

    index: int                 # position in the input sequence
    key: str                   # caller-supplied label (e.g. profile path)
    status: str                # ok|error|timeout|crash|breaker_open|deadline
    value: Any = None          # task return value when status == "ok"
    error: ReproError | None = None   # typed error otherwise
    attempts: int = 1          # dispatch count including retries
    seconds: float = 0.0       # wall time spent across all attempts

    @property
    def ok(self) -> bool:
        """True when the task produced a value."""
        return self.status == "ok"


def call_with_retries(fn: Callable[[Any], Any], item: Any,
                      policy: ResiliencePolicy, rng,
                      sleep: Callable[[float], None],
                      on_retry: Callable[[ReproError, int, float], None]
                      | None = None) -> tuple[Any, int]:
    """Call ``fn(item)``, retrying ``transient`` ``ReproError``\\ s up
    to ``policy.max_retries`` times after ``policy.delay_for(attempt,
    rng)`` seconds (``on_retry(error, attempt, delay)`` runs first).

    Returns ``(value, attempts)``.  The final ``ReproError`` is raised
    with ``error.attempts`` set; other exceptions propagate untouched.
    """
    attempt = 0
    while True:
        try:
            return fn(item), attempt + 1
        except ReproError as e:
            if not getattr(e, "transient", False) \
                    or attempt >= policy.max_retries:
                e.attempts = attempt + 1
                raise
            delay = policy.delay_for(attempt, rng)
            if on_retry is not None:
                on_retry(e, attempt, delay)
            sleep(delay)
            attempt += 1


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_main(conn, fn: Callable[[Any], Any], heartbeat,
                 interval: float) -> None:
    """Worker-process loop: recv task → run → send outcome, forever.

    A daemon thread refreshes *heartbeat* (a shared double holding
    ``time.monotonic()``) every *interval* seconds so the supervisor
    can tell a busy worker from a wedged one.
    """
    stop = threading.Event()
    _WORKER_STATE["in_worker"] = True
    _WORKER_STATE["stop_heartbeat"] = stop

    def _beat():
        while not stop.wait(interval):
            heartbeat.value = time.monotonic()

    heartbeat.value = time.monotonic()
    threading.Thread(target=_beat, daemon=True,
                     name="repro-heartbeat").start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            index, _attempt, item = msg
            try:
                value = fn(item)
                reply = (index, "ok", value, None)
            except BaseException as exc:  # pragma: allow - process boundary:
                # nothing may escape a worker unreported; everything is
                # sent as a record and re-typed on the supervisor side
                error = exc if isinstance(exc, ReproError) else \
                    ExecutionError(f"{type(exc).__name__}: {exc}")
                reply = (index, "error", None, error.to_record())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # supervisor went away
                break
    finally:
        stop.set()
        conn.close()


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("proc", "conn", "heartbeat", "busy", "dispatched_at")

    def __init__(self, proc, conn, heartbeat):
        self.proc = proc
        self.conn = conn
        self.heartbeat = heartbeat
        self.busy: tuple[int, int] | None = None   # (index, attempt)
        self.dispatched_at = 0.0


def _mp_context():
    """``fork`` start method where available (monkeypatched test seams
    propagate to children); ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------

class SupervisedExecutor:
    """Run tasks under a :class:`~repro.resilience.ResiliencePolicy`.

    Parameters
    ----------
    policy:
        The resilience knobs (pool width, deadlines, retry budget,
        breaker thresholds).
    breaker_key:
        Maps a task key to its failure domain for the circuit breaker
        (e.g. profile path → parent directory).  Defaults to the key
        itself.
    clock / rng / sleep:
        Injectable monotonic clock, jitter RNG, and backoff sleep for
        deterministic tests.  The RNG defaults to ``random.Random(0)``
        so jittered backoff schedules are reproducible run to run.
    """

    def __init__(self, policy: ResiliencePolicy | None = None, *,
                 breaker_key: Callable[[str], str] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 rng=None, sleep: Callable[[float], None] | None = None):
        self.policy = policy or ResiliencePolicy()
        self.clock = clock
        self.rng = rng if rng is not None else random.Random(0)
        self.sleep = sleep if sleep is not None else time.sleep
        self.breaker_key = breaker_key or (lambda key: key)
        self.breaker = CircuitBreaker(
            threshold=self.policy.breaker_threshold,
            cooldown=self.policy.breaker_cooldown,
            clock=clock, on_trip=self._on_trip)

    def _on_trip(self, key: str) -> None:
        obs_counter("exec.breaker_trips")

    # -- public API -----------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            key: Callable[[Any], Any] | None = None) -> list[TaskOutcome]:
        """Run ``fn`` over *items*; returns outcomes in input order.

        ``str(key(item))`` labels each task for attribution (default:
        the item's index); the label also feeds ``breaker_key`` to pick
        each task's circuit-breaker domain.  Never raises for a task
        failure — every item yields a :class:`TaskOutcome`, failed ones
        carrying a typed :class:`~repro.errors.ReproError`.
        """
        items = list(items)
        keys = ([str(key(item)) for item in items] if key is not None
                else [str(i) for i in range(len(items))])
        if not items:
            return []
        with obs_span("exec.map", tasks=len(items),
                      jobs=self.policy.jobs) as s:
            obs_counter("exec.tasks", len(items))
            outcomes = self._map_pool(fn, items, keys)
            s.set("ok", sum(1 for o in outcomes if o.ok))
            s.set("failed", sum(1 for o in outcomes if not o.ok))
        outcomes.sort(key=lambda o: o.index)
        return outcomes

    # -- pool mode ------------------------------------------------------
    def _spawn_worker(self, ctx, fn) -> _Worker:
        heartbeat = ctx.Value("d", self.clock())
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, fn, heartbeat, _HEARTBEAT_INTERVAL),
            daemon=True, name="repro-worker")
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn, heartbeat)

    def _kill_worker(self, worker: _Worker) -> None:
        """Terminate a worker process and release its pipe."""
        try:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(0.5)
                if worker.proc.is_alive():  # SIGTERM ignored: escalate
                    worker.proc.kill()
                    worker.proc.join(0.5)
        finally:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _map_pool(self, fn, items, keys) -> list[TaskOutcome]:
        policy = self.policy
        ctx = _mp_context()
        n = len(items)
        jobs = min(policy.jobs, n) or 1
        # (not_before, index, attempt): retries re-enter with a backoff
        # not_before; dispatch always picks the lowest eligible index
        pending: list[tuple[float, int, int]] = [
            (0.0, i, 0) for i in range(n)]
        started: dict[int, float] = {}    # index -> first-dispatch stamp
        done: dict[int, TaskOutcome] = {}
        workers: list[_Worker] = []
        t0 = self.clock()
        try:
            while len(done) < n:
                now = self.clock()
                if policy.deadline is not None and now - t0 >= \
                        policy.deadline:
                    self._fail_remaining(pending, workers, done, keys,
                                         started, now)
                    break
                self._dispatch(ctx, fn, items, pending, workers, done,
                               keys, started, jobs, now)
                self._collect(pending, workers, done, keys, started, now)
                self._sweep(pending, workers, done, keys, started,
                            self.clock())
        finally:
            self._shutdown(workers)
        return list(done.values())

    def _dispatch(self, ctx, fn, items, pending, workers, done, keys,
                  started, jobs, now) -> None:
        """Assign eligible pending tasks to idle (spawning) workers."""
        while True:
            eligible = [t for t in pending if t[0] <= now]
            if not eligible:
                return
            not_before, index, attempt = min(eligible,
                                             key=lambda t: (t[1], t[2]))
            key = keys[index]
            bkey = self.breaker_key(key)
            if not self.breaker.allow(bkey):
                pending.remove((not_before, index, attempt))
                done[index] = self._breaker_outcome(index, key, bkey)
                continue
            idle = next((w for w in workers if w.busy is None), None)
            if idle is None:
                if len(workers) >= jobs:
                    return
                idle = self._spawn_worker(ctx, fn)
                workers.append(idle)
            try:
                idle.conn.send((index, attempt, items[index]))
            except (BrokenPipeError, OSError):
                # worker died before accepting work; replace and retry
                self._kill_worker(idle)
                workers.remove(idle)
                obs_counter("exec.workers_respawned")
                continue
            idle.busy = (index, attempt)
            idle.dispatched_at = now
            started.setdefault(index, now)
            pending.remove((not_before, index, attempt))

    def _collect(self, pending, workers, done, keys, started, now) -> None:
        """Wait briefly for results and fold them into ``done``."""
        busy = [w for w in workers if w.busy is not None]
        if not busy:
            if any(t[0] > now for t in pending):
                self.sleep(_TICK)  # all pending tasks backing off
            return
        conns = {w.conn: w for w in busy}
        try:
            ready = mp_connection.wait(list(conns), timeout=_TICK)
        except OSError:  # a pipe died mid-wait; the sweep will catch it
            ready = []
        for conn in ready:
            worker = conns[conn]
            try:
                index, status, value, record = conn.recv()
            except (EOFError, OSError):
                self._handle_worker_death(worker, workers, pending, done,
                                          keys, started, "crash")
                continue
            index_w, attempt = worker.busy
            worker.busy = None
            if index != index_w:  # pragma: no cover - protocol guard
                continue
            key = keys[index]
            seconds = self.clock() - started.get(index,
                                                 worker.dispatched_at)
            if status == "ok":
                self.breaker.record_success(self.breaker_key(key))
                obs_counter("exec.ok")
                done[index] = TaskOutcome(index, key, "ok", value=value,
                                          attempts=attempt + 1,
                                          seconds=seconds)
                continue
            error = from_record(record, fallback=ExecutionError)
            self._retry_or_fail(pending, done, index, attempt, key,
                                "error", error, seconds)

    def _sweep(self, pending, workers, done, keys, started, now) -> None:
        """Liveness pass: kill overdue and dead/stopped-beating workers."""
        for worker in list(workers):
            if worker.busy is None:
                if not worker.proc.is_alive():
                    workers.remove(worker)
                    self._kill_worker(worker)
                continue
            if not worker.proc.is_alive():
                self._handle_worker_death(worker, workers, pending, done,
                                          keys, started, "crash")
                continue
            overdue = (self.policy.task_timeout is not None
                       and now - worker.dispatched_at
                       >= self.policy.task_timeout)
            stale = (now - worker.heartbeat.value
                     >= self.policy.heartbeat_grace)
            if overdue:
                self._handle_worker_death(worker, workers, pending, done,
                                          keys, started, "timeout")
            elif stale:
                obs_counter("exec.heartbeat_kills")
                self._handle_worker_death(worker, workers, pending, done,
                                          keys, started, "crash")

    def _handle_worker_death(self, worker, workers, pending, done, keys,
                             started, status) -> None:
        """Kill *worker*, attribute its in-flight task, maybe retry it."""
        index, attempt = worker.busy
        worker.busy = None
        self._kill_worker(worker)
        workers.remove(worker)
        obs_counter("exec.workers_respawned")
        key = keys[index]
        seconds = self.clock() - started.get(index, worker.dispatched_at)
        if status == "timeout":
            obs_counter("exec.timeouts")
            error: ReproError = TaskTimeoutError(
                f"task for {key} exceeded its "
                f"{self.policy.task_timeout}s deadline "
                f"(attempt {attempt + 1}); worker killed", source=key)
        else:
            obs_counter("exec.worker_crashes")
            error = WorkerCrashError(
                f"worker executing task for {key} died or stopped "
                f"heartbeating (attempt {attempt + 1})", source=key)
        self._retry_or_fail(pending, done, index, attempt, key, status,
                            error, seconds)

    def _retry_or_fail(self, pending, done, index: int, attempt: int,
                       key: str, status: str, error: ReproError,
                       seconds: float) -> None:
        """Re-queue a ``transient`` task error after its backoff, or
        fail the dispatch (timeout and crash errors are never
        transient)."""
        if getattr(error, "transient", False) \
                and attempt < self.policy.max_retries:
            obs_counter("exec.retries")
            delay = self.policy.delay_for(attempt, self.rng)
            pending.append((self.clock() + delay, index, attempt + 1))
            return
        self.breaker.record_failure(self.breaker_key(key))
        if status == "error":
            obs_counter("exec.errors")
        done[index] = TaskOutcome(index, key, status, error=error,
                                  attempts=attempt + 1, seconds=seconds)

    def _fail_remaining(self, pending, workers, done, keys, started,
                        now) -> None:
        """Run deadline blown: quarantine everything still outstanding."""
        for _not_before, index, attempt in pending:
            done[index] = self._deadline_outcome(index, keys[index],
                                                 attempts=attempt + 1)
        pending.clear()
        for worker in list(workers):
            if worker.busy is None:
                continue
            index, attempt = worker.busy
            worker.busy = None
            self._kill_worker(worker)
            workers.remove(worker)
            done[index] = self._deadline_outcome(
                index, keys[index], attempts=attempt + 1,
                seconds=now - started.get(index, worker.dispatched_at))

    def _shutdown(self, workers) -> None:
        """Reap every worker: polite sentinel first, then terminate."""
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.proc.join(0.2)
            self._kill_worker(worker)
        workers.clear()

    # -- outcome helpers ------------------------------------------------
    def _breaker_outcome(self, index, key, bkey) -> TaskOutcome:
        obs_counter("exec.breaker_fast_fails")
        return TaskOutcome(
            index, key, "breaker_open",
            error=CircuitOpenError(
                f"circuit breaker open for {bkey}; task for {key} "
                f"failed fast without dispatch", source=key))

    def _deadline_outcome(self, index, key, attempts: int = 1,
                          seconds: float = 0.0) -> TaskOutcome:
        obs_counter("exec.deadline_failures")
        return TaskOutcome(
            index, key, "deadline",
            error=DeadlineExceededError(
                f"run deadline of {self.policy.deadline}s exhausted "
                f"before task for {key} completed", source=key),
            attempts=attempts, seconds=seconds)
