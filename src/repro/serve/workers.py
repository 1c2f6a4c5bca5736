"""Supervised request execution: a bounded pool that survives hangs.

The analysis service runs every request body on a fixed pool of worker
threads fed by a bounded queue, mirroring the semantics of
:class:`repro.resilience.SupervisedExecutor` inside one process:

* **Bounded queueing** — ``submit`` never blocks; a full queue raises
  :class:`~repro.errors.OverloadedError` so the admission layer sheds
  instead of building an invisible backlog.
* **Per-request deadlines** — the *waiter* enforces the deadline
  (``run(..., timeout=)``): when it expires the request fails fast
  with :class:`~repro.errors.RequestTimeoutError` and the work item is
  marked abandoned; a straggler result arriving later is discarded,
  never written to a socket that moved on.
* **Watchdog supervision** — threads cannot be killed, so a hung
  worker is *replaced*: a watchdog thread detects a worker stuck past
  ``task_timeout + grace``, retires it (it exits as soon as the hang
  resolves, taking no further work), attributes the stuck request,
  and spawns a fresh worker so pool capacity is restored.  The
  replacement count is exported as ``serve.workers.replaced``.

Exceptions raised by request bodies are captured and re-raised in the
waiter, so typed errors cross the pool boundary intact.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Callable

from ..errors import OverloadedError, RequestTimeoutError
from ..obs import counter as obs_counter
from ..obs import gauge as obs_gauge

__all__ = ["WorkerPool", "WorkItem"]


class WorkItem:
    """One queued request body: callable, completion event, outcome.

    ``deadline`` is the absolute monotonic instant the request stops
    being worth executing; a worker that dequeues an already-expired
    item fails it immediately instead of wasting pool capacity on a
    result nobody is waiting for.
    """

    __slots__ = ("fn", "args", "label", "done", "result", "error",
                 "abandoned", "started_at", "deadline")

    def __init__(self, fn: Callable[..., Any], args: tuple, label: str,
                 deadline: float | None = None):
        self.fn = fn
        self.args = args
        self.label = label
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.abandoned = False
        self.started_at: float | None = None
        self.deadline = deadline


class _Worker:
    """Bookkeeping for one pool thread (heartbeat + current item)."""

    __slots__ = ("name", "thread", "item", "busy_since", "retired")

    def __init__(self, name: str):
        self.name = name
        self.thread: threading.Thread | None = None
        self.item: WorkItem | None = None
        self.busy_since: float | None = None
        self.retired = False


class WorkerPool:
    """Fixed worker-thread pool with a bounded queue and a watchdog.

    Parameters
    ----------
    workers:
        Pool width (concurrent request bodies).
    queue_limit:
        Maximum queued-but-not-running items; ``submit`` sheds beyond
        it.
    task_timeout:
        Per-item wall budget the *watchdog* uses to declare a worker
        stuck (the waiter's ``run(timeout=)`` usually fires first).
    grace:
        Extra seconds past ``task_timeout`` before replacement.
    watchdog_interval:
        Watchdog wake period in seconds.
    clock:
        Injectable monotonic clock.
    """

    def __init__(self, workers: int = 4, queue_limit: int = 16, *,
                 task_timeout: float = 30.0, grace: float = 1.0,
                 watchdog_interval: float = 0.25,
                 clock: Callable[[], float] = time.monotonic):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if task_timeout <= 0 or grace < 0 or watchdog_interval <= 0:
            raise ValueError("task_timeout/watchdog_interval must be "
                             "positive and grace must be >= 0")
        self.task_timeout = float(task_timeout)
        self.grace = float(grace)
        self.watchdog_interval = float(watchdog_interval)
        self.clock = clock
        self.queue_limit = queue_limit
        self._queue: "queue.Queue[WorkItem]" = queue.Queue(
            maxsize=queue_limit)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._ids = itertools.count(1)
        self._workers: list[_Worker] = []
        self.replaced = 0
        for _ in range(workers):
            self._spawn()
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-serve-watchdog", daemon=True)
        self._watchdog.start()

    # -- workers -------------------------------------------------------
    def _spawn(self) -> None:
        w = _Worker(f"repro-serve-worker-{next(self._ids)}")
        w.thread = threading.Thread(
            target=self._worker_loop, args=(w,), name=w.name, daemon=True)
        with self._lock:
            self._workers.append(w)
        w.thread.start()

    def _worker_loop(self, w: _Worker) -> None:
        while not self._stop.is_set() and not w.retired:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if item.deadline is not None \
                    and self.clock() >= item.deadline:
                # expired while queued: the waiter (or the remote
                # client) has already given up — fail fast instead of
                # burning a worker on unwanted output
                with self._lock:
                    stale = item.abandoned
                    if not stale:
                        item.error = RequestTimeoutError(
                            f"request {item.label!r} expired while "
                            f"queued", source=item.label)
                if not stale:
                    obs_counter("serve.timeouts.queued")
                    item.done.set()
                continue
            with self._lock:
                w.item = item
                w.busy_since = self.clock()
                item.started_at = w.busy_since
            try:
                result = item.fn(*item.args)
                error: BaseException | None = None
            except BaseException as exc:  # pragma: pool boundary — the
                # exception is transported to the waiting request
                # thread and re-raised there, never swallowed
                result, error = None, exc
            with self._lock:
                w.item = None
                w.busy_since = None
                stale = item.abandoned
                if not stale:
                    item.result = result
                    item.error = error
            if not stale:
                item.done.set()

    def _watch(self) -> None:
        budget = self.task_timeout + self.grace
        while not self._stop.wait(self.watchdog_interval):
            stuck: list[_Worker] = []
            with self._lock:
                now = self.clock()
                for w in self._workers:
                    if (not w.retired and w.busy_since is not None
                            and now - w.busy_since > budget):
                        w.retired = True
                        stuck.append(w)
                for w in stuck:
                    self._workers.remove(w)
            for w in stuck:
                item = w.item
                if item is not None:
                    with self._lock:
                        item.abandoned = True
                        item.error = RequestTimeoutError(
                            f"request {item.label!r} stuck for more than "
                            f"{budget:g}s; worker {w.name} replaced",
                            source=item.label)
                    item.done.set()
                self.replaced += 1
                obs_counter("serve.workers.replaced")
                self._spawn()

    # -- the protocol ---------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any,
               label: str = "task",
               deadline: float | None = None) -> WorkItem:
        """Enqueue one request body; sheds when the queue is full.

        *deadline* (absolute, on the pool clock) lets a worker skip the
        item if it expires before being picked up.
        """
        item = WorkItem(fn, args, label, deadline)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            obs_counter("serve.shed.queue_full")
            raise OverloadedError(
                f"worker queue full ({self.queue_limit} pending)",
                reason="queue_full", retry_after=1.0,
                source=label) from None
        obs_gauge("serve.queue.depth", float(self._queue.qsize()))
        return item

    def run(self, fn: Callable[..., Any], *args: Any,
            timeout: float | None = None, label: str = "task") -> Any:
        """Submit and wait up to *timeout* seconds for the outcome.

        Raises :class:`~repro.errors.RequestTimeoutError` when the
        deadline passes (marking the item abandoned so a late result
        is discarded) and re-raises whatever the request body raised.
        """
        deadline = None if timeout is None else self.clock() + timeout
        item = self.submit(fn, *args, label=label, deadline=deadline)
        if not item.done.wait(timeout):
            with self._lock:
                timed_out = not item.done.is_set()
                if timed_out:
                    item.abandoned = True
            if timed_out:
                obs_counter("serve.timeouts")
                raise RequestTimeoutError(
                    f"request {label!r} exceeded its {timeout:g}s "
                    f"deadline", source=label)
        if item.error is not None:
            raise item.error
        return item.result

    # -- lifecycle -----------------------------------------------------
    @property
    def inflight(self) -> int:
        """Items queued or running: the count the queue bounds."""
        with self._lock:
            running = sum(w.item is not None for w in self._workers)
        return self._queue.qsize() + running

    @property
    def idle(self) -> bool:
        """True when no item is queued or running."""
        return self.inflight == 0

    def drain(self, deadline: float = 10.0) -> bool:
        """Wait up to *deadline* seconds for in-flight work to finish.

        New submissions are the caller's job to stop first.  Returns
        True when the pool went idle inside the deadline.
        """
        give_up = self.clock() + deadline
        pause = threading.Event()  # never set: used as a sleep seam
        while self.clock() < give_up:
            if self.idle:
                return True
            pause.wait(min(0.05, self.watchdog_interval))
        return self.idle

    def shutdown(self) -> None:
        """Stop workers and the watchdog (queued items are dropped)."""
        self._stop.set()
        with self._lock:
            workers = list(self._workers)
        for w in workers:
            if w.thread is not None and \
                    w.thread is not threading.current_thread():
                w.thread.join(timeout=1.0)
        if self._watchdog is not threading.current_thread():
            self._watchdog.join(timeout=1.0)
