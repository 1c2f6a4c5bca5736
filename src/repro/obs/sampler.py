"""Background-thread sampling profiler with call-path aggregation.

Spans (``obs.core``) measure what the library *chose* to instrument; a
sampling profiler measures where the interpreter actually spends its
time, instrumented or not.  :class:`SamplingProfiler` wakes a daemon
thread at a configurable rate, snapshots every live thread's Python
stack via ``sys._current_frames()``, and folds each stack into an
aggregated ``(thread, call path) → sample count`` table.  The result
exports as collapsed stacks (``thread;frame;...;frame count`` lines),
the input format of flamegraph.pl and inferno, which speedscope.app
also opens.

Design constraints mirror the tracing core: standard library only, an
injectable clock (RPR004) so tests drive deterministic timestamps, and
pacing via ``threading.Event.wait`` — interruptible, so ``stop()``
returns promptly instead of sleeping out the interval.  The sampler
never takes locks shared with the sampled code (it only reads frames),
so it cannot deadlock the threads it observes; worker *processes*
(e.g. ``resilience.SupervisedExecutor`` pools) are invisible to
``sys._current_frames()`` and therefore can never be mis-attributed to
the supervisor.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from ..ioutil import atomic_write_text

__all__ = [
    "SamplingProfiler",
    "StackSample",
    "collapsed_stacks",
]

_MAX_STACK_DEPTH = 200


def _frame_label(frame) -> str:
    """``file.py:function`` label for one frame (stable, ';'-free)."""
    code = frame.f_code
    name = Path(code.co_filename).name or "?"
    return f"{name}:{code.co_name}".replace(";", ",")


def _stack_of(frame) -> tuple[str, ...]:
    """Root→leaf label tuple for *frame*'s call stack, depth-capped."""
    labels: list[str] = []
    while frame is not None and len(labels) < _MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    return tuple(reversed(labels))


class StackSample:
    """Aggregated samples for one thread: ``stack tuple → count``."""

    __slots__ = ("tid", "thread_name", "count", "stacks")

    def __init__(self, tid: int, thread_name: str):
        self.tid = tid
        self.thread_name = thread_name
        self.count = 0
        self.stacks: dict[tuple[str, ...], int] = {}

    def add(self, stack: tuple[str, ...]) -> None:
        self.count += 1
        self.stacks[stack] = self.stacks.get(stack, 0) + 1

    def __repr__(self) -> str:
        return (f"StackSample(tid={self.tid}, "
                f"thread={self.thread_name!r}, samples={self.count})")


class SamplingProfiler:
    """Periodic whole-process Python stack sampler.

    Parameters
    ----------
    hz:
        Target sampling rate in samples per second (default 100).
    clock:
        Injectable monotonic clock (default ``time.perf_counter``);
        timestamps sample ticks and measures sampler overhead.
    include_idle:
        Sample threads other than the ones that called ``start()``
        (default True — every live thread of this process).

    Use as a context manager or with explicit ``start()``/``stop()``::

        prof = SamplingProfiler(hz=100)
        with prof:
            run_workload()
        print(prof.collapsed())

    ``sample_once()`` is public so tests (and low-rate callers) can
    take deterministic samples without the background thread.
    """

    def __init__(self, hz: float = 100.0, *,
                 clock: Callable[[], float] | None = None,
                 include_idle: bool = True):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        self.include_idle = include_idle
        self._clock = clock or time.perf_counter
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._samples: dict[int, StackSample] = {}
        self.n_ticks = 0
        self.overhead_seconds = 0.0
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the background sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Launch the daemon sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Signal the sampling thread and join it (idempotent)."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None
        if self.stopped_at is None and self.started_at is not None:
            self.stopped_at = self._clock()
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run(self) -> None:
        # Event.wait paces the loop: interruptible (stop() returns
        # promptly) and drift-corrected against the injected clock.
        next_tick = self._clock() + self.interval
        while not self._stop_event.wait(
                max(0.0, next_tick - self._clock())):
            self.sample_once()
            next_tick += self.interval
            now = self._clock()
            if next_tick < now:  # fell behind; skip missed ticks
                next_tick = now + self.interval

    # -- sampling ------------------------------------------------------
    def sample_once(self) -> int:
        """Snapshot every live thread's stack once; returns the number
        of threads sampled.  Safe to call without ``start()``."""
        t0 = self._clock()
        sampler_tid = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        n = 0
        try:
            with self._lock:
                self.n_ticks += 1
                for tid, frame in frames.items():
                    if tid == sampler_tid:
                        continue  # never profile the profiler
                    if not self.include_idle and tid not in names:
                        continue
                    sample = self._samples.get(tid)
                    if sample is None:
                        sample = self._samples[tid] = StackSample(
                            tid, names.get(tid, f"thread-{tid}"))
                    sample.add(_stack_of(frame))
                    n += 1
        finally:
            del frames  # drop frame references promptly
        self.overhead_seconds += self._clock() - t0
        return n

    # -- results -------------------------------------------------------
    def samples(self) -> list[StackSample]:
        """Per-thread aggregated samples, ordered by thread id."""
        with self._lock:
            return [self._samples[tid] for tid in sorted(self._samples)]

    @property
    def total_samples(self) -> int:
        """Total stack snapshots across every sampled thread."""
        with self._lock:
            return sum(s.count for s in self._samples.values())

    def collapsed(self) -> str:
        """Collapsed-stack (flamegraph.pl) text for all threads."""
        return collapsed_stacks(self.samples())

    def write_collapsed(self, path: "str | Path") -> Path:
        """Atomically write the collapsed-stack text to *path*."""
        return atomic_write_text(Path(path), self.collapsed())

    def __repr__(self) -> str:
        return (f"SamplingProfiler(hz={self.hz:g}, "
                f"running={self.running}, ticks={self.n_ticks}, "
                f"threads={len(self._samples)})")


# ----------------------------------------------------------------------
# collapsed-stack format
# ----------------------------------------------------------------------

def collapsed_stacks(samples: Sequence[StackSample]) -> str:
    """Render samples as ``thread;frame;...;frame count`` lines.

    The first path element names the thread, so one file holds every
    thread's flamegraph without collisions.  Lines are sorted for
    deterministic output.
    """
    lines = []
    for sample in samples:
        head = f"thread ({sample.thread_name})".replace(";", ",")
        for stack, count in sample.stacks.items():
            path = ";".join((head,) + stack) if stack else head
            lines.append(f"{path} {count}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")
