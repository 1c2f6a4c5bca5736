"""Memory-pressure graceful degradation: shed *before* the OOM killer.

A long-lived analysis daemon caching thickets will eventually meet a
request mix that outgrows the host.  The kernel's answer (SIGKILL) is
not graceful; this module's answer is a watermark state machine driven
by the process's resident set size (:func:`read_rss_bytes`):

``ok``
    RSS below the soft watermark.  Full service.
``degraded``
    RSS crossed the soft watermark.  The query-result cache is
    evicted, stats endpoints switch to cheap approximate summaries,
    and new ingests are refused — the memory-hungry paths stop
    growing while reads keep flowing.
``shedding``
    RSS crossed the hard watermark.  All caches (including loaded
    thickets) are dropped, ``gc`` runs, and work endpoints shed with
    typed 503s until RSS recovers.  ``/readyz`` reports 503 so a load
    balancer stops routing here.

Transitions are hysteretic (recovery requires dropping below
``recovery_fraction`` of the watermark) so a process hovering at a
boundary does not flap.  The RSS reader and clock are injectable, so
every transition is deterministically testable — and chaos tests can
stage a memory ballast by scripting the reader.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import time
from typing import Callable

from ..obs import counter as obs_counter
from ..obs import gauge as obs_gauge

__all__ = ["PressureGovernor", "read_rss_bytes", "STATE_OK",
           "STATE_DEGRADED", "STATE_SHEDDING", "STATE_ORDER"]

STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_SHEDDING = "shedding"

#: severity order, also the value of the ``serve.pressure.state`` gauge
STATE_ORDER = {STATE_OK: 0, STATE_DEGRADED: 1, STATE_SHEDDING: 2}

_HISTORY_CAP = 256

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> float:
    """Current resident set size in bytes (best effort, stdlib only)."""
    try:
        with open("/proc/self/statm") as fh:
            return float(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        # ru_maxrss is KiB on Linux, bytes on macOS; both are close
        # enough for a trend line on the platforms that land here.
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     * 1024)


class PressureGovernor:
    """RSS-watermark state machine (ok → degraded → shedding).

    Parameters
    ----------
    soft_limit_bytes / hard_limit_bytes:
        The two watermarks; ``soft < hard`` is required.
    recovery_fraction:
        Hysteresis: leaving a state requires RSS below
        ``fraction * watermark`` (default 0.9).
    interval:
        Background sampling period in seconds.
    rss_reader / clock:
        Injectable seams (default :func:`read_rss_bytes` and
        ``time.monotonic``).
    on_transition:
        Callback ``on_transition(old_state, new_state, rss)`` fired
        (outside the state lock) on every transition — the service
        hooks cache eviction here.
    """

    def __init__(self, soft_limit_bytes: float, hard_limit_bytes: float, *,
                 recovery_fraction: float = 0.9, interval: float = 0.25,
                 rss_reader: Callable[[], float] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, str, float], None]
                 | None = None):
        if not 0 < soft_limit_bytes < hard_limit_bytes:
            raise ValueError(
                f"watermarks must satisfy 0 < soft < hard, got "
                f"soft={soft_limit_bytes} hard={hard_limit_bytes}")
        if not 0.0 < recovery_fraction <= 1.0:
            raise ValueError(
                f"recovery_fraction {recovery_fraction} outside (0, 1]")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.soft = float(soft_limit_bytes)
        self.hard = float(hard_limit_bytes)
        self.recovery_fraction = float(recovery_fraction)
        self.interval = float(interval)
        self._rss_reader = rss_reader or read_rss_bytes
        self.clock = clock
        self.on_transition = on_transition
        self._state = STATE_OK
        self.last_rss = 0.0
        self.history: list[tuple[float, str, str, float]] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> str:
        """Current pressure state name."""
        with self._lock:
            return self._state

    def at_least(self, state: str) -> bool:
        """True when current pressure is *state* or worse."""
        with self._lock:
            return STATE_ORDER[self._state] >= STATE_ORDER[state]

    def to_dict(self) -> dict:
        """JSON-ready snapshot for ``/readyz``."""
        with self._lock:
            return {
                "state": self._state,
                "rss_bytes": self.last_rss,
                "soft_limit_bytes": self.soft,
                "hard_limit_bytes": self.hard,
                "transitions": len(self.history),
            }

    # -- sampling ------------------------------------------------------
    def update(self, rss: float | None = None) -> str:
        """Take one sample (or use *rss*) and apply transitions.

        Public so tests — and the serving loop — can drive the state
        machine deterministically; returns the state after the sample.
        """
        if rss is None:
            rss = float(self._rss_reader())
        with self._lock:
            old = self._state
            new = self._next_state(old, rss)
            self.last_rss = rss
            transitioned = new != old
            if transitioned:
                self._state = new
                self.history.append((self.clock(), old, new, rss))
                del self.history[:-_HISTORY_CAP]
        if transitioned:
            obs_counter("serve.pressure.transitions")
            if self.on_transition is not None:
                self.on_transition(old, new, rss)
        obs_gauge("serve.pressure.state", float(STATE_ORDER[self.state]))
        obs_gauge("serve.pressure.rss_bytes", float(rss))
        return self.state

    def _next_state(self, state: str, rss: float) -> str:
        if rss >= self.hard:
            return STATE_SHEDDING
        if state == STATE_SHEDDING:
            # recover only with hysteresis margin below the watermark
            if rss < self.hard * self.recovery_fraction:
                return STATE_DEGRADED if rss >= self.soft else STATE_OK
            return STATE_SHEDDING
        if rss >= self.soft:
            return STATE_DEGRADED
        if state == STATE_DEGRADED \
                and rss >= self.soft * self.recovery_fraction:
            return STATE_DEGRADED
        return STATE_OK

    @staticmethod
    def collect_garbage() -> int:
        """Run a full GC pass (used when entering ``shedding``)."""
        return gc.collect()

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the background sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "PressureGovernor":
        """Launch the daemon sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self.update()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-pressure", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "PressureGovernor":
        """Stop the sampling thread."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.update()

    def __enter__(self) -> "PressureGovernor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
