"""Circuit breaker: convert retry storms into fast, attributed failures.

When a whole source directory goes away (an unmounted filesystem, a
dead NFS export), every profile under it fails the same way; without a
breaker the supervisor would burn its full retry-and-timeout budget on
each of hundreds of doomed tasks.  The :class:`CircuitBreaker` tracks
failures per *key* (the caller chooses the failure domain — for
ingestion, the profile's parent directory) and walks the classic state
machine:

``closed``
    Normal operation.  ``breaker_threshold`` consecutive failures for
    a key trip that key's breaker to ``open``.
``open``
    Every :meth:`allow` for the key answers ``False`` — callers fail
    the task fast with :class:`~repro.errors.CircuitOpenError` instead
    of dispatching it — until ``cooldown`` seconds have passed.
``half_open``
    After the cooldown one probe task is let through.  Success closes
    the breaker (and resets the failure count); failure re-opens it
    for another full cooldown.

The clock is injectable so every transition is unit-testable without
sleeping.

All state transitions happen under one internal lock, so the breaker
may be shared by concurrent callers (the analysis server keys it by
client id and hits it from every handler thread): in particular,
exactly **one** concurrent :meth:`~CircuitBreaker.allow` caller wins
the half-open probe — the check-and-set of ``probe_in_flight`` is
atomic, never a lost update between racing threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker", "BreakerState",
           "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerState:
    """Mutable per-key breaker bookkeeping (one failure domain)."""

    __slots__ = ("state", "consecutive_failures", "opened_at",
                 "probe_in_flight", "trips")

    def __init__(self):
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.trips = 0


class CircuitBreaker:
    """Per-key closed → open → half-open circuit breaker.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip a key's breaker.  ``0``
        disables the breaker entirely (``allow`` is always ``True``).
    cooldown:
        Seconds an open breaker waits before admitting a half-open
        probe.
    clock:
        Injectable monotonic clock (testing); defaults to
        :func:`time.monotonic`.
    on_trip:
        Optional callback ``on_trip(key)`` fired on each closed→open
        (or half-open→open) transition, used by the executor to bump
        the ``exec.breaker_trips`` counter.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_trip: Callable[[str], None] | None = None):
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.on_trip = on_trip
        self._lock = threading.Lock()
        self._keys: dict[str, BreakerState] = {}

    # -- state inspection ----------------------------------------------
    def state(self, key: str) -> str:
        """Current state name for *key* (``closed`` when never seen).

        Reflects cooldown expiry: an ``open`` breaker whose cooldown
        has elapsed reports ``half_open``.
        """
        with self._lock:
            ks = self._keys.get(key)
            if ks is None:
                return CLOSED
            if ks.state == OPEN and \
                    self.clock() - ks.opened_at >= self.cooldown:
                return HALF_OPEN
            return ks.state

    @property
    def trips(self) -> int:
        """Total number of trips (closed/half-open → open) so far."""
        with self._lock:
            return sum(ks.trips for ks in self._keys.values())

    def retry_after(self, key: str) -> float:
        """Seconds until an open *key* would admit its half-open probe
        (0.0 when the key is closed or already probe-eligible)."""
        with self._lock:
            ks = self._keys.get(key)
            if ks is None or ks.state != OPEN:
                return 0.0
            return max(0.0, self.cooldown - (self.clock() - ks.opened_at))

    # -- the protocol ---------------------------------------------------
    def allow(self, key: str) -> bool:
        """May a task for *key* be dispatched right now?

        ``False`` while the breaker is open and cooling down.  The
        first call after the cooldown admits exactly one half-open
        probe; further calls answer ``False`` until that probe's
        outcome is recorded.
        """
        if self.threshold == 0:
            return True
        with self._lock:
            ks = self._keys.get(key)
            if ks is None or ks.state == CLOSED:
                return True
            now = self.clock()
            if ks.state == OPEN:
                if now - ks.opened_at < self.cooldown:
                    return False
                ks.state = HALF_OPEN
                ks.probe_in_flight = False
            if ks.state == HALF_OPEN:
                if ks.probe_in_flight:
                    return False
                ks.probe_in_flight = True
                return True
            return True  # pragma: no cover - states are exhaustive

    def record_success(self, key: str) -> None:
        """Record a successful task for *key*; closes a half-open breaker."""
        if self.threshold == 0:
            return
        with self._lock:
            ks = self._keys.get(key)
            if ks is None:
                return
            ks.consecutive_failures = 0
            ks.probe_in_flight = False
            ks.state = CLOSED

    def record_failure(self, key: str) -> bool:
        """Record a failed task for *key*; returns True when this
        failure tripped the breaker (closed/half-open → open)."""
        if self.threshold == 0:
            return False
        with self._lock:
            ks = self._keys.setdefault(key, BreakerState())
            ks.consecutive_failures += 1
            was_half_open = ks.state == HALF_OPEN or (
                ks.state == OPEN
                and self.clock() - ks.opened_at >= self.cooldown)
            if ks.state == CLOSED and \
                    ks.consecutive_failures < self.threshold:
                return False
            if ks.state == OPEN and not was_half_open:
                return False  # already open, still cooling down
            ks.state = OPEN
            ks.opened_at = self.clock()
            ks.probe_in_flight = False
            ks.trips += 1
        # fire the callback outside the lock: it may take other locks
        # (the metrics registry) and must not be able to deadlock us
        if self.on_trip is not None:
            self.on_trip(key)
        return True
