"""``TokenBucket`` — the one token bucket, metering load at both ends.

The server's admission controller sheds requests with it, and the
client's retry budget spends one token per retry or hedged backup
request, so a sustained outage drains the bucket and further failures
surface as typed errors instead of a retry storm.  The clock is
injectable so refill is unit-testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

__all__ = ["TokenBucket"]


class TokenBucket:
    """Thread-safe token bucket: *rate* tokens/second, *burst* capacity.

    ``try_acquire`` never blocks: it either consumes the tokens and
    returns ``0.0``, or returns the (positive) number of seconds until
    the deficit refills, which becomes the shed's ``Retry-After``.  A
    ``rate`` of ``0`` never refills: the bucket is a fixed allowance of
    *burst* tokens, and an empty one answers ``math.inf``.
    """

    def __init__(self, rate: float, burst: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self.clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self.clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Consume *tokens* if available; 0.0 on success, else the
        seconds until the deficit refills."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            deficit = tokens - self._tokens
        return deficit / self.rate if self.rate else math.inf

    @property
    def available(self) -> float:
        """Tokens available right now (refilled view, consumes none)."""
        with self._lock:
            self._refill()
            return self._tokens
