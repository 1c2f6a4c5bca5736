"""Admission control: decide *before* doing work whether work may enter.

An interactive analysis service dies one of two ways under load: it
queues unboundedly until the OOM killer arrives, or it thrashes until
every request times out.  Admission control converts both into fast,
typed sheds.  Two independent gates sit in front of every work
endpoint, evaluated in order:

1. **Per-client circuit breaker** — request outcomes are recorded per
   client key into one shared
   :class:`~repro.resilience.CircuitBreaker`; a client whose requests
   keep failing (bad queries, timeouts) trips *its own* breaker and
   gets fast 429s for the cooldown, without starving other callers.
2. **Token-bucket rate limiter** — a global requests-per-second cap
   with a burst allowance (:class:`~repro.resilience.TokenBucket`); an
   empty bucket sheds with the exact ``Retry-After`` at which the next
   token arrives.  ``rate=0`` builds no bucket: no rate limit.

Work that passes both gates is bounded by the worker pool
(:class:`~repro.serve.workers.WorkerPool`): at most ``workers``
running plus ``queue_limit`` queued, and a full queue sheds with
``queue_full``.

Every shed raises :class:`~repro.errors.OverloadedError` (HTTP 429)
carrying a machine-readable ``reason`` and a ``retry_after`` estimate;
nothing ever waits in line silently.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from ..errors import OverloadedError
from ..obs import counter as obs_counter
from ..resilience import CircuitBreaker, TokenBucket

__all__ = ["AdmissionController"]


class AdmissionController:
    """The gate in front of every work endpoint.

    Parameters
    ----------
    rate / burst:
        Token-bucket requests-per-second and burst capacity
        (``rate=0`` disables rate limiting).
    breaker_threshold / breaker_cooldown:
        Per-client circuit breaker knobs (``threshold=0`` disables).
    clock:
        Injectable monotonic clock shared by both gates.
    """

    def __init__(self, *, rate: float = 0.0, burst: float | None = None,
                 breaker_threshold: int = 10, breaker_cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.bucket = TokenBucket(rate, burst, clock=clock) if rate \
            else None
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown,
            clock=clock,
            on_trip=lambda key: obs_counter("serve.breaker.trips"))

    def admit(self, client: str) -> None:
        """Admit one request for *client* or shed it.

        Raises :class:`~repro.errors.OverloadedError` naming the gate
        that shed and when to retry.  The caller records the outcome
        on :attr:`breaker`.
        """
        if not self.breaker.allow(client):
            retry = self.breaker.retry_after(client) or 1.0
            obs_counter("serve.shed.circuit_open")
            raise OverloadedError(
                f"circuit breaker open for client {client!r}",
                reason="circuit_open", retry_after=retry, source=client)
        wait = 0.0 if self.bucket is None else self.bucket.try_acquire()
        if wait > 0.0:
            obs_counter("serve.shed.rate_limited")
            raise OverloadedError(
                f"rate limit exceeded ({self.bucket.rate:g} req/s)",
                reason="rate_limited",
                retry_after=math.ceil(wait * 100) / 100, source=client)
