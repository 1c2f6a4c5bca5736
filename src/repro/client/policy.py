"""``ClientPolicy`` — every resilience knob of the client in one object.

The client-side mirror of :class:`repro.resilience.ResiliencePolicy`:
one frozen, validated dataclass threaded through
:class:`~repro.client.ReproClient` instead of a drifting pile of
keyword arguments.  The policy says how long one attempt may take
(``attempt_timeout``), how much wall clock a whole call may spend
(``call_timeout``), how failures are retried (``max_attempts`` /
``backoff`` / ``backoff_jitter`` governed by the token-bucket retry
budget), when hedged backup requests launch for idempotent reads
(``hedge``/``hedge_delay``), and when a failing host trips its circuit
breaker (``breaker_threshold``/``breaker_cooldown``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..resilience import backoff_delay

__all__ = ["ClientPolicy", "DEFAULT_CLIENT_POLICY"]

#: HTTP statuses the retry loop may spend budget on; everything else in
#: the 4xx range is the caller's bug and is surfaced immediately.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class ClientPolicy:
    """Resilience knobs for one :class:`~repro.client.ReproClient`.

    Parameters
    ----------
    connect_timeout:
        Seconds to wait for the TCP connect of one attempt.
    attempt_timeout:
        Socket read budget for one attempt; the effective per-attempt
        timeout is ``min(attempt_timeout, remaining deadline)``.
    call_timeout:
        Default wall-clock budget for one logical call (retries and
        hedges included).  A per-call ``deadline=`` overrides it.
    session_deadline:
        Optional whole-client wall budget: once a client instance has
        spent this many seconds across all calls, further calls fail
        fast with :class:`~repro.errors.ClientDeadlineError`.
    max_attempts:
        Total tries for one call (first attempt + retries).
    backoff / backoff_jitter:
        Jittered exponential backoff between retries
        (:func:`repro.resilience.backoff_delay`).
    retry_budget_rate / retry_budget_capacity:
        Token bucket governing *all* retries this client launches:
        each retry spends one token, tokens refill at ``rate`` per
        second up to ``capacity``.  An empty bucket raises
        :class:`~repro.errors.RetryBudgetExhaustedError` instead of
        retrying — a fleet of clients cannot amplify an outage into a
        retry storm.  ``rate=0`` freezes the bucket at its initial
        capacity (a fixed total retry allowance).
    honor_retry_after / retry_after_cap:
        Obey the server's ``Retry-After`` hint (capped at
        ``retry_after_cap`` seconds) when it exceeds the computed
        backoff delay.
    hedge:
        Enable hedged backup requests for idempotent GETs: when the
        primary attempt is still unanswered after the hedge delay, one
        backup is launched and the first response wins.
    hedge_delay:
        Seconds before launching the backup.  ``None`` derives the
        delay from the client's observed p95 GET latency (the
        tail-latency cure from "The Tail at Scale"), falling back to
        ``hedge_fallback_delay`` until ``hedge_min_samples`` latencies
        have been observed.
    hedge_fallback_delay / hedge_min_samples:
        The cold-start hedge delay, and how many successful GET
        latencies must be seen before switching to the p95.
    min_attempt_budget:
        Do not launch an attempt with less than this many seconds of
        deadline remaining — fail fast with
        :class:`~repro.errors.ClientDeadlineError` instead of a doomed
        round-trip.
    breaker_threshold / breaker_cooldown:
        Per-host circuit breaker: consecutive transport/5xx failures
        that trip it, and seconds it stays open
        (:class:`repro.resilience.CircuitBreaker` semantics;
        ``threshold=0`` disables).
    """

    connect_timeout: float = 5.0
    attempt_timeout: float = 30.0
    call_timeout: float = 60.0
    session_deadline: float | None = None
    max_attempts: int = 4
    backoff: float = 0.05
    backoff_jitter: float = 0.5
    retry_budget_rate: float = 2.0
    retry_budget_capacity: float = 10.0
    honor_retry_after: bool = True
    retry_after_cap: float = 10.0
    hedge: bool = True
    hedge_delay: float | None = None
    hedge_fallback_delay: float = 0.1
    hedge_min_samples: int = 8
    min_attempt_budget: float = 0.001
    breaker_threshold: int = 8
    breaker_cooldown: float = 10.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("connect_timeout", "attempt_timeout", "call_timeout",
                     "hedge_fallback_delay", "min_attempt_budget"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("backoff", "retry_budget_rate", "retry_after_cap",
                     "breaker_cooldown"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter {self.backoff_jitter} outside [0, 1]")
        if self.retry_budget_capacity < 1:
            raise ValueError(
                f"retry_budget_capacity must be >= 1, "
                f"got {self.retry_budget_capacity}")
        if self.session_deadline is not None and self.session_deadline <= 0:
            raise ValueError(
                f"session_deadline must be positive, "
                f"got {self.session_deadline}")
        if self.hedge_delay is not None and self.hedge_delay < 0:
            raise ValueError(
                f"hedge_delay must be >= 0, got {self.hedge_delay}")
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1, "
                f"got {self.hedge_min_samples}")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, "
                f"got {self.breaker_threshold}")

    def delay_for(self, attempt: int, rng) -> float:
        """:func:`repro.resilience.backoff_delay` with this policy's knobs."""
        return backoff_delay(self.backoff, self.backoff_jitter, attempt,
                             rng)

    def retry_delay(self, attempt: int, rng,
                    retry_after: float | None) -> float:
        """The actual pause before a retry: backoff vs server hint.

        The server's ``Retry-After`` (when honored) acts as a *floor* —
        retrying sooner than the server asked is rude and futile — and
        ``retry_after_cap`` bounds how long a hint may stall the call.
        """
        delay = self.delay_for(attempt, rng)
        if self.honor_retry_after and retry_after is not None:
            delay = max(delay, min(float(retry_after),
                                   self.retry_after_cap))
        return delay

    def replace(self, **changes) -> "ClientPolicy":
        """A copy of this policy with *changes* applied."""
        return dataclasses.replace(self, **changes)


#: The defaults: 4 attempts, hedged reads, a 10-token retry bucket.
DEFAULT_CLIENT_POLICY = ClientPolicy()
