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
breaker (``breaker_threshold``/``breaker_cooldown``).  The server's
``Retry-After`` hint is always honoured, capped at ``_RETRY_AFTER_CAP``
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resilience import backoff_delay

__all__ = ["ClientPolicy", "DEFAULT_CLIENT_POLICY"]

#: HTTP statuses the retry loop may spend budget on; everything else in
#: the 4xx range is the caller's bug and is surfaced immediately.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

_RETRY_AFTER_CAP = 10.0  # longest pause a Retry-After hint may impose


@dataclass(frozen=True)
class ClientPolicy:
    """Resilience knobs for one :class:`~repro.client.ReproClient`.

    Parameters
    ----------
    attempt_timeout:
        Socket budget (connect and each read) for one attempt; the
        effective per-attempt timeout is ``min(attempt_timeout,
        remaining deadline)``.
    call_timeout:
        Default wall-clock budget for one logical call (retries and
        hedges included).  A per-call ``deadline=`` overrides it.
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
    hedge:
        Enable hedged backup requests for idempotent GETs: when the
        primary attempt is still unanswered after the hedge delay, one
        backup is launched and the first response wins.
    hedge_delay:
        Seconds before launching the backup.  ``None`` derives the
        delay from the client's observed p95 GET latency (the
        tail-latency cure from "The Tail at Scale"), falling back to
        a fixed cold-start delay until enough GET latencies have been
        observed (:mod:`repro.client.client` constants).
    breaker_threshold / breaker_cooldown:
        Per-host circuit breaker: consecutive transport/5xx failures
        that trip it, and seconds it stays open
        (:class:`repro.resilience.CircuitBreaker` semantics;
        ``threshold=0`` disables).
    """

    attempt_timeout: float = 30.0
    call_timeout: float = 60.0
    max_attempts: int = 4
    backoff: float = 0.05
    backoff_jitter: float = 0.5
    retry_budget_rate: float = 2.0
    retry_budget_capacity: float = 10.0
    hedge: bool = True
    hedge_delay: float | None = None
    breaker_threshold: int = 8
    breaker_cooldown: float = 10.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("attempt_timeout", "call_timeout"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("backoff", "retry_budget_rate", "breaker_cooldown"):
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
        if self.hedge_delay is not None and self.hedge_delay < 0:
            raise ValueError(
                f"hedge_delay must be >= 0, got {self.hedge_delay}")
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

        The server's ``Retry-After`` acts as a *floor* — retrying
        sooner than the server asked is rude and futile — and
        ``_RETRY_AFTER_CAP`` bounds how long a hint may stall the
        call.
        """
        delay = self.delay_for(attempt, rng)
        if retry_after is not None:
            delay = max(delay, min(float(retry_after), _RETRY_AFTER_CAP))
        return delay


#: The defaults: 4 attempts, hedged reads, a 10-token retry bucket.
DEFAULT_CLIENT_POLICY = ClientPolicy()
