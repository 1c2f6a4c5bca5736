"""``repro.resilience`` — supervised parallel execution.

The reusable substrate under every campaign-scale bulk stage: a
process-pool :class:`SupervisedExecutor` with per-task deadlines,
worker heartbeats, bounded jittered retries, and deterministic result
ordering; the one blocking retry loop (:func:`call_with_retries`) and
the one backoff formula (:func:`backoff_delay`); a per-failure-domain
:class:`CircuitBreaker`; the one :class:`TokenBucket` (the server's
rate limit and the client's retry budget); the
:class:`ResiliencePolicy` knob object threaded through the stack; and
the :class:`SignalGuard` that keeps checkpoint journals and worker
pools safe across Ctrl-C.  Sleep-retry loops and bare
``multiprocessing``/``concurrent.futures`` pools elsewhere in the tree
are lint findings (RPR007): bulk work routes through here.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerState, CircuitBreaker
from .bucket import TokenBucket
from .executor import (
    SupervisedExecutor,
    TaskOutcome,
    call_with_retries,
    in_worker,
)
from .policy import ResiliencePolicy, backoff_delay
from .signals import SignalGuard

__all__ = [
    "ResiliencePolicy", "backoff_delay",
    "SupervisedExecutor", "TaskOutcome", "call_with_retries", "in_worker",
    "CircuitBreaker", "BreakerState", "CLOSED", "OPEN", "HALF_OPEN",
    "TokenBucket", "SignalGuard",
]
