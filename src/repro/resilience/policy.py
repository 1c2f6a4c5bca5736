"""``ResiliencePolicy`` — the single knob object threaded through the stack.

Every supervised bulk stage (ensemble ingestion today; stats over
groups, batch query, campaign scans tomorrow) takes one
:class:`ResiliencePolicy` instead of a drifting pile of keyword
arguments.  The policy says how wide to fan out (``jobs``), how long a
single task may run (``task_timeout``), how failures are retried
(``max_retries``/``backoff``/``backoff_jitter``), when a failing
source trips its circuit breaker (``breaker_threshold``/
``breaker_cooldown``), how much wall clock the whole run may spend
(``deadline``), and when a silent worker counts as hung
(``heartbeat_grace``).  Timeouts and worker crashes are always
quarantined, never retried.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResiliencePolicy", "backoff_delay"]


def backoff_delay(backoff: float, jitter: float, attempt: int,
                  rng) -> float:
    """Seconds before retry number *attempt* (0-based): ``backoff *
    2**attempt * (1 + jitter * rng.random())``, with no draw from *rng*
    when *jitter* is 0.  The one formula behind both policies'
    ``delay_for``."""
    base = backoff * (2 ** attempt)
    if jitter == 0.0:
        return base
    return base * (1.0 + jitter * rng.random())


@dataclass(frozen=True)
class ResiliencePolicy:
    """Execution-resilience knobs for one supervised bulk stage.

    Parameters
    ----------
    jobs:
        Worker processes to fan tasks out across.  With ``1`` (the
        default) and no ``task_timeout`` or ``deadline`` there is
        nothing to supervise, and callers such as ingest run their
        work serially on the calling process instead.
    task_timeout:
        Per-task wall-clock budget in seconds, enforced by the
        supervisor (the worker is killed when it overruns).  ``None``
        disables per-task deadlines.
    max_retries:
        Bounded retry budget for *transient* task failures (I/O
        hiccups flagged ``transient`` by the task).  Timeouts and
        crashes are quarantined, not retried: a deterministic hang
        would burn the whole deadline re-hanging.
    backoff:
        Base delay in seconds for jittered exponential backoff between
        retries (delay = ``backoff * 2**attempt * (1 + jitter*U[0,1))``).
    backoff_jitter:
        Jitter fraction in ``[0, 1]``; ``0`` reproduces the historical
        deterministic backoff exactly.  The RNG is injectable, so
        jittered schedules are still reproducible in tests.
    breaker_threshold:
        Consecutive failures of one failure domain (e.g. one source
        directory) that trip its circuit breaker; ``0`` disables the
        breaker.
    breaker_cooldown:
        Seconds an open breaker waits before letting one half-open
        probe through.
    deadline:
        Overall wall-clock budget in seconds for the whole run; when
        exhausted, remaining tasks are quarantined with
        :class:`~repro.errors.DeadlineExceededError`.  ``None``
        disables the run deadline.
    heartbeat_grace:
        Seconds of heartbeat staleness after which a busy worker is
        declared hung and killed even before ``task_timeout``.
    """

    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_jitter: float = 0.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    deadline: float | None = None
    heartbeat_grace: float = 10.0

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter {self.backoff_jitter} outside [0, 1]")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, "
                f"got {self.breaker_threshold}")
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, "
                f"got {self.breaker_cooldown}")
        for name in ("task_timeout", "deadline", "heartbeat_grace"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def supervised(self) -> bool:
        """True when this policy needs the process-pool supervisor.

        A policy with ``jobs == 1`` and no timeout/deadline does not:
        callers run its work serially on the calling process and retry
        through :func:`~repro.resilience.call_with_retries`.  Every
        :meth:`SupervisedExecutor.map
        <repro.resilience.SupervisedExecutor.map>` runs in the pool.
        """
        return (self.jobs > 1 or self.task_timeout is not None
                or self.deadline is not None)

    def delay_for(self, attempt: int, rng) -> float:
        """:func:`backoff_delay` with this policy's knobs."""
        return backoff_delay(self.backoff, self.backoff_jitter, attempt,
                             rng)
