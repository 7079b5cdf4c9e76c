"""Supervision layer for all fan-out experiment work.

``repro.resilience`` exists so one dead, hung, or lying worker costs a
sweep exactly one *recorded* cell, never the sweep: the
:class:`Supervisor` adds per-task deadlines, bounded retries with
deterministic backoff, automatic pool replacement, and a per-class
circuit breaker on top of ``ProcessPoolExecutor``.  Failure modes
surface as typed errors from :mod:`repro.errors`
(:class:`~repro.errors.CellFailure`, :class:`~repro.errors.BreakerOpen`,
:class:`~repro.errors.WatchdogExpired`).
"""

from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.supervisor import (
    FailureEvent,
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    Task,
)
from repro.resilience.workerpool import (
    PoolLease,
    PoolManager,
    get_pool_manager,
    pool_fingerprint,
    reset_pool_manager,
)

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "FailureEvent",
    "SupervisionReport",
    "Supervisor",
    "SupervisorConfig",
    "Task",
    "PoolLease",
    "PoolManager",
    "get_pool_manager",
    "pool_fingerprint",
    "reset_pool_manager",
]
