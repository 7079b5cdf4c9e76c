"""A supervision layer for fan-out experiment work.

The :class:`Supervisor` runs independent tasks across a
``ProcessPoolExecutor`` under a failure contract the bare pool does not
give:

- **Per-task deadline.**  A task that has not produced a result within
  ``deadline`` seconds is declared timed out; the hung worker is
  terminated and the pool replaced, so a wedged cell costs one deadline,
  not the sweep.
- **Bounded retries.**  Failed executions are resubmitted with
  exponential backoff and deterministic jitter
  (:class:`~repro.resilience.policy.RetryPolicy`).
- **Failure isolation.**  A task that exhausts its retries becomes one
  typed :class:`~repro.errors.CellFailure`; every other task's result
  survives, and results are delivered to ``on_result`` as soon as each
  future completes — not after the pool joins — so callers can persist
  incrementally.
- **Pool replacement.**  ``BrokenProcessPool`` (a worker killed by the
  OS, OOM, or a signal) replaces the executor automatically.  The blast
  radius of a dead worker is every in-flight future, and the pool
  cannot say which task was the culprit, so each in-flight task gets a
  ``crash`` event; crash events have their own generous cap
  (``RetryPolicy.crash_cap``) so an innocent bystander is never
  declared lost for its neighbour's crash.
- **Circuit breaker.**  A class of tasks (for sweeps: one benchmark)
  failing repeatedly with no success in between stops being submitted;
  its remaining tasks fail fast as ``breaker-open``
  (:class:`~repro.errors.BreakerOpen` is the reason type) instead of
  burning workers.

Tasks preempted by a neighbour's timeout or crash are requeued with a
``preempted`` event that does **not** consume a retry attempt.

Executors are leased from the process-wide
:class:`~repro.resilience.workerpool.PoolManager` rather than built
per run: a healthy pool is parked when the run finishes and the next
supervised run reuses its warm workers — already-imported modules,
built codec tables, memoized stage bundles — instead of re-spawning.
Broken or hung pools are discarded through the manager and replaced
fresh, so the failure contract above is unchanged.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro import settings as _settings
from repro.errors import BreakerOpen, CellFailure, SquashError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.workerpool import PoolLease, get_pool_manager

__all__ = [
    "Task",
    "SupervisorConfig",
    "FailureEvent",
    "SupervisionReport",
    "Supervisor",
]


@dataclass(frozen=True)
class Task:
    """One unit of fan-out work."""

    key: Hashable
    payload: Any
    #: Circuit-breaker class (e.g. the benchmark name).
    cls: str = ""
    #: Human-readable description used in failure reports.
    label: str = ""

    def describe(self) -> str:
        return self.label or str(self.key)


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one supervised run."""

    workers: int | None = None
    #: Per-task wall-clock deadline in seconds (None: no deadline).
    deadline: float | None = None
    retry: RetryPolicy = RetryPolicy()
    breaker_threshold: int = 8

    @classmethod
    def from_settings(
        cls, resolved: "_settings.Settings | None" = None
    ) -> "SupervisorConfig":
        """The config the resolved :class:`repro.settings.Settings`
        describes (``REPRO_CELL_DEADLINE``, ``REPRO_CELL_RETRIES``,
        ``REPRO_CELL_BACKOFF``, ``REPRO_BREAKER_THRESHOLD`` feed it;
        malformed values fall back silently — resilience knobs must
        never be a new way to crash)."""
        if resolved is None:
            resolved = _settings.current()
        return cls(
            deadline=resolved.cell_deadline,
            retry=RetryPolicy(
                max_attempts=resolved.cell_retries,
                backoff_base=resolved.cell_backoff,
            ),
            breaker_threshold=resolved.breaker_threshold,
        )


@dataclass
class FailureEvent:
    """One failed, preempted, or skipped execution."""

    key: Hashable
    cls: str
    attempt: int
    #: ``timeout`` | ``crash`` | ``error`` | ``preempted`` |
    #: ``breaker-open``
    kind: str
    error_type: str = ""
    message: str = ""
    #: Whether the task was put back in the queue afterwards.
    retried: bool = True


@dataclass
class SupervisionReport:
    """Everything a supervised run produced."""

    results: dict[Hashable, Any] = field(default_factory=dict)
    failures: dict[Hashable, CellFailure] = field(default_factory=dict)
    events: list[FailureEvent] = field(default_factory=list)
    pool_rebuilds: int = 0
    executions: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def events_for(self, key: Hashable) -> list[FailureEvent]:
        return [event for event in self.events if event.key == key]


#: Unified metrics sink: supervision outcomes mirror here so a sweep
#: leaves one queryable snapshot (``repro metrics``).
_METRICS = get_registry()

#: True inside a supervisor pool worker (set by the pool initializer).
#: Chaos faults that destroy the hosting process consult this so they
#: never take down a driver that happens to run cells inline.
_IS_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _IS_POOL_WORKER
    _IS_POOL_WORKER = True


def in_pool_worker() -> bool:
    return _IS_POOL_WORKER


class _TaskState:
    __slots__ = ("task", "attempts", "crashes", "ready_at")

    def __init__(self, task: Task):
        self.task = task
        self.attempts = 0  # counted executions (errors + timeouts)
        self.crashes = 0  # non-attributable pool-crash events
        self.ready_at = 0.0


class Supervisor:
    """Runs a worker function over tasks under the supervision contract.

    ``fn`` must be a picklable module-level callable taking one task
    payload.  ``on_result(task, result)`` fires in the parent process
    the moment a task succeeds.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        config: SupervisorConfig | None = None,
        on_result: Callable[[Task, Any], None] | None = None,
    ):
        self.fn = fn
        self.config = config or SupervisorConfig.from_settings()
        self.on_result = on_result
        self._tracer = get_tracer()

    # -- public entry --------------------------------------------------------

    def run(self, tasks: list[Task], parallel: bool = True) -> SupervisionReport:
        report = SupervisionReport()
        states = {task.key: _TaskState(task) for task in tasks}
        if len(states) != len(tasks):
            raise ValueError("duplicate task keys")
        breaker = CircuitBreaker(threshold=self.config.breaker_threshold)
        workers = self._workers()
        if parallel and workers > 1 and len(tasks) > 1:
            self._run_pool(list(states.values()), breaker, workers, report)
        else:
            self._run_serial(list(states.values()), breaker, report)
        return report

    def _workers(self) -> int:
        if self.config.workers:
            return max(1, self.config.workers)
        return _settings.effective_bench_workers()

    # -- shared bookkeeping --------------------------------------------------

    def _record_success(
        self,
        state: _TaskState,
        result: Any,
        breaker: CircuitBreaker,
        report: SupervisionReport,
    ) -> None:
        report.results[state.task.key] = result
        breaker.record_success(state.task.cls)
        _METRICS.inc("supervisor.successes")
        if self._tracer.enabled:
            self._tracer.emit(
                "cell.ok", "sweep", cell=state.task.describe(),
                attempts=state.attempts + 1,
            )
        if self.on_result is not None:
            self.on_result(state.task, result)

    def _record_failure(
        self,
        state: _TaskState,
        kind: str,
        breaker: CircuitBreaker,
        report: SupervisionReport,
        exc: BaseException | None = None,
        counts_attempt: bool = True,
    ) -> bool:
        """Account one failed execution; True when the task may retry."""
        task = state.task
        if counts_attempt:
            if kind == "crash":
                state.crashes += 1
            else:
                state.attempts += 1
            breaker.record_failure(task.cls)
        retry = self.config.retry
        exhausted = (
            state.attempts >= retry.max_attempts
            or state.crashes >= retry.crash_cap
        )
        retried = counts_attempt and not exhausted
        _METRICS.inc(f"supervisor.failures.{kind}")
        if self._tracer.enabled:
            self._tracer.emit(
                "cell.fail", "sweep", cell=task.describe(), kind=kind,
                attempt=state.attempts, retried=retried or not counts_attempt,
            )
        report.events.append(
            FailureEvent(
                key=task.key,
                cls=task.cls,
                attempt=state.attempts,
                kind=kind,
                error_type=type(exc).__name__ if exc is not None else "",
                message=str(exc) if exc is not None else "",
                retried=retried or not counts_attempt,
            )
        )
        if counts_attempt and exhausted:
            failure = CellFailure(
                "cell lost after bounded retries",
                cell=task.describe(),
                attempts=state.attempts + state.crashes,
                reason=kind,
                error_type=type(exc).__name__ if exc is not None else "",
            )
            failure.__cause__ = exc
            report.failures[task.key] = failure
            _METRICS.inc("supervisor.cells_lost")
            return False
        if counts_attempt:
            state.ready_at = time.monotonic() + retry.delay(
                str(task.key), state.attempts
            )
        return True

    def _fail_breaker_open(
        self, state: _TaskState, report: SupervisionReport
    ) -> None:
        task = state.task
        report.events.append(
            FailureEvent(
                key=task.key,
                cls=task.cls,
                attempt=state.attempts,
                kind="breaker-open",
                error_type=BreakerOpen.__name__,
                retried=False,
            )
        )
        failure = CellFailure(
            "cell skipped: circuit breaker open",
            cell=task.describe(),
            attempts=state.attempts + state.crashes,
            reason="breaker-open",
            error_type=BreakerOpen.__name__,
        )
        failure.__cause__ = BreakerOpen(cls=task.cls)
        report.failures[task.key] = failure
        _METRICS.inc("supervisor.breaker_open")

    # -- serial fallback -----------------------------------------------------

    def _run_serial(
        self,
        states: list[_TaskState],
        breaker: CircuitBreaker,
        report: SupervisionReport,
    ) -> None:
        """Inline execution with the same retry/breaker accounting.

        Deadlines need a separate process to enforce; inline, the VM
        watchdog (``REPRO_VM_WATCHDOG``) is the hang guard.
        """
        queue = deque(states)
        while queue:
            state = queue.popleft()
            if breaker.is_open(state.task.cls):
                self._fail_breaker_open(state, report)
                continue
            delay = state.ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            report.executions += 1
            _METRICS.inc("supervisor.executions")
            try:
                result = self.fn(state.task.payload)
            except BaseException as exc:  # noqa: BLE001 - classified below
                if isinstance(exc, KeyboardInterrupt):
                    raise
                if self._record_failure(state, "error", breaker, report, exc):
                    queue.append(state)
                continue
            self._record_success(state, result, breaker, report)

    # -- pool execution ------------------------------------------------------

    def _run_pool(
        self,
        states: list[_TaskState],
        breaker: CircuitBreaker,
        workers: int,
        report: SupervisionReport,
    ) -> None:
        queue: deque[_TaskState] = deque(states)
        inflight: dict[Future, tuple[_TaskState, float]] = {}
        manager = get_pool_manager()
        lease = manager.acquire(workers, initializer=_mark_pool_worker)
        pool = lease.pool
        deadline = self.config.deadline
        try:
            if self._tracer.enabled:
                self._tracer.emit("pool.lease", "sweep", warm=lease.reused)
            while queue or inflight:
                now = time.monotonic()
                # Submit every ready task while worker slots are free.
                requeue: list[_TaskState] = []
                while queue and len(inflight) < workers:
                    state = queue.popleft()
                    if breaker.is_open(state.task.cls):
                        self._fail_breaker_open(state, report)
                        continue
                    if state.ready_at > now:
                        requeue.append(state)
                        continue
                    try:
                        future = pool.submit(self.fn, state.task.payload)
                    except BrokenProcessPool:
                        # A worker death surfaces synchronously when it
                        # lands while later tasks are still being
                        # submitted.  This task never ran, so it requeues
                        # unscathed; in-flight neighbours are doomed and
                        # written off as crash events, exactly as in the
                        # asynchronous branch below.
                        requeue.append(state)
                        for victim, _expiry in inflight.values():
                            if self._record_failure(
                                victim, "crash", breaker, report, exc=None
                            ):
                                requeue.append(victim)
                        inflight.clear()
                        lease = self._replace_pool(lease, report, kill=False)
                        pool = lease.pool
                        break
                    report.executions += 1
                    _METRICS.inc("supervisor.executions")
                    expiry = now + deadline if deadline else float("inf")
                    inflight[future] = (state, expiry)
                queue.extend(requeue)

                if not inflight:
                    if queue:  # everything queued is backing off
                        wake = min(state.ready_at for state in queue)
                        time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                timeout = None
                next_expiry = min(expiry for _, expiry in inflight.values())
                if next_expiry != float("inf"):
                    timeout = max(0.01, next_expiry - time.monotonic())
                done, _ = wait(
                    list(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for future in done:
                    state, _expiry = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        if self._record_failure(
                            state, "crash", breaker, report,
                            exc=None,
                        ):
                            queue.append(state)
                        continue
                    except BaseException as exc:  # noqa: BLE001
                        if isinstance(exc, KeyboardInterrupt):
                            raise
                        if self._record_failure(
                            state, "error", breaker, report, exc
                        ):
                            queue.append(state)
                        continue
                    self._record_success(state, result, breaker, report)

                if broken:
                    # Remaining in-flight futures are doomed too: requeue
                    # them as crash events and replace the executor.
                    for future, (state, _expiry) in inflight.items():
                        if self._record_failure(
                            state, "crash", breaker, report, exc=None
                        ):
                            queue.append(state)
                    inflight.clear()
                    lease = self._replace_pool(lease, report, kill=False)
                    pool = lease.pool
                    continue

                # Deadline audit: expired tasks time out; the hung
                # workers can only be reclaimed by killing the pool, so
                # innocents still in flight are requeued without
                # consuming an attempt.
                now = time.monotonic()
                expired = [
                    (future, state)
                    for future, (state, expiry) in inflight.items()
                    if now >= expiry and not future.done()
                ]
                if expired:
                    expired_keys = set()
                    for future, state in expired:
                        expired_keys.add(state.task.key)
                        if self._record_failure(
                            state, "timeout", breaker, report,
                            exc=TimeoutError(
                                f"no result within {deadline:.1f}s"
                            ),
                        ):
                            queue.append(state)
                    for future, (state, _expiry) in inflight.items():
                        if state.task.key in expired_keys:
                            continue
                        if future.done():
                            # Completed in the race window: harvest it.
                            try:
                                result = future.result()
                            except BaseException as exc:  # noqa: BLE001
                                if isinstance(exc, KeyboardInterrupt):
                                    raise
                                if self._record_failure(
                                    state, "error", breaker, report, exc
                                ):
                                    queue.append(state)
                            else:
                                self._record_success(
                                    state, result, breaker, report
                                )
                            continue
                        self._record_failure(
                            state, "preempted", breaker, report,
                            counts_attempt=False,
                        )
                        queue.append(state)
                    inflight.clear()
                    lease = self._replace_pool(lease, report, kill=True)
                    pool = lease.pool
        except BaseException as exc:
            # An escaping exception (KeyboardInterrupt / SIGTERM above
            # all) may leave futures in flight.  Cancel what has not
            # started, kill the workers running the rest, and hand the
            # lease back through discard — a pool mid-task must never
            # be parked warm for the next run to inherit.
            for future in inflight:
                future.cancel()
            inflight.clear()
            manager.discard(lease, kill=True)
            _METRICS.inc("supervisor.interrupted")
            if self._tracer.enabled:
                self._tracer.emit(
                    "pool.interrupt", "sweep",
                    kind=type(exc).__name__,
                )
            raise
        else:
            manager.release(lease)

    def _replace_pool(
        self, lease: PoolLease, report: SupervisionReport, kill: bool
    ) -> PoolLease:
        """Discard a broken/hung leased pool and lease a fresh one."""
        manager = get_pool_manager()
        manager.discard(lease, kill=kill)
        report.pool_rebuilds += 1
        _METRICS.inc("supervisor.pool_rebuilds")
        if self._tracer.enabled:
            self._tracer.emit("pool.rebuild", "sweep", killed=kill)
        return manager.acquire(
            self._workers(), initializer=_mark_pool_worker
        )
