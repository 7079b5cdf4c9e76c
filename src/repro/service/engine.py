"""The asyncio job engine: admission, scheduling, execution, drain.

:class:`JobEngine` turns the repro pipeline into squash-as-a-service.
It owns an asyncio event loop on a background thread and moves jobs
through four phases, each built robustness-first:

**Admission** — a bounded queue (``REPRO_SERVICE_QUEUE_DEPTH``).  A
submission that would overflow it is *shed* with a typed
:class:`~repro.errors.ServiceOverloaded` carrying a retry-after hint
derived from the observed job duration, so overload produces fast
typed failures instead of unbounded latency.  Draining or stopped
engines shed everything.  An accepted job is journaled before
``submit`` returns — from that instant it is crash-recoverable and the
engine guarantees a terminal state for it.  The journal holds two
records per job, ``queued`` and the terminal state; a running job's
live state is in :meth:`JobEngine.status`.

**Scheduling** — strict priority classes (``interactive`` before
``batch``), round-robin across tenants inside a class, and a
per-tenant cap on concurrently running jobs
(``REPRO_SERVICE_TENANT_CAP``).  A tenant that floods the queue gets
throughput, not a monopoly: other tenants' jobs interleave at every
slot the hog's cap frees.

**Execution** — up to ``REPRO_SERVICE_WORKERS`` jobs run concurrently,
each on an executor thread that dispatches through the typed facade
(:func:`repro.service.jobs.execute_job`) so results are byte-identical
to direct :mod:`repro.api` calls.  A squash job's body runs in one of
as many worker processes, which the engine owns from
:meth:`~JobEngine.start` until :meth:`~JobEngine.drain`: the thread
only waits for it, so squashes use the other cores while HTTP, the
event loop and the journal keep this process.  Each task carries the
thread's resolved settings, so in-process ``use_settings`` overrides
reach the worker.  Workers are forked by a forkserver that has
already imported the squash path (never by this threaded process),
all of them when the engine starts, and each exits when the engine
process does, SIGKILL included.  A worker's death fails the jobs in
flight in its pool with a typed :class:`~repro.errors.JobFailed`
(``error_type`` ``BrokenProcessPool``), and the next job gets a fresh
pool.  Sweep and verify jobs run on the thread itself; a parallel
sweep fans out through the supervisor's pool.  A job deadline
propagates: the remaining budget tightens ``cell_deadline`` (scoped
thread-locally via :func:`repro.settings.use_settings`), so
supervisor cells under the job observe it; a job whose deadline
lapses before or during execution terminates ``expired`` with a typed
:class:`~repro.errors.JobExpired` — cancelled, never completed late.

**Drain** — SIGTERM/SIGINT (wired by ``repro serve``) stop admission,
let running jobs finish inside ``REPRO_SERVICE_DRAIN_TIMEOUT``,
journal still-queued jobs as ``requeued`` for the next start, stop
the worker processes (a squash still running past the budget is
journaled ``requeued`` as well), and release the warm worker-pool
leases.

The engine keeps the newest :data:`KEPT_TERMINAL_JOBS` terminal jobs
in memory.  Older ones are answered from the journal, as a previous
process's jobs are; without a journal their ids become
:class:`~repro.errors.UnknownJob`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pathlib
import select
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import forkserver

from repro import settings as _settings
from repro.errors import (
    JobExpired,
    JobFailed,
    ServiceOverloaded,
    UnknownJob,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.jobs import (
    PRIORITIES,
    Job,
    JobSpec,
    execute_job,
    new_job_id,
    use_squash_pool,
)
from repro.service.journal import JobJournal

__all__ = [
    "KEPT_TERMINAL_JOBS",
    "JobEngine",
    "ServiceConfig",
    "get_engine",
    "reset_engine",
]

_METRICS = get_registry()

#: Retry-after floor so shed clients never busy-spin.
_MIN_RETRY_AFTER = 0.05

#: Terminal jobs an engine keeps in memory, newest first.
KEPT_TERMINAL_JOBS = 1000

#: What a squash job imports.  The forkserver imports it once, so a
#: worker forked from it pays none of it on its first job.
_WORKER_PRELOAD = [
    "repro.analysis.experiments",
    "repro.api",
    "repro.program.imagefile",
    "repro.service.jobs",
]

#: The directory that holds the ``repro`` package this process runs.
_PACKAGE_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

#: Seconds between a worker's checks that the engine still runs, where
#: the platform cannot wait on a process descriptor.
_ENGINE_POLL_S = 0.5


def _forkserver_context():
    """The ``forkserver`` context, its server running with
    :data:`_WORKER_PRELOAD` imported.

    The server is a fresh interpreter that imports the preload list on
    its default ``sys.path``: CPython hands it this process's
    ``sys.path`` but does not apply it (3.11 to 3.13).  So it starts
    with this package's root at the head of ``PYTHONPATH``.  Otherwise,
    run from a checkout that puts ``src`` on ``sys.path`` at run time,
    it would preload nothing, and every worker would import the package
    itself (about 0.2 s); or it would preload another installed copy.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(_WORKER_PRELOAD)
    # Set for the server's exec alone; os.environ is left as it is.
    saved = _settings._ENVIRON.get("PYTHONPATH")
    os.putenv(
        "PYTHONPATH", os.pathsep.join(filter(None, (_PACKAGE_ROOT, saved)))
    )
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            os.unsetenv("PYTHONPATH")
        else:
            os.putenv("PYTHONPATH", saved)
    return context


def _exit_with_engine(pid: int) -> None:
    """Pool initializer: end this worker when process *pid* ends.

    Otherwise a worker waits on its call queue for ever once the engine
    is SIGKILLed, and keeps its forkserver alive with it.
    """
    threading.Thread(
        target=_wait_for_exit, args=(pid,),
        name="repro-engine-watch", daemon=True,
    ).start()


def _wait_for_exit(pid: int) -> None:
    try:
        # Readable once *pid* has exited, reaped or not.
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        os._exit(1)
    except (AttributeError, OSError):
        # No pidfd_open: poll, which takes an unreaped engine for alive.
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                os._exit(1)
            time.sleep(_ENGINE_POLL_S)
    select.select([fd], [], [])
    os._exit(1)


class _SquashPool:
    """The engine's worker processes for squash jobs.

    Its :meth:`run` is what :func:`~repro.service.jobs.use_squash_pool`
    hands squash jobs.  Workers come from a ``forkserver`` context: the
    engine process runs HTTP and loop threads, so it must not ``fork``,
    and ``spawn`` would import the package again in every worker of
    every engine.
    """

    def __init__(self, workers: int):
        self._workers = workers
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = self._start()

    def _start(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self._workers, mp_context=_forkserver_context(),
            initializer=_exit_with_engine, initargs=(os.getpid(),),
        )
        # The executor starts a worker for each submission that finds
        # none idle, so these start every worker now, not in the first
        # jobs.
        for future in [
            executor.submit(os.getpid) for _ in range(self._workers)
        ]:
            future.result()
        return executor

    def run(self, fn, *args):
        """``fn(*args)`` in a worker; raises ``BrokenProcessPool`` when a
        worker died while the call was in flight, or after
        :meth:`close`."""
        with self._lock:
            if self._executor is None:
                raise BrokenProcessPool("the engine's worker pool is closed")
            try:
                future = self._executor.submit(fn, *args)
            except BrokenProcessPool:
                # A worker died since the last call.
                self._executor.shutdown(wait=True)
                self._executor = self._start()
                future = self._executor.submit(fn, *args)
        return future.result()

    def close(self, kill: bool) -> None:
        """Stop every worker and wait until it has exited; with *kill*,
        end the calls still running too."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            # ``_processes`` is private-but-stable CPython, as in
            # ``repro.resilience.workerpool``.
            for process in list((executor._processes or {}).values()):
                process.terminate()
        executor.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class ServiceConfig:
    """Engine knobs, resolved from :mod:`repro.settings`."""

    queue_depth: int = 64
    workers: int = 2
    tenant_cap: int = 1
    default_deadline: float | None = None
    drain_timeout: float = 10.0
    journal: bool = True

    @classmethod
    def from_settings(cls) -> "ServiceConfig":
        resolved = _settings.current()
        return cls(
            queue_depth=resolved.service_queue_depth,
            workers=resolved.service_workers,
            tenant_cap=resolved.service_tenant_cap,
            default_deadline=resolved.service_deadline,
            drain_timeout=resolved.service_drain_timeout,
            journal=resolved.service_journal,
        )


class JobEngine:
    """One squash-as-a-service engine (see the module docstring).

    All mutable state lives on the engine's event-loop thread;
    ``submit``/``status``/``result`` are thread-safe entry points that
    marshal onto it.  ``execute_fn`` exists for tests and chaos
    harnesses that need controllable job bodies; production uses
    :func:`~repro.service.jobs.execute_job`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        journal: JobJournal | None = None,
        execute_fn=execute_job,
    ):
        self.config = config or ServiceConfig.from_settings()
        self.journal = journal if journal is not None else (
            JobJournal() if self.config.journal else None
        )
        self._execute_fn = execute_fn
        self._tracer = get_tracer()
        self._jobs: dict[str, Job] = {}
        #: priority -> tenant -> FIFO of queued jobs.
        self._queues: dict[str, dict[str, deque[Job]]] = {
            priority: {} for priority in PRIORITIES
        }
        #: priority -> round-robin order of tenants with queued work.
        self._rr: dict[str, deque[str]] = {
            priority: deque() for priority in PRIORITIES
        }
        self._queued = 0
        self._running: dict[str, Job] = {}
        self._tenant_running: dict[str, int] = {}
        #: Sync waiters of unfinished jobs: job id -> Future resolved
        #: (and, at a terminal state, dropped) when the job ends.
        self._waiters: dict[str, Future] = {}
        #: Ids of the terminal jobs still in ``_jobs``, oldest first.
        self._terminal: deque[str] = deque()
        #: Jobs that reached a terminal state in this engine.
        self._terminal_count = 0
        #: EWMA of observed job run seconds (retry-after hints).
        self._avg_run = 0.5
        self._state = "stopped"
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pool: _SquashPool | None = None
        self._wake: asyncio.Event | None = None
        self._idle = threading.Event()
        self._idle.set()
        #: Test/chaos hook: queued jobs are not dispatched while set,
        #: making "queue at capacity" deterministic.
        self._dispatch_paused = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, recover: bool = True) -> "JobEngine":
        """Boot the loop thread; with *recover*, re-enqueue every
        non-terminal journaled job a previous process left behind."""
        if self._state != "stopped":
            return self
        self._pool = _SquashPool(self.config.workers)
        self._state = "running"
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        started = threading.Event()

        def _loop_main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._wake = asyncio.Event()
            self._scheduler_task = loop.create_task(self._scheduler())
            started.set()
            loop.run_forever()
            # Cancel the scheduler and flush callbacks before closing.
            self._scheduler_task.cancel()
            try:
                loop.run_until_complete(
                    asyncio.gather(
                        self._scheduler_task, return_exceptions=True
                    )
                )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_loop_main, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if recover and self.journal is not None:
            for job in self.journal.recover():
                try:
                    self._call(self._admit(job))
                except ServiceOverloaded:
                    # A recovery bigger than the queue re-journals the
                    # overflow as requeued; the next start resumes it.
                    job.state = "requeued"
                    self.journal.record(job)
        return self

    def stop(self, drain_timeout: float | None = None) -> None:
        """Graceful shutdown: drain, then tear the loop down."""
        if self._state == "stopped" or self._loop is None:
            return
        self.drain(drain_timeout)
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._state = "stopped"

    def drain(self, timeout: float | None = None) -> dict:
        """Stop admitting, wait for running jobs, requeue the rest.

        Returns ``{"finished": n, "requeued": n}``.  Queued jobs, and
        jobs still running when the budget is spent, are journaled as
        ``requeued`` (recovered on the next start) and their in-process
        waiters fail with a typed
        :class:`~repro.errors.ServiceOverloaded`.  The worker processes
        are stopped, a squash still running in one with it, and warm
        pool leases are released back to the OS.
        """
        if self._state != "running" or self._loop is None:
            return {"finished": 0, "requeued": 0}
        self._state = "draining"
        budget = (
            timeout if timeout is not None else self.config.drain_timeout
        )
        deadline = time.monotonic() + budget
        # Running jobs get the drain budget to finish.
        while time.monotonic() < deadline:
            if not self._running and self._idle.is_set():
                break
            time.sleep(0.01)
        report = self._call(self._requeue_unfinished())
        self._pool.close(kill=report["interrupted"] > 0)
        from repro.resilience.workerpool import get_pool_manager

        get_pool_manager().shutdown_all()
        _METRICS.inc("service.drains")
        return {
            "finished": self._terminal_count,
            "requeued": report["requeued"],
        }

    async def _requeue_unfinished(self) -> dict:
        """Requeue every queued and running job (drain, on the loop)."""
        unfinished = []
        for priority in PRIORITIES:
            for queue in self._queues[priority].values():
                unfinished.extend(queue)
            self._queues[priority].clear()
            self._rr[priority].clear()
        self._queued = 0
        interrupted = list(self._running.values())
        for job in interrupted:
            # Its late completion finds it gone and is dropped.
            self._release_slot(job)
        for job in unfinished + interrupted:
            job.state = "requeued"
            self._journal(job)
            _METRICS.inc("service.requeued")
            self._resolve_waiter(
                job,
                ServiceOverloaded(
                    "service draining; job journaled for the "
                    "next start",
                    reason="draining",
                    retry_after=self.config.drain_timeout,
                    tenant=job.spec.tenant,
                ),
            )
        self._idle.set()
        return {
            "requeued": len(unfinished) + len(interrupted),
            "interrupted": len(interrupted),
        }

    # -- public API ----------------------------------------------------------

    def submit(
        self, spec: JobSpec, job_id: str | None = None
    ) -> Job:
        """Admit *spec*; returns the accepted job or raises typed
        :class:`~repro.errors.ServiceOverloaded` /
        :class:`~repro.errors.SpecError`.

        A client-supplied *job_id* is an idempotency key: when this
        engine or its journal already holds that id, the held job is
        returned and nothing runs again (a retried POST, or one
        replayed across a restart).  Without a journal the engine
        holds only its newest :data:`KEPT_TERMINAL_JOBS` terminal ids.
        """
        spec.validate()
        if job_id is None:
            return self._call(self._admit(Job(id=new_job_id(), spec=spec)))
        return self._call(self._admit_once(Job(id=job_id, spec=spec)))

    def status(self, job_id: str) -> dict:
        """A JSON snapshot of one job's state.

        The journal answers for jobs of a previous process and for
        terminal jobs beyond the newest :data:`KEPT_TERMINAL_JOBS`;
        without a journal those raise
        :class:`~repro.errors.UnknownJob`.
        """
        job = self._jobs.get(job_id)
        if job is not None:
            return self._snapshot(job)
        if self.journal is not None:
            record = self.journal.load(job_id)
            if record is not None:
                return {
                    "id": job_id,
                    "state": record.get("state", "unknown"),
                    "tenant": (record.get("spec") or {}).get(
                        "tenant", "default"
                    ),
                    "kind": (record.get("spec") or {}).get("kind", ""),
                    "recovered": record.get("recovered", False),
                    "result": record.get("result"),
                    "error": record.get("error"),
                }
        raise UnknownJob(job_id=job_id)

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until *job_id* is terminal; the result payload, or a
        typed raise mirroring how the job ended."""
        job = self._jobs.get(job_id)
        if job is None:
            status = self.status(job_id)  # raises UnknownJob
            if status["state"] == "done" and status.get("result"):
                return status["result"]
            error = status.get("error") or ["JobFailed", status["state"]]
            raise self._terminal_error(
                job_id, status["state"], tuple(error)
            )
        waiter = self._call(self._waiter_for(job))
        return waiter.result(timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; True when it was cancelled.

        A running job is not interrupted (its executor thread owns the
        work) and a terminal job cannot change state — both return
        False, as does a job only the journal holds.  Raises
        :class:`~repro.errors.UnknownJob` for ids neither knows.
        """
        return self._call(self._cancel(job_id))

    async def _cancel(self, job_id: str) -> bool:
        job = self._jobs.get(job_id)
        if job is None:
            if self.journal is not None and self.journal.load(job_id):
                return False
            raise UnknownJob(job_id=job_id)
        if job.terminal or job.state != "queued":
            return False
        queue = self._queues[job.spec.priority].get(job.spec.tenant)
        if queue is None or job not in queue:
            return False
        queue.remove(job)
        self._queued -= 1
        _METRICS.set_gauge("service.queue_depth", self._queued)
        self._finish(
            job, "cancelled",
            error=JobFailed(
                "cancelled by the client before it started",
                job_id=job.id, error_type="Cancelled",
            ),
        )
        return True

    def stats(self) -> dict:
        return {
            "state": self._state,
            "queued": self._queued,
            "running": len(self._running),
            "jobs": len(self._jobs),
            "terminal": self._terminal_count,
            "tenants_running": dict(self._tenant_running),
            "avg_run_seconds": self._avg_run,
        }

    # -- loop plumbing -------------------------------------------------------

    def _call(self, coro):
        """Run *coro* on the engine loop and return its result."""
        if self._loop is None:
            coro.close()
            raise ServiceOverloaded(
                "service is stopped", reason="stopped",
                retry_after=self.config.drain_timeout,
            )
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result()

    def _journal(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.record(job)

    def _snapshot(self, job: Job) -> dict:
        return {
            "id": job.id,
            "state": job.state,
            "tenant": job.spec.tenant,
            "kind": job.spec.kind,
            "priority": job.spec.priority,
            "recovered": job.recovered,
            "result": job.result,
            "error": list(job.error) if job.error else None,
        }

    def _terminal_error(
        self, job_id: str, state: str, error: tuple[str, str]
    ):
        error_type, message = (tuple(error) + ("", ""))[:2]
        if state == "expired" or error_type == "JobExpired":
            return JobExpired(message, job_id=job_id)
        if error_type == "ServiceOverloaded":
            return ServiceOverloaded(message, reason="requeued")
        if state == "cancelled":
            return JobFailed(
                message or "job cancelled",
                job_id=job_id, error_type=error_type or "Cancelled",
            )
        return JobFailed(message, job_id=job_id, error_type=error_type)

    # -- admission -----------------------------------------------------------

    def _retry_after(self) -> float:
        """How long a shed client should wait: roughly one queue's
        worth of work across the worker slots."""
        backlog = self._queued + len(self._running)
        waves = max(1.0, backlog / max(1, self.config.workers))
        return max(_MIN_RETRY_AFTER, waves * self._avg_run)

    async def _admit(self, job: Job) -> Job:
        tenant = job.spec.tenant
        if self._state != "running":
            _METRICS.inc("service.shed")
            raise ServiceOverloaded(
                "service is not admitting jobs",
                reason=self._state or "stopped",
                retry_after=self.config.drain_timeout,
                tenant=tenant,
            )
        if self._queued >= self.config.queue_depth:
            _METRICS.inc("service.shed")
            _METRICS.inc(f"service.tenant.{tenant}.shed")
            if self._tracer.enabled:
                self._tracer.emit(
                    "job.shed", "service", tenant=tenant,
                    depth=self._queued,
                )
            raise ServiceOverloaded(
                f"admission queue full "
                f"({self._queued}/{self.config.queue_depth})",
                reason="queue-full",
                retry_after=self._retry_after(),
                tenant=tenant,
            )
        now = time.monotonic()
        job.submitted_at = now
        deadline = job.spec.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline:
            job.deadline_at = now + deadline
        job.state = "queued"
        self._jobs[job.id] = job
        queues = self._queues[job.spec.priority]
        if tenant not in queues:
            queues[tenant] = deque()
        if tenant not in self._rr[job.spec.priority]:
            self._rr[job.spec.priority].append(tenant)
        queues[tenant].append(job)
        self._queued += 1
        self._idle.clear()
        self._journal(job)
        _METRICS.inc("service.admitted")
        _METRICS.inc(f"service.tenant.{tenant}.admitted")
        _METRICS.set_gauge("service.queue_depth", self._queued)
        if self._tracer.enabled:
            self._tracer.emit(
                "job.admit", "service", job=job.id, tenant=tenant,
                kind=job.spec.kind, priority=job.spec.priority,
            )
        assert self._wake is not None
        self._wake.set()
        return job

    async def _admit_once(self, job: Job) -> Job:
        # On the loop, so the lookup and the admission are one step:
        # concurrent POSTs of one id cannot both admit it.
        held = self._jobs.get(job.id)
        if held is None and self.journal is not None:
            record = self.journal.load(job.id)
            if record is not None:
                held = Job(
                    id=job.id,
                    spec=JobSpec.from_record(record.get("spec") or {}),
                    state=record.get("state", "unknown"),
                )
        if held is not None:
            return held
        return await self._admit(job)

    async def _waiter_for(self, job: Job) -> Future:
        waiter = self._waiters.get(job.id)
        if waiter is None:
            waiter = Future()
            if job.terminal:
                self._settle(waiter, job, None)
            else:
                self._waiters[job.id] = waiter
        return waiter

    def _resolve_waiter(
        self, job: Job, error: BaseException | None
    ) -> None:
        """Settle *job*'s waiter, if it has one; a terminal job's waiter
        also leaves ``_waiters``."""
        if job.terminal:
            waiter = self._waiters.pop(job.id, None)
        else:
            waiter = self._waiters.get(job.id)
        if waiter is not None and not waiter.done():
            self._settle(waiter, job, error)

    def _settle(
        self, waiter: Future, job: Job, error: BaseException | None
    ) -> None:
        if error is not None:
            waiter.set_exception(error)
        elif job.state == "done":
            waiter.set_result(job.result or {})
        elif job.terminal:
            waiter.set_exception(
                self._terminal_error(
                    job.id, job.state, job.error or ("JobFailed", "")
                )
            )

    # -- scheduling ----------------------------------------------------------

    def _pick(self, now: float) -> Job | None:
        """Next runnable job: priority order, round-robin tenants,
        tenants at their running cap skipped."""
        for priority in PRIORITIES:
            order = self._rr[priority]
            queues = self._queues[priority]
            for _ in range(len(order)):
                tenant = order[0]
                order.rotate(-1)
                queue = queues.get(tenant)
                if not queue:
                    continue
                if (
                    self._tenant_running.get(tenant, 0)
                    >= self.config.tenant_cap
                ):
                    continue
                job = queue.popleft()
                self._queued -= 1
                _METRICS.set_gauge("service.queue_depth", self._queued)
                return job
        return None

    def _expire_queued(self, now: float) -> None:
        for priority in PRIORITIES:
            for queue in self._queues[priority].values():
                survivors = [
                    job for job in queue
                    if not self._maybe_expire(job, now)
                ]
                if len(survivors) != len(queue):
                    self._queued -= len(queue) - len(survivors)
                    _METRICS.set_gauge(
                        "service.queue_depth", self._queued
                    )
                    queue.clear()
                    queue.extend(survivors)

    def _maybe_expire(self, job: Job, now: float) -> bool:
        """Terminally expire *job* if its deadline passed (does not
        touch the queued count; callers own that bookkeeping)."""
        remaining = job.remaining(now)
        if remaining is None or remaining > 0:
            return False
        self._finish(
            job, "expired",
            error=JobExpired(
                "deadline passed while queued",
                job_id=job.id, deadline=job.spec.deadline,
            ),
        )
        return True

    def _next_deadline(self, now: float) -> float | None:
        deadlines = [
            job.deadline_at
            for queues in self._queues.values()
            for queue in queues.values()
            for job in queue
            if job.deadline_at is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now)

    async def _scheduler(self) -> None:
        assert self._wake is not None
        while True:
            now = time.monotonic()
            self._expire_queued(now)
            while (
                not self._dispatch_paused
                and len(self._running) < self.config.workers
            ):
                job = self._pick(now)
                if job is None:
                    break
                if self._maybe_expire(job, now):
                    continue
                self._start_job(job, now)
            if not self._queued and not self._running:
                self._idle.set()
            self._wake.clear()
            timeout = self._next_deadline(time.monotonic())
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=timeout
                )
            except asyncio.TimeoutError:
                pass

    def _start_job(self, job: Job, now: float) -> None:
        # Not journaled: recovery re-runs a queued record exactly as it
        # would a running one, so the record stays "queued" until the
        # terminal one, and a job costs two fsynced puts.
        job.state = "running"
        job.started_at = now
        tenant = job.spec.tenant
        self._running[job.id] = job
        self._tenant_running[tenant] = (
            self._tenant_running.get(tenant, 0) + 1
        )
        wait = now - job.submitted_at
        _METRICS.observe("service.wait_seconds", wait)
        _METRICS.observe(f"service.tenant.{tenant}.wait_seconds", wait)
        if self._tracer.enabled:
            self._tracer.emit(
                "job.start", "service", job=job.id, tenant=tenant,
            )
        assert self._loop is not None and self._executor is not None
        future = self._loop.run_in_executor(
            self._executor, self._run_job, job
        )
        future.add_done_callback(
            lambda fut, job=job: self._job_done(job, fut)
        )

    # -- execution (worker threads) ------------------------------------------

    def effective_cell_deadline(
        self, job: Job, now: float | None = None
    ) -> float | None:
        """The supervisor cell deadline this job's work runs under:
        the configured ``cell_deadline`` tightened by the job's
        remaining budget (whichever is smaller wins)."""
        remaining = job.remaining(now if now is not None else
                                  time.monotonic())
        configured = _settings.current().cell_deadline
        if remaining is None:
            return configured
        remaining = max(0.0, remaining)
        if configured is None:
            return remaining
        return min(configured, remaining)

    def _run_job(self, job: Job) -> dict:
        now = time.monotonic()
        remaining = job.remaining(now)
        if remaining is not None and remaining <= 0:
            raise JobExpired(
                "deadline passed before execution started",
                job_id=job.id, deadline=job.spec.deadline,
            )
        cell_deadline = self.effective_cell_deadline(job, now)
        with _settings.use_settings(cell_deadline=cell_deadline), \
                use_squash_pool(self._pool):
            result = self._execute_fn(job.spec)
        if job.deadline_at is not None and (
            time.monotonic() > job.deadline_at
        ):
            # Completed late: the deadline contract says cancel, so
            # the (already computed) result is discarded.
            raise JobExpired(
                "work finished after the deadline; result discarded",
                job_id=job.id, deadline=job.spec.deadline,
            )
        return result

    def _job_done(self, job: Job, future) -> None:
        """Executor completion -> terminal accounting on the loop."""
        try:
            result = future.result()
            error = None
        except BaseException as exc:  # noqa: BLE001 - classified below
            result, error = None, exc
        loop = self._loop
        if loop is None:
            return  # engine stopped mid-callback; journal kept "queued"
        try:
            loop.call_soon_threadsafe(
                self._finish_running, job, result, error
            )
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _release_slot(self, job: Job) -> None:
        del self._running[job.id]
        tenant = job.spec.tenant
        count = self._tenant_running.get(tenant, 0) - 1
        if count > 0:
            self._tenant_running[tenant] = count
        else:
            self._tenant_running.pop(tenant, None)

    def _finish_running(
        self, job: Job, result: dict | None, error: BaseException | None
    ) -> None:
        if job.id not in self._running:
            return  # a drain requeued it
        self._release_slot(job)
        tenant = job.spec.tenant
        if job.started_at is not None:
            elapsed = time.monotonic() - job.started_at
            self._avg_run = 0.8 * self._avg_run + 0.2 * elapsed
            _METRICS.observe("service.run_seconds", elapsed)
            _METRICS.observe(
                f"service.tenant.{tenant}.run_seconds", elapsed
            )
        if error is None:
            job.result = result
            self._finish(job, "done")
        elif isinstance(error, JobExpired):
            self._finish(job, "expired", error=error)
        else:
            self._finish(job, "failed", error=error)
        assert self._wake is not None
        self._wake.set()

    def _finish(
        self, job: Job, state: str, error: BaseException | None = None
    ) -> None:
        job.state = state
        job.finished_at = time.monotonic()
        if error is not None:
            job.error = (type(error).__name__, str(error))
        self._journal(job)
        _METRICS.inc(f"service.{state}")
        _METRICS.inc(f"service.tenant.{job.spec.tenant}.{state}")
        if self._tracer.enabled:
            self._tracer.emit(
                "job.done", "service", job=job.id, state=state,
            )
        self._resolve_waiter(
            job,
            error if isinstance(
                error, (JobExpired, ServiceOverloaded)
            ) else None,
        )
        self._terminal_count += 1
        self._terminal.append(job.id)
        while len(self._terminal) > KEPT_TERMINAL_JOBS:
            self._jobs.pop(self._terminal.popleft(), None)
        if not self._queued and not self._running:
            self._idle.set()


# -- process-wide engine ------------------------------------------------------

_ENGINE: JobEngine | None = None
_ENGINE_LOCK = threading.Lock()


def get_engine() -> JobEngine:
    """The process-wide engine behind ``ServiceClient("local")``;
    lazily started (with journal recovery) on first use."""
    global _ENGINE
    with _ENGINE_LOCK:
        if _ENGINE is None:
            _ENGINE = JobEngine().start(recover=True)
        return _ENGINE


def reset_engine() -> None:
    """Stop and forget the process-wide engine (tests)."""
    global _ENGINE
    with _ENGINE_LOCK:
        engine, _ENGINE = _ENGINE, None
    if engine is not None:
        engine.stop(drain_timeout=0.5)
