"""Persistent warm worker pools, leased across supervised runs.

Before this module, every supervised fan-out built a fresh
``ProcessPoolExecutor`` and tore it down when the run finished, so each
sweep re-paid process spawn plus every per-process warm-up cost (codec
tables, imported modules, deserialized stage bundles) even when the
next sweep started milliseconds later in the same driver.

:class:`PoolManager` keeps one warm pool per worker count and leases it
out: :meth:`~PoolManager.acquire` hands an exclusive
:class:`PoolLease` (reusing the cached pool when it is compatible,
building a fresh one otherwise) and :meth:`~PoolManager.release` parks
the pool for the next run instead of killing it.  A pool that broke or
hung is returned through :meth:`~PoolManager.discard` and is never
parked.  Reuse is gated two ways:

- **Fingerprint** — a cached pool is only reused while
  :func:`pool_fingerprint` (the resolved :class:`repro.settings`
  snapshot, the working directory, and every ``REPRO_*`` environment
  variable) is unchanged.  Workers inherit their environment at spawn
  time, so any change the parent could not propagate — arming
  ``REPRO_CHAOS_SPEC``, moving the cache dir, flipping a decode
  backend — invalidates the warm pool rather than running against a
  stale view of it.
- **Health** — a pool whose executor reports itself broken is
  rebuilt, never reused.

The warm/cold decision is observable: ``pool.acquire.reuse`` /
``pool.acquire.fresh`` count in the unified metrics registry
(:mod:`repro.obs.metrics`), and the once-per-host warm-up work the
reuse avoids is exactly what ``stagecache.*`` and ``codec table``
counters measure.  All parked pools are torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro import settings as _settings
from repro.obs.metrics import get_registry

__all__ = [
    "PoolLease",
    "PoolManager",
    "get_pool_manager",
    "pool_fingerprint",
    "reset_pool_manager",
]

_METRICS = get_registry()


def pool_fingerprint() -> str:
    """Everything a spawned worker bakes in at fork time.

    Two runs may share a warm pool only when this string matches: the
    resolved settings snapshot (so programmatic ``use_settings``
    overrides invalidate too), the working directory (relative cache
    roots), and the full ``REPRO_*`` environment, which covers knobs
    the settings layer does not model — chaos specs above all.
    """
    env = sorted(
        (key, value)
        for key, value in _settings._ENVIRON.items()
        if key.startswith("REPRO_")
    )
    return repr((repr(_settings.current()), os.getcwd(), env))


@dataclass
class PoolLease:
    """An exclusively-held executor checked out of the manager."""

    pool: ProcessPoolExecutor
    workers: int
    fingerprint: str
    #: True when the lease reused a parked warm pool.
    reused: bool = False


def _pool_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether the executor has declared itself unusable.

    ``_broken`` is private-but-stable CPython state (set when a worker
    dies); without it, assume healthy — submitting to a genuinely
    broken pool raises and the supervisor's crash path takes over.
    """
    return bool(getattr(pool, "_broken", False))


class PoolManager:
    """Process-wide lease registry of warm ``ProcessPoolExecutor``s.

    One parked pool per worker count; a leased pool is popped from the
    registry, so two concurrent supervised runs never share an
    executor — the second acquire simply builds its own.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: workers -> (fingerprint, parked executor)
        self._parked: dict[int, tuple[str, ProcessPoolExecutor]] = {}

    # -- lease lifecycle -----------------------------------------------------

    def acquire(
        self,
        workers: int,
        initializer: Callable[[], None] | None = None,
    ) -> PoolLease:
        """Lease a pool of *workers*, warm when possible."""
        fingerprint = pool_fingerprint()
        stale: ProcessPoolExecutor | None = None
        with self._lock:
            entry = self._parked.pop(workers, None)
        if entry is not None:
            parked_fp, pool = entry
            if parked_fp == fingerprint and not _pool_broken(pool):
                _METRICS.inc("pool.acquire.reuse")
                return PoolLease(
                    pool=pool,
                    workers=workers,
                    fingerprint=fingerprint,
                    reused=True,
                )
            stale = pool
        if stale is not None:
            _shutdown_pool(stale, kill=False)
            _METRICS.inc("pool.stale_discards")
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer
        )
        _METRICS.inc("pool.acquire.fresh")
        return PoolLease(
            pool=pool, workers=workers, fingerprint=fingerprint
        )

    def release(self, lease: PoolLease) -> bool:
        """Return a healthy pool; True when it was parked for reuse.

        A broken executor, or an already-parked pool for the same
        worker count, means the pool is shut down instead.
        """
        if not _pool_broken(lease.pool):
            with self._lock:
                if lease.workers not in self._parked:
                    self._parked[lease.workers] = (
                        lease.fingerprint, lease.pool
                    )
                    _METRICS.inc("pool.released.parked")
                    return True
        _shutdown_pool(lease.pool, kill=False)
        _METRICS.inc("pool.released.closed")
        return False

    def discard(self, lease: PoolLease, kill: bool) -> None:
        """Destroy a broken or hung pool; it is never parked."""
        _shutdown_pool(lease.pool, kill=kill)
        _METRICS.inc("pool.discards")

    # -- maintenance ---------------------------------------------------------

    def parked_count(self) -> int:
        with self._lock:
            return len(self._parked)

    def shutdown_all(self, kill: bool = False) -> None:
        """Tear down every parked pool (atexit hook and test hygiene)."""
        with self._lock:
            entries = list(self._parked.values())
            self._parked.clear()
        for _fingerprint, pool in entries:
            _shutdown_pool(pool, kill=kill)


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
    if kill:
        # Hung workers never return; SIGTERM them so a sweep does not
        # leak a process per timeout.  ``_processes`` is
        # private-but-stable CPython; degrade gracefully without it.
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
    # Idle teardowns join (quick, and leaves no half-closed wakeup
    # pipes for the interpreter's own atexit hook to trip over); kill
    # paths stay non-blocking because a hung worker may ignore SIGTERM.
    pool.shutdown(wait=not kill, cancel_futures=True)


_MANAGER: PoolManager | None = None
_MANAGER_LOCK = threading.Lock()


def get_pool_manager() -> PoolManager:
    """The process-wide manager, created (and atexit-armed) on first use."""
    global _MANAGER
    with _MANAGER_LOCK:
        if _MANAGER is None:
            _MANAGER = PoolManager()
            atexit.register(_MANAGER.shutdown_all)
        return _MANAGER


def reset_pool_manager() -> None:
    """Shut down all parked pools and forget the manager (tests)."""
    global _MANAGER
    with _MANAGER_LOCK:
        manager, _MANAGER = _MANAGER, None
    if manager is not None:
        manager.shutdown_all(kill=True)
