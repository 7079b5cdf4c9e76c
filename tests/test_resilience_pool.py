"""Persistent worker pool: reuse, invalidation, and supervisor safety.

The :class:`~repro.resilience.workerpool.PoolManager` must hand warm
workers to consecutive supervised runs (same worker PIDs), yet never
reuse a pool across a fingerprint change (settings, ``REPRO_*``
environment, working directory) or a broken executor.
"""

from __future__ import annotations

import pytest

from repro import settings
from repro.obs.metrics import get_registry
from repro.resilience import (
    RetryPolicy,
    Supervisor,
    SupervisorConfig,
    Task,
    get_pool_manager,
    pool_fingerprint,
    reset_pool_manager,
)
from tests._supervised_workers import work

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture(autouse=True)
def fresh_manager():
    reset_pool_manager()
    yield
    reset_pool_manager()


def _config(**overrides):
    defaults = dict(workers=2, retry=FAST_RETRY)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _pid_tasks(count=4):
    return [
        Task(key=i, payload={"op": "pid"}, label=f"pid-{i}")
        for i in range(count)
    ]


def _pool_counters():
    counters = get_registry().snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("pool.")}


class TestWarmReuse:
    def test_consecutive_runs_share_worker_processes(self):
        before = _pool_counters()
        first = Supervisor(work, _config()).run(_pid_tasks())
        second = Supervisor(work, _config()).run(_pid_tasks())
        assert first.ok and second.ok
        # Same long-lived worker processes served both runs.  (A fresh
        # pool would share no PIDs; the first run may observe only a
        # subset of the pool when a worker spawns slowly under load,
        # so subset-in-either-direction is the wrong shape to pin.)
        assert set(second.results.values()) & set(first.results.values())
        after = _pool_counters()
        assert (
            after.get("pool.acquire.reuse", 0)
            - before.get("pool.acquire.reuse", 0)
        ) >= 1

    def test_pool_parked_between_runs(self):
        Supervisor(work, _config()).run(_pid_tasks())
        assert get_pool_manager().parked_count() == 1

    def test_different_worker_counts_get_distinct_pools(self):
        Supervisor(work, _config(workers=2)).run(_pid_tasks())
        Supervisor(work, _config(workers=3)).run(_pid_tasks())
        assert get_pool_manager().parked_count() == 2


class TestInvalidation:
    def test_env_change_invalidates_fingerprint(self, monkeypatch):
        first = pool_fingerprint()
        monkeypatch.setenv("REPRO_CHAOS_SPEC", '{"seed": 1}')
        assert pool_fingerprint() != first

    def test_settings_override_invalidates_fingerprint(self):
        first = pool_fingerprint()
        with settings.use_settings(vm_watchdog=123456):
            assert pool_fingerprint() != first
        assert pool_fingerprint() == first

    def test_env_change_forces_fresh_workers(self, monkeypatch):
        first = Supervisor(work, _config()).run(_pid_tasks())
        monkeypatch.setenv("REPRO_CHAOS_SPEC", '{"seed": 7}')
        second = Supervisor(work, _config()).run(_pid_tasks())
        assert first.ok and second.ok
        assert not (
            set(first.results.values()) & set(second.results.values())
        )


class TestBrokenPools:
    def test_crashed_pool_is_not_reused(self, tmp_path):
        tasks = [
            Task(
                key=0,
                payload={
                    "op": "exit_until", "path": str(tmp_path / "c"), "n": 1,
                },
                label="crasher",
            ),
            Task(key=1, payload={"op": "ok", "value": 1}),
        ]
        report = Supervisor(work, _config()).run(tasks)
        assert report.ok
        assert report.pool_rebuilds >= 1
        # The replacement pool (healthy) is parked; the broken one died.
        assert get_pool_manager().parked_count() == 1
        follow_up = Supervisor(work, _config()).run(_pid_tasks())
        assert follow_up.ok

    def test_hung_pool_is_killed_not_parked(self, tmp_path):
        tasks = [
            Task(
                key=0,
                payload={
                    "op": "sleep_until",
                    "path": str(tmp_path / "c"),
                    "n": 1,
                    "secs": 30.0,
                },
                label="sleeper",
            ),
            Task(key=1, payload={"op": "ok", "value": 1}),
        ]
        report = Supervisor(work, _config(deadline=1.0)).run(tasks)
        assert report.ok
        assert report.results[0] == "awake"
        follow_up = Supervisor(work, _config()).run(_pid_tasks())
        assert follow_up.ok
