"""Supervisor contract: retries, crashes, timeouts, breaker, policy.

Pool tests pass an explicit ``workers=2``: the supervision contract is
only meaningful against disposable workers, and CI hosts may report a
single CPU.
"""

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import BreakerOpen, CellFailure, SquashError
from repro.resilience import (
    CircuitBreaker,
    RetryPolicy,
    Supervisor,
    SupervisorConfig,
    Task,
    get_pool_manager,
)
from tests._supervised_workers import work

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


def _config(**overrides):
    defaults = dict(workers=2, retry=FAST_RETRY)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _tasks(*payloads, cls=""):
    return [
        Task(key=i, payload=payload, cls=cls, label=f"task-{i}")
        for i, payload in enumerate(payloads)
    ]


class TestHappyPath:
    def test_parallel_results(self):
        tasks = _tasks(*({"op": "ok", "value": i} for i in range(4)))
        report = Supervisor(work, _config()).run(tasks)
        assert report.ok
        assert report.results == {0: 0, 1: 1, 2: 2, 3: 3}
        assert report.executions == 4
        assert report.pool_rebuilds == 0

    def test_serial_results(self):
        tasks = _tasks(*({"op": "ok", "value": i} for i in range(3)))
        report = Supervisor(work, _config()).run(tasks, parallel=False)
        assert report.ok and report.results == {0: 0, 1: 1, 2: 2}

    def test_on_result_fires_per_success(self):
        seen = []
        tasks = _tasks(*({"op": "ok", "value": i * 10} for i in range(3)))
        sup = Supervisor(
            work, _config(), on_result=lambda t, r: seen.append((t.key, r))
        )
        sup.run(tasks, parallel=False)
        assert sorted(seen) == [(0, 0), (1, 10), (2, 20)]

    def test_duplicate_keys_rejected(self):
        tasks = [Task(key=1, payload={}), Task(key=1, payload={})]
        with pytest.raises(ValueError):
            Supervisor(work, _config()).run(tasks)


class TestRetries:
    def test_transient_failure_retried_to_success(self, tmp_path):
        payload = {
            "op": "fail_until", "path": str(tmp_path / "c"), "n": 2,
        }
        report = Supervisor(work, _config()).run(_tasks(payload))
        assert report.ok
        assert report.results[0] == "recovered"
        errors = [e for e in report.events if e.kind == "error"]
        assert len(errors) == 2
        assert all(e.retried for e in errors)
        assert all(e.error_type == "RuntimeError" for e in errors)

    def test_exhaustion_is_one_typed_cellfailure(self):
        report = Supervisor(
            work, _config(retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
        ).run(_tasks({"op": "always_fail"}), parallel=False)
        assert not report.ok
        failure = report.failures[0]
        assert isinstance(failure, CellFailure)
        assert isinstance(failure, SquashError)  # typed, catchable family
        assert isinstance(failure.__cause__, ValueError)
        assert "task-0" in str(failure)
        assert report.executions == 2
        assert not report.events[-1].retried

    def test_sibling_results_survive_a_lost_cell(self):
        tasks = _tasks({"op": "always_fail"}, {"op": "ok", "value": 7})
        report = Supervisor(
            work, _config(retry=RetryPolicy(max_attempts=1))
        ).run(tasks)
        assert report.results == {1: 7}
        assert set(report.failures) == {0}


class TestCrashIsolation:
    def test_worker_death_costs_one_rebuild_not_the_sweep(self, tmp_path):
        tasks = _tasks(
            {"op": "exit_until", "path": str(tmp_path / "c"), "n": 1},
            *({"op": "ok", "value": i} for i in range(3)),
        )
        report = Supervisor(work, _config()).run(tasks)
        assert report.ok
        assert report.results[0] == "survived"
        assert report.pool_rebuilds >= 1
        crashes = [e for e in report.events if e.kind == "crash"]
        assert crashes and all(e.retried for e in crashes)

    def test_broken_pool_at_submit_time_is_replaced(self):
        """A worker death can surface synchronously: ``pool.submit``
        itself raises ``BrokenProcessPool`` when the crash lands while
        later tasks are still being queued.  The supervisor must treat
        that like an in-flight break — replace the pool and run the
        never-submitted task on the replacement, unscathed."""
        Supervisor(work, _config()).run(_tasks({"op": "ok", "value": 0}))
        _fingerprint, pool = get_pool_manager()._parked[2]
        real_submit, fired = pool.submit, []

        def submit_once_broken(fn, *args, **kwargs):
            if not fired:
                fired.append(True)
                raise BrokenProcessPool("worker died before submit")
            return real_submit(fn, *args, **kwargs)

        pool.submit = submit_once_broken
        tasks = _tasks(*({"op": "ok", "value": i} for i in range(2)))
        report = Supervisor(work, _config()).run(tasks)
        assert report.ok
        assert report.results == {0: 0, 1: 1}
        assert report.pool_rebuilds == 1
        assert report.executions == 2  # the failed submit never ran

    def test_crashes_have_their_own_generous_cap(self):
        policy = RetryPolicy(max_attempts=2, crash_cap_factor=4)
        assert policy.crash_cap == 8  # bystanders absorb blast radius


class TestTimeouts:
    def test_hung_task_times_out_and_recovers(self, tmp_path):
        tasks = _tasks(
            {
                "op": "sleep_until", "path": str(tmp_path / "c"),
                "n": 1, "secs": 30.0,
            },
            {"op": "ok", "value": 1},
        )
        start = time.monotonic()
        report = Supervisor(work, _config(deadline=1.0)).run(tasks)
        assert time.monotonic() - start < 20.0  # never waits the sleep out
        assert report.ok
        assert report.results[0] == "awake"
        kinds = {e.kind for e in report.events}
        assert "timeout" in kinds
        assert report.pool_rebuilds >= 1


class TestBreaker:
    def test_breaker_opens_and_skips_typed(self):
        tasks = _tasks(*({"op": "always_fail"} for _ in range(3)), cls="bad")
        tasks += [Task(key="g", payload={"op": "ok", "value": 5}, cls="good")]
        report = Supervisor(
            work,
            _config(retry=RetryPolicy(max_attempts=1), breaker_threshold=2),
        ).run(tasks, parallel=False)
        assert report.results == {"g": 5}  # other classes unaffected
        skipped = [
            f for f in report.failures.values() if f.reason == "breaker-open"
        ]
        assert skipped
        assert all(isinstance(f.__cause__, BreakerOpen) for f in skipped)
        assert report.executions == 3  # the skipped task never ran

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("x")
        breaker.record_success("x")
        breaker.record_failure("x")
        assert not breaker.is_open("x")
        breaker.record_failure("x")
        assert breaker.is_open("x")
        assert breaker.open_classes == ("x",)

    def test_zero_threshold_never_opens(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(100):
            breaker.record_failure("x")
        assert not breaker.is_open("x")


class TestInterrupt:
    def test_keyboard_interrupt_discards_lease_and_reraises(self):
        """Ctrl-C mid-sweep must propagate, cancel the in-flight
        futures, and hand the lease back through discard — never park
        a mid-task pool warm for the next run to inherit."""
        from repro.obs.metrics import get_registry
        from repro.resilience.workerpool import reset_pool_manager

        reset_pool_manager()
        metrics = get_registry()
        discards_before = metrics.counter("pool.discards").value
        interrupts_before = metrics.counter(
            "supervisor.interrupted"
        ).value

        def interrupt(task, result):
            raise KeyboardInterrupt

        tasks = _tasks(*({"op": "ok", "value": i} for i in range(4)))
        sup = Supervisor(work, _config(), on_result=interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                sup.run(tasks)
            assert get_pool_manager().parked_count() == 0
            assert (
                metrics.counter("pool.discards").value
                == discards_before + 1
            )
            assert (
                metrics.counter("supervisor.interrupted").value
                == interrupts_before + 1
            )
        finally:
            reset_pool_manager()

    def test_serial_interrupt_propagates(self):
        def interrupt(task, result):
            raise KeyboardInterrupt

        sup = Supervisor(
            work, _config(), on_result=interrupt
        )
        with pytest.raises(KeyboardInterrupt):
            sup.run(_tasks({"op": "ok", "value": 1}), parallel=False)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay("cell-a", 2) == policy.delay("cell-a", 2)
        assert policy.delay("cell-a", 2) != policy.delay("cell-b", 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5, jitter=0.0
        )
        delays = [policy.delay("k", attempt) for attempt in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=1.0, jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay("k", attempt)
            assert 0.75 <= delay <= 1.25

    def test_zero_base_means_no_wait(self):
        assert RetryPolicy(backoff_base=0.0).delay("k", 3) == 0.0


class TestEnvConfig:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_DEADLINE", "12.5")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "3")
        config = SupervisorConfig.from_settings()
        assert config.deadline == 12.5
        assert config.retry.max_attempts == 5
        assert config.breaker_threshold == 3

    def test_malformed_env_falls_back_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_DEADLINE", "soon")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "many")
        config = SupervisorConfig.from_settings()
        assert config.deadline is None
        assert config.retry.max_attempts == 3
