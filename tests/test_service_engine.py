"""The service engine: admission, shedding, priorities, fairness,
deadlines, drain.

Engine tests run journal-less (``ServiceConfig(journal=False)``) with
stub job bodies so they exercise the scheduling contract, not the
squash pipeline; one integration test at the bottom runs a real squash
job and proves byte-identity against the direct facade call.
"""

import threading
import time

import pytest

from repro import settings
from repro.errors import (
    JobExpired,
    ServiceOverloaded,
    SpecError,
    SquashError,
    UnknownJob,
)
from repro.service import JobEngine, JobSpec, ServiceConfig
from repro.service.engine import KEPT_TERMINAL_JOBS


def _config(**overrides):
    defaults = dict(
        queue_depth=8, workers=2, tenant_cap=1,
        drain_timeout=5.0, journal=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _spec(value=0, tenant="default", priority="batch", deadline=None,
          **payload):
    payload.setdefault("name", "adpcm")
    payload["value"] = value
    return JobSpec(
        kind="squash", payload=payload, tenant=tenant,
        priority=priority, deadline=deadline,
    )


def _echo(spec):
    time.sleep(spec.payload.get("secs", 0.0))
    return {"value": spec.payload.get("value")}


def _resume(engine):
    engine._dispatch_paused = False
    engine._loop.call_soon_threadsafe(engine._wake.set)


@pytest.fixture
def engine(request):
    built = []

    def make(execute_fn=_echo, paused=False, **overrides):
        eng = JobEngine(_config(**overrides), execute_fn=execute_fn)
        eng._dispatch_paused = paused
        eng.start(recover=False)
        built.append(eng)
        return eng

    yield make
    for eng in built:
        eng.stop(drain_timeout=0.2)


class TestAdmission:
    def test_submit_runs_and_returns_result(self, engine):
        eng = engine()
        job = eng.submit(_spec(value=7))
        assert eng.result(job.id, timeout=10.0) == {"value": 7}
        assert eng.status(job.id)["state"] == "done"

    def test_invalid_spec_is_typed(self, engine):
        eng = engine()
        with pytest.raises(SpecError):
            eng.submit(JobSpec(kind="transmogrify"))
        with pytest.raises(SpecError):
            eng.submit(JobSpec(kind="squash", payload={"name": "doom"}))
        with pytest.raises(SpecError):
            eng.submit(_spec(priority="urgent"))
        with pytest.raises(SpecError):
            eng.submit(_spec(deadline=-1.0))

    def test_queue_full_sheds_typed_with_retry_after(self, engine):
        eng = engine(paused=True, queue_depth=3)
        accepted = [eng.submit(_spec(value=i)) for i in range(3)]
        with pytest.raises(ServiceOverloaded) as exc:
            eng.submit(_spec(value=99))
        assert exc.value.reason == "queue-full"
        assert exc.value.retry_after > 0
        assert isinstance(exc.value, SquashError)
        # Shedding never loses accepted work: everything admitted
        # before the shed still completes.
        _resume(eng)
        for index, job in enumerate(accepted):
            assert eng.result(job.id, timeout=10.0) == {"value": index}

    def test_unknown_job_is_typed(self, engine):
        eng = engine()
        with pytest.raises(UnknownJob) as exc:
            eng.status("no-such-job")
        assert isinstance(exc.value, KeyError)
        assert isinstance(exc.value, SquashError)
        with pytest.raises(UnknownJob):
            eng.result("no-such-job")


class TestScheduling:
    def test_interactive_runs_before_batch_backlog(self, engine):
        order = []

        def tracking(spec):
            order.append(spec.payload["value"])
            return {}

        eng = engine(execute_fn=tracking, paused=True, workers=1)
        for index in range(3):
            eng.submit(_spec(value=("batch", index)))
        vip = eng.submit(
            _spec(value=("vip", 0), priority="interactive")
        )
        _resume(eng)
        eng.result(vip.id, timeout=10.0)
        assert order[0] == ("vip", 0)

    def test_tenant_round_robin_prevents_starvation(self, engine):
        order = []

        def tracking(spec):
            order.append(spec.tenant)
            return {}

        eng = engine(execute_fn=tracking, paused=True, workers=1)
        hog = [
            eng.submit(_spec(value=i, tenant="hog")) for i in range(4)
        ]
        mouse = [
            eng.submit(_spec(value=i, tenant="mouse")) for i in range(2)
        ]
        _resume(eng)
        for job in hog + mouse:
            eng.result(job.id, timeout=10.0)
        # Round-robin interleaves the mouse between the hog's jobs
        # instead of running the whole hog backlog first.
        assert order.index("mouse") <= 1
        assert [t for t in order[:4] if t == "mouse"] == ["mouse"] * 2

    def test_tenant_cap_limits_concurrency(self, engine):
        running = []
        peak = []
        lock = threading.Lock()

        def tracking(spec):
            with lock:
                running.append(spec.tenant)
                peak.append(running.count("greedy"))
            time.sleep(0.05)
            with lock:
                running.remove(spec.tenant)
            return {}

        eng = engine(
            execute_fn=tracking, paused=True, workers=4, tenant_cap=1
        )
        jobs = [
            eng.submit(_spec(value=i, tenant="greedy")) for i in range(4)
        ]
        _resume(eng)
        for job in jobs:
            eng.result(job.id, timeout=10.0)
        assert max(peak) == 1  # cap 1: never two greedy jobs at once


class TestDeadlines:
    def test_queued_job_expires_typed(self, engine):
        eng = engine(paused=True)
        job = eng.submit(_spec(deadline=0.02))
        with pytest.raises(JobExpired) as exc:
            eng.result(job.id, timeout=10.0)
        assert exc.value.job_id == job.id
        assert eng.status(job.id)["state"] == "expired"

    def test_deadline_tightens_cell_deadline(self, engine):
        def observing(spec):
            return {"cell_deadline": settings.current().cell_deadline}

        eng = engine(execute_fn=observing)
        job = eng.submit(_spec(deadline=30.0))
        observed = eng.result(job.id, timeout=10.0)["cell_deadline"]
        assert observed is not None
        assert 0 < observed <= 30.0
        # No job deadline: the configured cell deadline is untouched.
        job = eng.submit(_spec())
        assert (
            eng.result(job.id, timeout=10.0)["cell_deadline"]
            == settings.current().cell_deadline
        )

    def test_job_finishing_late_is_expired_not_late(self, engine):
        eng = engine()
        job = eng.submit(_spec(secs=0.3, deadline=0.05))
        with pytest.raises(JobExpired, match="deadline"):
            eng.result(job.id, timeout=10.0)
        assert eng.status(job.id)["result"] is None  # discarded

    def test_effective_cell_deadline_takes_the_minimum(self, engine):
        eng = engine()
        job = eng.submit(_spec(deadline=1000.0))
        eng.result(job.id, timeout=10.0)
        with settings.use_settings(cell_deadline=5.0):
            assert eng.effective_cell_deadline(job) == 5.0
        with settings.use_settings(cell_deadline=None):
            remaining = eng.effective_cell_deadline(job)
            assert remaining is not None and remaining < 1000.0


class TestMemory:
    def test_old_terminal_jobs_are_unknown_without_a_journal(self, engine):
        eng = engine(queue_depth=KEPT_TERMINAL_JOBS + 1)
        jobs = [
            eng.submit(_spec(value=i)) for i in range(KEPT_TERMINAL_JOBS + 1)
        ]
        assert eng.result(jobs[-1].id, timeout=30.0) == {
            "value": KEPT_TERMINAL_JOBS
        }
        assert eng.stats()["jobs"] == KEPT_TERMINAL_JOBS
        with pytest.raises(UnknownJob):
            eng.status(jobs[0].id)
        assert eng.status(jobs[1].id)["state"] == "done"


class TestDrain:
    def test_drain_requeues_and_sheds_new_submissions(self, engine):
        eng = engine(paused=True, workers=1)
        jobs = [eng.submit(_spec(value=i)) for i in range(3)]
        caught = []

        def waiter():
            try:
                eng.result(jobs[0].id, timeout=10.0)
            except BaseException as exc:  # noqa: BLE001 - recorded
                caught.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        report = eng.drain(timeout=0.1)
        assert report["requeued"] == 3
        for job in jobs:
            assert eng.status(job.id)["state"] == "requeued"
        thread.join(timeout=5.0)
        assert caught and isinstance(caught[0], ServiceOverloaded)
        assert caught[0].reason == "draining"
        with pytest.raises(ServiceOverloaded) as exc:
            eng.submit(_spec())
        assert exc.value.reason == "draining"

    def test_stopped_engine_sheds_typed(self):
        eng = JobEngine(_config(), execute_fn=_echo)
        eng.start(recover=False)
        eng.stop(drain_timeout=0.2)
        with pytest.raises(ServiceOverloaded) as exc:
            eng.submit(_spec())
        assert exc.value.reason == "stopped"


class TestRealExecution:
    def test_squash_job_is_byte_identical_to_direct_call(self):
        import repro.api as api
        from repro.service.jobs import _image_digest

        eng = JobEngine(_config(workers=1)).start(recover=False)
        try:
            job = eng.submit(JobSpec(
                kind="squash",
                payload={"name": "adpcm", "theta": 1e-4, "scale": 0.2},
            ))
            result = eng.result(job.id, timeout=300.0)
        finally:
            eng.stop(drain_timeout=0.5)
        direct = api.squash_benchmark(
            "adpcm", 0.2, api.SquashConfig(theta=1e-4)
        )
        assert result["image_digest"] == _image_digest(direct)
        assert result["baseline_words"] == direct.baseline_words
        assert result["reduction"] == direct.reduction
