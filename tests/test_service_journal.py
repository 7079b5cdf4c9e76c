"""The crash-safe job journal."""

import threading
import time

from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.service import (
    JobEngine,
    JobJournal,
    JobSpec,
    ServiceConfig,
    new_job_id,
)
from repro.service.engine import KEPT_TERMINAL_JOBS
from repro.service.jobs import Job

_METRICS = get_registry()


def _config(**overrides):
    defaults = dict(
        queue_depth=8, workers=2, tenant_cap=2, drain_timeout=5.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _spec(value=0, **kwargs):
    return JobSpec(
        kind="squash", payload={"name": "adpcm", "value": value},
        **kwargs,
    )


def _echo(spec):
    time.sleep(spec.payload.get("secs", 0.0))
    return {"value": spec.payload.get("value")}


def _engine(tmp_path, execute_fn=_echo, **overrides):
    return JobEngine(
        _config(**overrides),
        journal=JobJournal(tmp_path),
        execute_fn=execute_fn,
    )


class TestJournal:
    def test_record_round_trips_each_transition(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = Job(id=new_job_id(), spec=_spec(value=3))
        for state in ("queued", "running", "done"):
            job.state = state
            if state == "done":
                job.result = {"value": 3}
            assert journal.record(job)
            record = journal.load(job.id)
            assert record["state"] == state
        assert record["result"] == {"value": 3}
        assert record["spec"]["kind"] == "squash"
        assert journal.load_all() == {job.id: record}

    def test_recover_returns_only_non_terminal_jobs(self, tmp_path):
        journal = JobJournal(tmp_path)
        states = ("queued", "running", "requeued", "done", "failed",
                  "expired", "shed")
        ids = {}
        for state in states:
            job = Job(id=new_job_id(), spec=_spec(), state=state)
            journal.record(job)
            ids[state] = job.id
        recovered = journal.recover()
        assert sorted(job.id for job in recovered) == sorted(
            ids[state] for state in ("queued", "running", "requeued")
        )
        assert all(job.recovered for job in recovered)
        assert all(job.state == "queued" for job in recovered)

    def test_engine_restart_finishes_killed_jobs(self, tmp_path):
        """The SIGKILL contract in miniature: records a dead service
        left mid-flight are re-enqueued on the next start and driven
        to a terminal state."""
        journal = JobJournal(tmp_path)
        dead = [
            Job(id=new_job_id(), spec=_spec(value=1), state="queued"),
            Job(id=new_job_id(), spec=_spec(value=2), state="running"),
        ]
        for job in dead:
            journal.record(job)
        engine = _engine(tmp_path)
        engine.start(recover=True)
        try:
            for job, value in zip(dead, (1, 2)):
                assert engine.result(job.id, timeout=10.0) == {
                    "value": value
                }
                status = engine.status(job.id)
                assert status["state"] == "done"
                assert status["recovered"]
        finally:
            engine.stop(drain_timeout=0.5)

    def test_engine_journals_queued_then_terminal_only(self, tmp_path):
        """Two records per job: the start of execution is not
        journaled, so a running job reads ``queued`` on disk (recovery
        re-runs it alike) and ``running`` on the status endpoint."""
        release = threading.Event()

        def blocked(spec):
            release.wait(10.0)
            return _echo(spec)

        engine = _engine(tmp_path, execute_fn=blocked)
        written = []
        record = engine.journal.record

        def spy(job):
            written.append((job.id, job.state))
            return record(job)

        engine.journal.record = spy
        engine.start(recover=False)
        try:
            job = engine.submit(_spec(value=5))
            deadline = time.monotonic() + 10.0
            while engine.status(job.id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert engine.journal.load(job.id)["state"] == "queued"
            release.set()
            assert engine.result(job.id, timeout=10.0) == {"value": 5}
        finally:
            release.set()
            engine.stop(drain_timeout=0.5)
        assert [state for job_id, state in written if job_id == job.id] == [
            "queued", "done",
        ]
        assert engine.journal.load(job.id)["state"] == "done"

    def test_dead_store_degrades_journal_not_jobs(self, tmp_path):
        engine = _engine(tmp_path)

        def dead_put(ns, key, value):
            raise StoreDegraded("disk is gone", reason="enospc")

        engine.journal._store.put = dead_put
        degraded_before = _METRICS.counter(
            "service.journal_degraded"
        ).value
        engine.start(recover=False)
        try:
            job = engine.submit(_spec(value=9))
            assert engine.result(job.id, timeout=10.0) == {"value": 9}
        finally:
            engine.stop(drain_timeout=0.5)
        assert (
            _METRICS.counter("service.journal_degraded").value
            > degraded_before
        )

    def test_journaled_jobs_leave_only_job_and_object_shards(self, tmp_path):
        """N journaled jobs leave the root holding only ``jobs/``, with
        one sealed file per job: the terminal record replaced the
        ``queued`` one, and nothing else is written."""
        engine = _engine(tmp_path)
        engine.start(recover=False)
        jobs = []
        try:
            for index in range(6):
                tenant = ("alice", "bob")[index % 2]
                jobs.append(engine.submit(_spec(value=index, tenant=tenant)))
            for index, job in enumerate(jobs):
                assert engine.result(job.id, timeout=10.0) == {
                    "value": index
                }
        finally:
            engine.stop(drain_timeout=0.5)
        assert [child.name for child in tmp_path.iterdir()] == ["jobs"]
        shards = list((tmp_path / "jobs").iterdir())
        assert all(
            shard.is_dir() and len(shard.name) == 2 for shard in shards
        )
        files = sorted(
            path for path in (tmp_path / "jobs").rglob("*") if path.is_file()
        )
        assert [path.name for path in files] == sorted(
            f"{job.id}.json" for job in jobs
        )
        assert all(path.stat().st_nlink == 1 for path in files)
        records = JobJournal(tmp_path).load_all().values()
        assert {record["state"] for record in records} == {"done"}

    def test_old_terminal_jobs_leave_memory_and_answer_from_the_journal(
        self, tmp_path
    ):
        engine = _engine(tmp_path, queue_depth=2048)
        engine.start(recover=False)
        try:
            jobs = [engine.submit(_spec(value=i)) for i in range(2000)]
            for index, job in enumerate(jobs):
                assert engine.result(job.id, timeout=60.0) == {
                    "value": index
                }
            stats = engine.stats()
            assert stats["terminal"] == 2000
            assert stats["jobs"] <= KEPT_TERMINAL_JOBS
            assert not engine._waiters
            oldest = jobs[0].id
            assert oldest not in engine._jobs
            assert engine.status(oldest)["state"] == "done"
            assert engine.result(oldest, timeout=1.0) == {"value": 0}
            assert engine.cancel(oldest) is False
            # Its id is still an idempotency key: nothing runs again.
            assert engine.submit(_spec(value=0), job_id=oldest).state == (
                "done"
            )
            assert engine.stats()["terminal"] == 2000
        finally:
            engine.stop(drain_timeout=0.5)
