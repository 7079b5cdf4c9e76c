"""The engine's squash worker processes.

A squash job runs in one of the engine's worker processes and must
return the digest a direct squash gives, under the engine thread's
settings; a worker that dies fails its job typed and the engine keeps
serving; and no worker outlives its engine, however the engine ends.
Every join and wait here is bounded.
"""

import multiprocessing
import os
import pathlib
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro.api as api
from repro import settings
from repro.analysis import experiments
from repro.errors import JobFailed
from repro.service import (
    JobEngine,
    JobJournal,
    JobSpec,
    ServiceConfig,
    execute_job,
)
from repro.service.jobs import _image_digest

SCALE = 0.1

#: A job that runs for seconds in a cold worker: generating the
#: full-size program alone takes most of them.
LONG = ("jpeg_enc", 1e-4, 1.0)

pytestmark = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(),
    reason="reads process state from /proc",
)


def _squash_spec(name, theta, scale=SCALE):
    return JobSpec(
        kind="squash",
        payload={"name": name, "theta": theta, "scale": scale},
    )


def _direct_digest(name, theta, scale=SCALE):
    # The memo is keyed on the spec, not on codec_variant.
    experiments.squash_benchmark.cache_clear()
    return _image_digest(
        api.squash_benchmark(name, scale, api.SquashConfig(theta=theta))
    )


class _RecordingJournal(JobJournal):
    """A journal that also lists each job's recorded states."""

    def __init__(self, root):
        super().__init__(root)
        self.states: dict[str, list[str]] = {}

    def record(self, job):
        self.states.setdefault(job.id, []).append(job.state)
        return super().record(job)


def _start(tmp_path, workers=2, execute_fn=execute_job):
    """A journaled engine and the worker processes it started."""
    before = {child.pid for child in multiprocessing.active_children()}
    engine = JobEngine(
        ServiceConfig(
            queue_depth=16, workers=workers, tenant_cap=workers,
            drain_timeout=5.0,
        ),
        journal=_RecordingJournal(tmp_path),
        execute_fn=execute_fn,
    ).start(recover=False)
    pids = [
        child.pid for child in multiprocessing.active_children()
        if child.pid not in before
    ]
    assert len(pids) == workers
    return engine, pids


def _stat(pid):
    """Fields of ``/proc/PID/stat`` after the command name."""
    text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def _cpu_seconds(pid):
    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _wait_busy(*pids, timeout=60.0):
    """Wait until one of *pids* has spent a tenth of a second of CPU: a
    job is then running inside it, not on its way there."""
    deadline = time.monotonic() + timeout
    while max(map(_cpu_seconds, pids)) < 0.1:
        assert time.monotonic() < deadline, f"workers {pids} never got busy"
        time.sleep(0.01)


def _gone(pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def _group(pgid):
    """{pid: parent pid} of the live processes in process group
    *pgid*."""
    members = {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = _stat(entry.name)
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry.name)] = int(fields[1])
    return members


def _group_empty(pgid, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


class TestSameOutputs:
    def test_digests_equal_a_direct_squash(self, tmp_path):
        grid = [
            (name, theta)
            for name in ("adpcm", "gsm", "jpeg_enc")
            for theta in (0.0, 1e-3, 1.0)
        ]
        engine, _ = _start(tmp_path)
        try:
            jobs = [engine.submit(_squash_spec(*cell)) for cell in grid]
            results = [engine.result(job.id, timeout=300.0) for job in jobs]
        finally:
            engine.stop(drain_timeout=1.0)
        assert [result["image_digest"] for result in results] == [
            _direct_digest(*cell) for cell in grid
        ]
        assert all(
            engine.journal.states[job.id] == ["queued", "done"]
            for job in jobs
        )

    def test_an_in_process_override_reaches_the_worker(self, tmp_path):
        def under_ctx1(spec):
            with settings.use_settings(codec_variant="ctx1"):
                return execute_job(spec)

        engine, _ = _start(tmp_path, execute_fn=under_ctx1)
        try:
            job = engine.submit(_squash_spec("gsm", 1e-3))
            result = engine.result(job.id, timeout=300.0)
        finally:
            engine.stop(drain_timeout=1.0)
        with settings.use_settings(codec_variant="ctx1"):
            expected = _direct_digest("gsm", 1e-3)
        assert expected != _direct_digest("gsm", 1e-3)
        assert result["image_digest"] == expected


class TestWorkerDeath:
    def test_a_killed_worker_fails_its_job_typed(self, tmp_path):
        engine, (pid,) = _start(tmp_path, workers=1)
        try:
            job = engine.submit(_squash_spec(*LONG))
            _wait_busy(pid)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(JobFailed) as caught:
                engine.result(job.id, timeout=60.0)
            assert caught.value.error_type == "BrokenProcessPool"
            assert engine.status(job.id)["state"] == "failed"
            assert engine.journal.load(job.id)["state"] == "failed"
            # The engine replaced its pool and keeps serving.
            after = engine.submit(_squash_spec("adpcm", 2e-4))
            result = engine.result(after.id, timeout=300.0)
        finally:
            engine.stop(drain_timeout=1.0)
        assert result["image_digest"] == _direct_digest("adpcm", 2e-4)


class TestNoWorkerOutlivesItsEngine:
    @pytest.mark.parametrize("end", ["stop", "drain"])
    def test_after_an_idle_end(self, tmp_path, end):
        engine, pids = _start(tmp_path)
        try:
            job = engine.submit(_squash_spec("adpcm", 3e-4))
            engine.result(job.id, timeout=300.0)
            getattr(engine, end)(1.0)
            assert all(_gone(pid, timeout=0.5) for pid in pids)
        finally:
            engine.stop(drain_timeout=1.0)

    def test_a_drain_past_its_budget_requeues_the_running_squash(
        self, tmp_path
    ):
        engine, (pid,) = _start(tmp_path, workers=1)
        try:
            job = engine.submit(_squash_spec(*LONG))
            _wait_busy(pid)
            started = time.monotonic()
            report = engine.drain(0.05)
            # The squash is stopped, not waited for.
            assert time.monotonic() - started < 1.0
            assert _gone(pid, timeout=0.5)
            assert report["requeued"] == 1
            assert engine.status(job.id)["state"] == "requeued"
            assert engine.journal.states[job.id] == ["queued", "requeued"]
        finally:
            engine.stop(drain_timeout=1.0)

    @pytest.mark.parametrize("end", ["sigkill", "exit"])
    def test_after_the_engine_process_ends(self, tmp_path, end):
        """A SIGKILL with a squash in flight, and interpreter exit with
        the lazily started local engine never stopped."""
        name, theta, scale = LONG if end == "sigkill" else ("adpcm", 0, SCALE)
        script = textwrap.dedent(f"""
            import repro.api as api
            from repro.settings import use_settings
            client = api.ServiceClient("local")
            # The engine starts on the first submission.
            with use_settings(cache_dir={str(tmp_path)!r}, service_workers=2):
                handle = client.submit(kind="squash", payload={{
                    "name": {name!r}, "theta": {theta!r}, "scale": {scale!r}}})
            print("submitted", flush=True)
            handle.result(timeout=600.0)
        """)
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([child.stdout], [], [], 120.0)
            assert ready and child.stdout.readline() == b"submitted\n"
            # The engine's children are its forkserver and resource
            # tracker; the workers are the forkserver's children.
            group = _group(child.pid)
            workers = [
                pid for pid, parent in group.items()
                if group.get(parent) == child.pid
            ]
            assert len(workers) == 2, group
            if end == "sigkill":
                _wait_busy(*workers)
                child.kill()
            assert child.wait(timeout=300.0) == (
                -signal.SIGKILL if end == "sigkill" else 0
            )
            assert _group_empty(child.pid), _group(child.pid)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30.0)
            child.stdout.close()
