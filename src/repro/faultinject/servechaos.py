"""Serve chaos: the squash-as-a-service stack under overload and murder.

``repro servechaos`` proves the robustness claims of
:mod:`repro.service` end to end, in four scenarios over private roots:

1. **Overload storm** — an engine with a tiny admission queue and
   dispatch frozen is flooded past capacity over its HTTP front end.
   Every rejected submission must shed with a typed
   :class:`~repro.errors.ServiceOverloaded` (a 503 the client
   reconstructs) carrying a positive retry-after hint; every
   *accepted* job must reach a terminal state once dispatch resumes,
   with an image digest byte-identical to a direct
   :func:`repro.api.squash_benchmark` call.  The storm also
   checks the deadline contract: a microscopic deadline expires with a
   typed :class:`~repro.errors.JobExpired`, and a generous one shows
   up tightened in the supervisor ``cell_deadline`` the job ran under.
2. **Tenant hog** — one tenant floods a single-worker engine, a
   second tenant submits afterwards; round-robin scheduling under the
   per-tenant cap must interleave the second tenant's jobs instead of
   starving them behind the hog's backlog.
3. **SIGKILL mid-job** — a real ``repro serve`` subprocess, in a
   session of its own, is SIGKILLed while a job submitted over HTTP
   is running; every process it started (worker processes, their
   forkserver, the resource tracker) must be gone within
   :data:`GROUP_EXIT_S`, and a restarted server must recover the
   journal, finish every submitted job (none lost, none stuck), and
   produce digests identical to direct facade calls.
4. **Dead store** — the journal's store is put under an unbounded
   ENOSPC storm with retries off; journaling degrades (counted by
   ``service.journal_degraded``) but admission, execution, and results
   keep working — availability outlives the journal.

The run **fails** (non-zero exit) if a shed was untyped, an accepted
job was lost, a deadline was ignored, tenants starved, a SIGKILL lost
a job or left a process of the killed server running, or the
dead-store pass either broke job execution or recorded no
degradation.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro import settings as _settings
from repro.errors import JobExpired, ServiceOverloaded, SquashError
from repro.faultinject import chaos
from repro.faultinject.chaossweep import _env
from repro.obs.metrics import get_registry

__all__ = ["SCENARIOS", "ServeChaosReport", "run_serve_chaos"]

_METRICS = get_registry()

SCENARIOS = ("overload", "fairness", "sigkill", "deadstore")

#: Seconds the SIGKILLed server's process group gets to empty.  Its
#: workers exit at once, but the orphaned forkserver and resource
#: tracker stay in the group until init reaps them, which can take
#: a second or two.
GROUP_EXIT_S = 10.0


@dataclass
class ServeChaosReport:
    """Everything one serve-chaos run observed, and its verdict."""

    scale: float
    seed: int
    scenarios: tuple[str, ...] = SCENARIOS
    #: Unexpected per-scenario exceptions (scenario -> message).
    errors: dict[str, str] = field(default_factory=dict)

    # overload storm
    storm_submitted: int = 0
    storm_accepted: int = 0
    storm_shed: int = 0
    storm_sheds_typed: bool = False
    storm_retry_after_min: float = 0.0
    storm_terminal: int = 0
    storm_digests_match: bool = False
    deadline_expired_typed: bool = False
    cell_deadline_propagated: bool = False

    # tenant hog
    hog_jobs: int = 0
    mouse_jobs: int = 0
    fairness_interleaved: bool = False

    # SIGKILL mid-job
    kill_jobs: int = 0
    kill_delivered: bool = False
    #: The killed server's process group emptied in time.
    kill_group_gone: bool = False
    kill_recovered: int = 0
    kill_lost: int = 0
    kill_digests_match: bool = False

    # dead store
    deadstore_jobs: int = 0
    deadstore_completed: int = 0
    deadstore_degraded: int = 0

    @property
    def overload_ok(self) -> bool:
        return (
            self.storm_shed > 0
            and self.storm_sheds_typed
            and self.storm_retry_after_min > 0
            and self.storm_terminal == self.storm_accepted
            and self.storm_digests_match
            and self.deadline_expired_typed
            and self.cell_deadline_propagated
        )

    @property
    def fairness_ok(self) -> bool:
        return self.mouse_jobs > 0 and self.fairness_interleaved

    @property
    def sigkill_ok(self) -> bool:
        return (
            self.kill_delivered
            and self.kill_group_gone
            and self.kill_lost == 0
            and self.kill_digests_match
        )

    @property
    def deadstore_ok(self) -> bool:
        return (
            self.deadstore_completed == self.deadstore_jobs
            and self.deadstore_degraded > 0
        )

    @property
    def ok(self) -> bool:
        if self.errors:
            return False
        checks = {
            "overload": self.overload_ok,
            "fairness": self.fairness_ok,
            "sigkill": self.sigkill_ok,
            "deadstore": self.deadstore_ok,
        }
        return all(checks[name] for name in self.scenarios)

    def render(self) -> str:
        lines = [
            f"serve chaos: scale={self.scale} seed={self.seed} "
            f"scenarios={','.join(self.scenarios)}"
        ]
        if "overload" in self.scenarios:
            lines += [
                f"  overload: {self.storm_submitted} submitted, "
                f"{self.storm_accepted} accepted, {self.storm_shed} shed "
                f"({'typed' if self.storm_sheds_typed else 'UNTYPED'}, "
                f"retry-after >= {self.storm_retry_after_min:.3f}s)",
                f"    accepted terminal: {self.storm_terminal}"
                f"/{self.storm_accepted}, digests "
                f"{'identical to direct api' if self.storm_digests_match else 'DIVERGED'}",
                f"    deadline: tight one "
                f"{'expired typed' if self.deadline_expired_typed else 'NOT ENFORCED'}, "
                f"cell deadline "
                f"{'propagated' if self.cell_deadline_propagated else 'NOT PROPAGATED'}",
                f"    [{'OK' if self.overload_ok else 'FAILED'}]",
            ]
        if "fairness" in self.scenarios:
            lines.append(
                f"  fairness: hog {self.hog_jobs} jobs vs mouse "
                f"{self.mouse_jobs}; "
                f"{'interleaved' if self.fairness_interleaved else 'STARVED'}"
                f"  [{'OK' if self.fairness_ok else 'FAILED'}]"
            )
        if "sigkill" in self.scenarios:
            lines.append(
                f"  sigkill: {self.kill_jobs} jobs, server "
                f"{'killed mid-job' if self.kill_delivered else 'NOT KILLED'}, "
                f"{'no process left' if self.kill_group_gone else 'PROCESSES LEFT RUNNING'}, "
                f"{self.kill_recovered} recovered, {self.kill_lost} lost, "
                f"digests "
                f"{'identical' if self.kill_digests_match else 'DIVERGED'}"
                f"  [{'OK' if self.sigkill_ok else 'FAILED'}]"
            )
        if "deadstore" in self.scenarios:
            lines.append(
                f"  dead store: {self.deadstore_completed}"
                f"/{self.deadstore_jobs} jobs completed, "
                f"journal degradations {self.deadstore_degraded}"
                f"  [{'OK' if self.deadstore_ok else 'FAILED'}]"
            )
        for name, message in self.errors.items():
            lines.append(f"  {name}: ERROR {message}")
        lines.append(f"  verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# -- helpers -----------------------------------------------------------------


def _direct_digest(name: str, theta: float, scale: float) -> str:
    """The byte-identity reference: what a direct facade call saves."""
    import repro.api as api
    from repro.service.jobs import _image_digest

    result = api.squash_benchmark(
        name, scale, api.SquashConfig(theta=theta)
    )
    return _image_digest(result)


def _squash_spec(theta: float, scale: float, *, name: str = "adpcm",
                 tenant: str = "default", priority: str = "batch",
                 deadline: float | None = None):
    from repro.service import JobSpec

    return JobSpec(
        kind="squash",
        payload={"name": name, "theta": theta, "scale": scale},
        tenant=tenant, priority=priority, deadline=deadline,
    )


def _resume_dispatch(engine) -> None:
    engine._dispatch_paused = False
    loop = engine._loop
    if loop is not None and engine._wake is not None:
        loop.call_soon_threadsafe(engine._wake.set)


# -- scenarios ---------------------------------------------------------------


def _run_overload(report: ServeChaosReport, root: pathlib.Path,
                  scale: float) -> None:
    from repro.service import (
        JobEngine,
        JobJournal,
        ServiceClient,
        ServiceConfig,
        serve_http,
    )

    config = ServiceConfig(
        queue_depth=3, workers=2, tenant_cap=2, drain_timeout=30.0
    )
    engine = JobEngine(config, journal=JobJournal(root))
    engine._dispatch_paused = True
    engine.start(recover=False)
    server = serve_http(engine, port=0)
    client = ServiceClient(server.url)
    try:
        accepted = []
        sheds = []
        retry_afters = []
        # Distinct thetas defeat result caching, so the storm jobs do
        # real work; depth+queue_depth submissions guarantee overflow.
        for index in range(config.queue_depth + 3):
            theta = 1e-4 * (index + 1)
            report.storm_submitted += 1
            try:
                accepted.append(
                    (client.submit(_squash_spec(theta, scale)).id, theta)
                )
            except ServiceOverloaded as exc:
                sheds.append(exc)
                retry_afters.append(exc.retry_after)
        report.storm_accepted = len(accepted)
        report.storm_shed = len(sheds)
        report.storm_sheds_typed = bool(sheds) and all(
            exc.reason == "queue-full" for exc in sheds
        )
        report.storm_retry_after_min = min(retry_afters, default=0.0)
        _resume_dispatch(engine)
        matches = []
        for job_id, theta in accepted:
            result = client.result(job_id, timeout=300.0)
            report.storm_terminal += 1
            matches.append(
                result["image_digest"]
                == _direct_digest("adpcm", theta, scale)
            )
        report.storm_digests_match = bool(matches) and all(matches)

        # Deadline contract, on the now-unloaded engine: a microscopic
        # deadline expires typed, a generous one tightens the
        # supervisor cell deadline the job's work observes.
        try:
            handle = client.submit(
                _squash_spec(2e-3, scale, deadline=0.0001)
            )
            handle.result(timeout=60.0)
        except JobExpired:
            report.deadline_expired_typed = True
        handle = client.submit(_squash_spec(3e-3, scale, deadline=30.0))
        observed = handle.result(timeout=60.0).get("cell_deadline")
        report.cell_deadline_propagated = (
            observed is not None and 0 < observed <= 30.0
        )
    finally:
        client.close()
        server.stop()
        engine.stop(drain_timeout=1.0)


def _run_fairness(report: ServeChaosReport, root: pathlib.Path,
                  scale: float) -> None:
    from repro.service import JobEngine, JobJournal, ServiceConfig

    config = ServiceConfig(
        queue_depth=32, workers=1, tenant_cap=1, drain_timeout=30.0
    )
    engine = JobEngine(config, journal=JobJournal(root))
    engine._dispatch_paused = True
    engine.start(recover=False)
    try:
        hog = [
            engine.submit(
                _squash_spec(1e-3 * (index + 1), scale, tenant="hog")
            )
            for index in range(4)
        ]
        mouse = [
            engine.submit(
                _squash_spec(5e-4 * (index + 1), scale, tenant="mouse")
            )
            for index in range(2)
        ]
        report.hog_jobs = len(hog)
        report.mouse_jobs = len(mouse)
        _resume_dispatch(engine)
        for job in hog + mouse:
            engine.result(job.id, timeout=300.0)
        # Fair scheduling: the mouse's first job must finish before
        # the hog's backlog does — round-robin, not FIFO starvation.
        first_mouse = min(job.finished_at for job in mouse)
        last_hog = max(job.finished_at for job in hog)
        report.fairness_interleaved = first_mouse < last_hog
    finally:
        engine.stop(drain_timeout=1.0)


def _serve_argv(extra: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro", "serve", *extra]


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_http_up(url: str, timeout: float = 60.0) -> bool:
    import urllib.error
    import urllib.request

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/v1/health",
                                        timeout=5.0) as resp:
                if resp.status == 200:
                    return True
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.05)
    return False


def _serve(extra: list[str], env: dict) -> subprocess.Popen:
    """``repro serve`` in a session of its own: its process group holds
    every process it starts."""
    return subprocess.Popen(
        _serve_argv(extra), env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _group_gone(pgid: int, timeout: float) -> bool:
    """Whether process group *pgid* empties within *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


def _end_group(server: subprocess.Popen) -> None:
    """SIGKILL whatever is left of *server*'s group and reap it."""
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    server.wait(timeout=30.0)


def _wait_terminal(journal, job_id: str, timeout: float) -> dict | None:
    """Poll *journal* until *job_id* has a terminal record (None on
    timeout): the truth a murdered server cannot take down."""
    from repro.service import TERMINAL_STATES

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = journal.load(job_id)
        if record is not None and record.get("state") in TERMINAL_STATES:
            return record
        time.sleep(0.02)
    return None


def _live_state(client, job_id: str) -> str | None:
    """*job_id*'s state from the serving process's status endpoint
    (None when the server does not answer)."""
    try:
        return client.status(job_id).get("state")
    except (SquashError, OSError, ValueError):
        return None


def _kill_when_running(server, client, job_ids: list[str],
                       timeout: float) -> bool:
    """SIGKILL *server* the instant its status endpoint reports one of
    *job_ids* running (its journal records only queued and terminal
    states).  False, without a kill, once every job is terminal, the
    server has exited, or *timeout* seconds have passed."""
    from repro.service import TERMINAL_STATES

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and server.poll() is None:
        states = set()
        for job_id in job_ids:
            state = _live_state(client, job_id)
            if state == "running":
                server.send_signal(signal.SIGKILL)
                return True
            states.add(state)
        if states <= set(TERMINAL_STATES):
            return False
        time.sleep(0.01)
    return False


def _run_sigkill(report: ServeChaosReport, root: pathlib.Path,
                 scale: float) -> None:
    from repro.service import JobJournal, ServiceClient

    env = dict(_settings._ENVIRON)
    env.update(
        REPRO_CACHE_DIR=str(root),
        REPRO_SERVICE_WORKERS="1",
    )
    journal = JobJournal(root)
    # A cold squash of the full-size program leads: generating,
    # squeezing and profiling it keeps the one worker busy for about a
    # second on a 2-vCPU x86 host, long enough to be seen running on a
    # faster one, and the three short jobs wait behind it.
    jobs = [(1e-4, max(scale, 1.0))] + [
        (2e-4 * (index + 1), scale) for index in range(3)
    ]
    # Submissions go over the wire into the serving process; the kill
    # then lands with HTTP-submitted jobs in flight, and the restart
    # binds the same port.
    port = _free_port()
    serve_extra = ["--http", f"127.0.0.1:{port}"]
    url = f"http://127.0.0.1:{port}"
    server = _serve(serve_extra, env)
    try:
        if not _wait_http_up(url):
            raise RuntimeError(f"serve never answered at {url}")
        with ServiceClient(url) as client:
            job_ids = [
                client.submit(_squash_spec(theta, job_scale)).id
                for theta, job_scale in jobs
            ]
            report.kill_jobs = len(job_ids)
            # An undelivered kill fails the verdict below; the server
            # then still runs (no --idle-exit) and is killed here.
            report.kill_delivered = _kill_when_running(
                server, client, job_ids, timeout=120.0
            )
        if report.kill_delivered:
            server.wait(timeout=30.0)
            report.kill_group_gone = _group_gone(server.pid, GROUP_EXIT_S)
    finally:
        _end_group(server)

    # Restart: journal recovery must finish every job; none lost,
    # none stuck.
    server = _serve([*serve_extra, "--idle-exit", "2.0"], env)
    try:
        if not _wait_http_up(url):
            raise RuntimeError(f"restarted serve never answered at {url}")
        matches = []
        for job_id, (theta, job_scale) in zip(job_ids, jobs):
            record = _wait_terminal(journal, job_id, timeout=300.0)
            if record is None or record.get("state") != "done":
                report.kill_lost += 1
                continue
            if record.get("recovered"):
                report.kill_recovered += 1
            matches.append(
                (record.get("result") or {}).get("image_digest")
                == _direct_digest("adpcm", theta, job_scale)
            )
        report.kill_digests_match = bool(matches) and all(matches)
        server.wait(timeout=120.0)
    finally:
        _end_group(server)


def _run_deadstore(report: ServeChaosReport, root: pathlib.Path,
                   scale: float) -> None:
    from repro.service import JobEngine, JobJournal, ServiceConfig
    from repro.store import reset_stores

    counters = pathlib.Path(
        tempfile.mkdtemp(prefix="repro-servechaos-exec-")
    )
    storm = chaos.StoreChaosSpec(
        enospc=1_000_000, counter_dir=str(counters)
    )
    degraded_before = _METRICS.counter("service.journal_degraded").value
    try:
        # Retries off and a hair-trigger breaker: every journal write
        # degrades immediately instead of burning backoff time.
        with _env(
            REPRO_CACHE_DIR=str(root),
            REPRO_STORE_CHAOS=storm.to_env(),
            REPRO_STORE_RETRIES="0",
            REPRO_STORE_BACKOFF="0.001",
            REPRO_STORE_BREAKER_THRESHOLD="2",
        ):
            reset_stores()
            config = ServiceConfig(
                queue_depth=8, workers=1, tenant_cap=1,
                drain_timeout=30.0,
            )
            engine = JobEngine(config, journal=JobJournal(root))
            engine.start(recover=False)
            try:
                thetas = [7e-4 * (index + 1) for index in range(2)]
                jobs = [
                    engine.submit(_squash_spec(theta, scale))
                    for theta in thetas
                ]
                report.deadstore_jobs = len(jobs)
                for job, theta in zip(jobs, thetas):
                    result = engine.result(job.id, timeout=300.0)
                    if result["image_digest"] == _direct_digest(
                        "adpcm", theta, scale
                    ):
                        report.deadstore_completed += 1
            finally:
                engine.stop(drain_timeout=1.0)
        reset_stores()
    finally:
        shutil.rmtree(counters, ignore_errors=True)
    report.deadstore_degraded = (
        _METRICS.counter("service.journal_degraded").value
        - degraded_before
    )


_RUNNERS = {
    "overload": _run_overload,
    "fairness": _run_fairness,
    "sigkill": _run_sigkill,
    "deadstore": _run_deadstore,
}


def run_serve_chaos(
    scale: float = 0.2,
    seed: int = 0,
    scenarios: tuple[str, ...] | list[str] | None = None,
) -> ServeChaosReport:
    """Run the serve-chaos scenarios; see the module docstring."""
    selected = tuple(scenarios) if scenarios else SCENARIOS
    unknown = [name for name in selected if name not in _RUNNERS]
    if unknown:
        raise ValueError(
            f"unknown serve-chaos scenario(s) {', '.join(unknown)} "
            f"(expected among {', '.join(SCENARIOS)})"
        )
    report = ServeChaosReport(scale=scale, seed=seed, scenarios=selected)
    for name in selected:
        root = pathlib.Path(
            tempfile.mkdtemp(prefix=f"repro-servechaos-{name}-")
        )
        try:
            _RUNNERS[name](report, root, scale)
        except Exception as exc:  # noqa: BLE001 - verdict, not crash
            report.errors[name] = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return report
