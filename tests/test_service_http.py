"""The HTTP front end: routes, the error→status contract, versioning,
and the ``repro serve`` loop.

Servers bind an ephemeral port on localhost with stub job bodies; the
requests here go through raw ``urllib`` so the tests pin the *wire*
contract (status codes, headers, JSON bodies) independently of the
typed client, which gets its own suite in test_service_client.py.
"""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    JobExpired,
    JobFailed,
    ServiceOverloaded,
    SpecError,
    UnknownJob,
)
from repro.service import JobEngine, JobJournal, JobSpec, ServiceConfig
from repro.service import http as http_mod
from repro.service.http import (
    MAX_BODY_BYTES,
    HttpServiceServer,
    error_payload,
    error_status,
    serve_forever,
    serve_http,
)
from repro.service.jobs import SCHEMA_VERSION, Job


def _config(**overrides):
    defaults = dict(
        queue_depth=8, workers=2, tenant_cap=1,
        drain_timeout=5.0, journal=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _spec(value=0, **kwargs):
    payload = kwargs.pop("payload", {"name": "adpcm", "value": value})
    return JobSpec(kind="squash", payload=payload, **kwargs)


def _echo(spec):
    time.sleep(spec.payload.get("secs", 0.0))
    return {"value": spec.payload.get("value")}


@pytest.fixture
def served(request):
    built = []

    def make(execute_fn=_echo, paused=False, **overrides):
        eng = JobEngine(_config(**overrides), execute_fn=execute_fn)
        eng._dispatch_paused = paused
        eng.start(recover=False)
        srv = serve_http(eng, port=0)
        built.append((eng, srv))
        return eng, srv

    yield make
    for eng, srv in built:
        srv.stop()
        eng.stop(drain_timeout=0.2)


def _call(url, method="GET", body=None):
    """(status, headers, parsed body) of one raw HTTP request."""
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            raw = exc.read()
        return exc.code, dict(exc.headers), json.loads(raw or b"{}")


def _submit_body(value=0, **extra):
    body = {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec(value).to_record(),
    }
    body.update(extra)
    return body


class TestErrorContract:
    """Every typed service error maps to one stable status code."""

    CASES = [
        (ServiceOverloaded("full", reason="queue-full"), 503),
        (JobExpired("late", job_id="j"), 410),
        (SpecError("bad", field="kind"), 422),
        (UnknownJob("who", job_id="j"), 404),
        (JobFailed("boom", job_id="j", error_type="ValueError"), 500),
    ]

    @pytest.mark.parametrize(
        "exc,status", CASES, ids=[type(e).__name__ for e, _ in CASES]
    )
    def test_status_mapping(self, exc, status):
        assert error_status(exc) == status

    def test_payload_carries_typed_fields(self):
        payload = error_payload(
            SpecError("bad kind", field="kind")
        )
        assert payload["error"] == "SpecError"
        assert payload["field"] == "kind"
        payload = error_payload(
            ServiceOverloaded("full", reason="queue-full",
                              retry_after=1.5)
        )
        assert payload["reason"] == "queue-full"
        assert payload["retry_after"] == 1.5


class TestRoutes:
    def test_health(self, served):
        _, srv = served()
        status, _, body = _call(srv.url + "/v1/health")
        assert status == 200
        assert body["ok"] is True
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["stats"]["state"] == "running"

    def test_submit_status_result_roundtrip(self, served):
        _, srv = served()
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=41)
        )
        assert status == 202
        job_id = body["id"]
        assert body["schema_version"] == SCHEMA_VERSION
        status, _, body = _call(
            srv.url + f"/v1/jobs/{job_id}/result?timeout=30"
        )
        assert status == 200
        assert body["result"] == {"value": 41}
        status, _, body = _call(srv.url + f"/v1/jobs/{job_id}")
        assert status == 200
        assert body["state"] == "done"

    def test_submit_with_client_id_and_listing(self, served):
        _, srv = served()
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST",
            _submit_body(value=1, id="job-fixed-id"),
        )
        assert status == 202 and body["id"] == "job-fixed-id"
        _call(srv.url + "/v1/jobs/job-fixed-id/result?timeout=30")
        status, _, body = _call(srv.url + "/v1/jobs")
        assert status == 200
        assert any(job["id"] == "job-fixed-id" for job in body["jobs"])

    def test_unknown_job_is_404(self, served):
        _, srv = served()
        status, _, body = _call(srv.url + "/v1/jobs/nope")
        assert status == 404
        assert body["error"] == "UnknownJob"
        assert body["job_id"] == "nope"

    def test_overload_is_503_with_retry_after_header(self, served):
        _, srv = served(paused=True, queue_depth=1)
        _call(srv.url + "/v1/jobs", "POST", _submit_body(value=0))
        status, headers, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=1)
        )
        assert status == 503
        assert body["error"] == "ServiceOverloaded"
        assert body["reason"] == "queue-full"
        assert body["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1

    SPEC_ERRORS = [
        ("kind", {"kind": "transmogrify"}, {}, "kind"),
        ("id-list", {}, {"id": ["a"]}, "id"),
        ("id-int", {}, {"id": 7}, "id"),
        ("id-empty", {}, {"id": ""}, "id"),
        ("deadline-str", {"deadline": "soon"}, {}, "deadline"),
        ("deadline-inf", {"deadline": float("inf")}, {}, "deadline"),
        ("payload-int", {"payload": 5}, {}, "payload"),
        ("payload-str", {"payload": "abc"}, {}, "payload"),
        ("names-int", {"kind": "sweep", "payload": {"names": 5}}, {},
         "payload.names"),
    ]

    @pytest.mark.parametrize(
        "spec_fields,envelope,field",
        [case[1:] for case in SPEC_ERRORS],
        ids=[case[0] for case in SPEC_ERRORS],
    )
    def test_spec_error_is_422_naming_the_field(
        self, served, spec_fields, envelope, field
    ):
        _, srv = served()
        record = dict(_spec().to_record(), **spec_fields)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST",
            dict(envelope, schema_version=SCHEMA_VERSION, spec=record),
        )
        assert status == 422
        assert body["error"] == "SpecError"
        assert body["field"] == field

    def test_missing_spec_is_422(self, served):
        _, srv = served()
        status, _, body = _call(srv.url + "/v1/jobs", "POST", {})
        assert status == 422
        assert body["field"] == "spec"

    @pytest.mark.parametrize("data,length", [
        (b"not json{", None),
        (b"", "-1"),
        (b"", "abc"),
    ], ids=["not-json", "negative-length", "non-numeric-length"])
    def test_malformed_body_is_400(self, served, data, length):
        _, srv = served()
        req = urllib.request.Request(
            srv.url + "/v1/jobs", data=data, method="POST"
        )
        if length is not None:
            req.add_header("Content-Length", length)
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10.0)
        exc.value.close()
        assert exc.value.code == 400

    def test_result_timeout_is_504(self, served):
        _, srv = served(paused=True)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=0)
        )
        job_id = body["id"]
        status, _, body = _call(
            srv.url + f"/v1/jobs/{job_id}/result?timeout=0.1"
        )
        assert status == 504
        assert body["error"] == "Timeout"

    @pytest.mark.parametrize("timeout", ["soon", "inf", "nan", "-1"])
    def test_bad_timeout_is_422(self, served, timeout):
        # A queued job, so a timeout that slipped through would reach
        # the result wait instead of an UnknownJob.
        _, srv = served(paused=True)
        _, _, body = _call(srv.url + "/v1/jobs", "POST", _submit_body())
        status, _, body = _call(
            srv.url + f"/v1/jobs/{body['id']}/result?timeout={timeout}"
        )
        assert status == 422
        assert body["field"] == "timeout"

    def test_job_failure_is_500_with_error_type(self, served):
        def _boom(spec):
            raise ValueError("kaput")

        _, srv = served(execute_fn=_boom)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=0)
        )
        status, _, body = _call(
            srv.url + f"/v1/jobs/{body['id']}/result?timeout=30"
        )
        assert status == 500
        assert body["error"] == "JobFailed"
        assert body["error_type"] == "ValueError"

    def test_expired_deadline_is_410(self, served):
        _, srv = served(paused=True)
        record = JobSpec(
            kind="squash", payload={"name": "adpcm"}, deadline=0.001
        ).to_record()
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST",
            {"schema_version": SCHEMA_VERSION, "spec": record},
        )
        job_id = body["id"]
        time.sleep(0.05)
        status, _, body = _call(
            srv.url + f"/v1/jobs/{job_id}/result?timeout=30"
        )
        assert status == 410
        assert body["error"] == "JobExpired"

    def test_cancel_queued_job(self, served):
        eng, srv = served(paused=True)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=0)
        )
        job_id = body["id"]
        status, _, body = _call(
            srv.url + f"/v1/jobs/{job_id}", "DELETE"
        )
        assert status == 200 and body["cancelled"] is True
        status, _, body = _call(srv.url + f"/v1/jobs/{job_id}")
        assert body["state"] == "cancelled"

    def test_unknown_route_is_404_and_bad_method_405(self, served):
        _, srv = served()
        status, _, _ = _call(srv.url + "/v2/jobs")
        assert status == 404
        status, _, _ = _call(srv.url + "/v1/jobs/x", "POST", {})
        assert status == 405


class TestClientIds:
    """A client-supplied id is an idempotency key: POSTing it again
    never runs the job again."""

    @staticmethod
    def _counting(runs):
        def execute(spec):
            runs.append(spec.payload["value"])
            return {"value": spec.payload["value"]}

        return execute

    def test_duplicate_client_id_runs_once(self, served):
        runs = []
        eng, srv = served(execute_fn=self._counting(runs))
        results = []
        for _ in range(2):
            status, _, body = _call(
                srv.url + "/v1/jobs", "POST",
                _submit_body(value=3, id="job-dup"),
            )
            assert status == 202 and body["id"] == "job-dup"
            _, _, body = _call(
                srv.url + "/v1/jobs/job-dup/result?timeout=30"
            )
            results.append(body["result"])
        assert eng._idle.wait(10.0)
        assert results == [{"value": 3}, {"value": 3}]
        assert runs == [3]

    def test_concurrent_posts_of_one_id_run_once(self, served):
        runs = []
        eng, srv = served(execute_fn=self._counting(runs))
        ids = []

        def post():
            _, _, body = _call(
                srv.url + "/v1/jobs", "POST",
                _submit_body(value=8, id="job-race"),
            )
            ids.append(body["id"])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            posters = [threading.Thread(target=post) for _ in range(8)]
            for thread in posters:
                thread.start()
            for thread in posters:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in posters)
        assert ids == ["job-race"] * 8
        assert eng.result("job-race", timeout=10.0) == {"value": 8}
        assert eng._idle.wait(10.0)
        assert runs == [8]

    @pytest.mark.parametrize("left", ["queued", "done"])
    def test_id_resubmitted_after_restart_runs_once(self, tmp_path, left):
        """The previous process left the job queued (recovery re-runs
        it once) or done (nothing runs); POSTing its id after the
        restart adds no run either way."""
        JobJournal(tmp_path).record(Job(
            id="job-restart", spec=_spec(value=5), state=left,
            result={"value": 5} if left == "done" else None,
        ))
        runs = []
        eng = JobEngine(
            _config(), journal=JobJournal(tmp_path),
            execute_fn=self._counting(runs),
        )
        eng.start(recover=True)
        try:
            with HttpServiceServer(eng, port=0) as srv:
                status, _, _ = _call(
                    srv.url + "/v1/jobs", "POST",
                    _submit_body(value=5, id="job-restart"),
                )
                assert status == 202
                _, _, body = _call(
                    srv.url + "/v1/jobs/job-restart/result?timeout=30"
                )
                assert body["result"] == {"value": 5}
                assert eng._idle.wait(10.0)
        finally:
            eng.stop(drain_timeout=0.2)
        assert runs == ([5] if left == "queued" else [])


class TestSchemaVersion:
    def test_unknown_schema_version_rejected_naming_field(self, served):
        _, srv = served()
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST",
            _submit_body(value=0, schema_version=99),
        )
        assert status == 422
        assert body["error"] == "SpecError"
        assert body["field"] == "schema_version"

    def test_v1_unversioned_spec_still_accepted(self, served):
        _, srv = served()
        record = _spec(value=5).to_record()
        record.pop("schema_version", None)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", {"spec": record}
        )
        assert status == 202
        status, _, body = _call(
            srv.url + f"/v1/jobs/{body['id']}/result?timeout=30"
        )
        assert body["result"] == {"value": 5}

    def test_envelope_version_applies_when_spec_lacks_one(self, served):
        _, srv = served()
        record = _spec(value=5).to_record()
        record.pop("schema_version", None)
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST",
            {"schema_version": 99, "spec": record},
        )
        assert status == 422
        assert body["field"] == "schema_version"


def _raw_post(srv, head: bytes, body: bytes = b"") -> tuple[bytes, float]:
    """Send a hand-made POST and read until the server closes; returns
    the reply and the seconds the server took to close."""
    with socket.create_connection((srv.host, srv.port), timeout=30.0) as sock:
        sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n" + head
                     + b"\r\n" + body)
        started = time.monotonic()
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
        return reply, time.monotonic() - started


class TestRequestLimits:
    def test_truncated_body_is_dropped_within_the_timeout(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(http_mod, "REQUEST_TIMEOUT_S", 0.5)
        _, srv = served()
        reply, waited = _raw_post(
            srv, b"Content-Length: 100\r\n", b'{"spec": '
        )
        assert waited < 5.0
        assert reply.startswith(b"HTTP/1.1 408")
        payload = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert payload["error"] == "RequestTimeout"
        # The handler thread is free again.
        status, _, body = _call(
            srv.url + "/v1/jobs", "POST", _submit_body(value=5)
        )
        assert status == 202
        assert _call(srv.url + f"/v1/jobs/{body['id']}/result?timeout=10")[
            2]["result"] == {"value": 5}

    def test_oversized_body_is_413_and_never_read(self, served):
        _, srv = served()
        reply, waited = _raw_post(
            srv, f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode()
        )
        # Answered at once: the server did not wait for the body.
        assert waited < http_mod.REQUEST_TIMEOUT_S
        assert reply.startswith(b"HTTP/1.1 413")
        payload = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert payload["error"] == "PayloadTooLarge"
        assert str(MAX_BODY_BYTES) in payload["message"]


class TestServerLifecycle:
    def test_context_manager_and_ephemeral_port(self):
        eng = JobEngine(_config(), execute_fn=_echo)
        eng.start(recover=False)
        try:
            with HttpServiceServer(eng, port=0) as srv:
                assert srv.port > 0
                status, _, _ = _call(srv.url + "/v1/health")
                assert status == 200
            # Stopped: the port no longer answers.
            with pytest.raises((urllib.error.URLError, OSError)):
                urllib.request.urlopen(srv.url + "/v1/health",
                                       timeout=2.0)
        finally:
            eng.stop(drain_timeout=0.2)

    def test_settings_resolve_host_and_port(self):
        from repro import settings

        eng = JobEngine(_config(), execute_fn=_echo)
        eng.start(recover=False)
        try:
            with settings.use_settings(service_http_port=0):
                with HttpServiceServer(eng) as srv:
                    assert srv.host == "127.0.0.1"
                    assert srv.port > 0
        finally:
            eng.stop(drain_timeout=0.2)


class TestServeLoop:
    """Each exit of the ``repro serve`` loop ends it by itself."""

    @pytest.mark.parametrize(
        "limits",
        [{}, {"max_jobs": 1}, {"idle_exit": 0.05}],
        ids=["should_stop", "max_jobs", "idle_exit"],
    )
    def test_serve_forever_exits(self, limits):
        eng = JobEngine(_config(), execute_fn=_echo)
        eng._dispatch_paused = True
        eng.start(recover=False)
        stop = threading.Event()
        polls = []
        result = {}

        def should_stop():
            polls.append(1)
            return stop.is_set()

        def serve():
            result["terminal"] = serve_forever(
                eng, poll_interval=0.01, should_stop=should_stop, **limits
            )

        # Queued before the loop starts, so the idle exit cannot fire
        # before the job has run.
        job = eng.submit(_spec(value=4))
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            eng._dispatch_paused = False
            eng._loop.call_soon_threadsafe(eng._wake.set)
            assert eng.result(job.id, timeout=10.0) == {"value": 4}
            if not limits:
                # Two more iterations: the second starts only after
                # the first has counted the (already terminal) job.
                seen, deadline = len(polls), time.monotonic() + 10.0
                while len(polls) < seen + 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                stop.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            stop.set()
            thread.join(timeout=10.0)
            eng.stop(drain_timeout=0.5)
        assert result["terminal"] == 1
