"""The typed ServiceClient: one API over local and HTTP.

Stub job bodies throughout; the suite pins the *client* contract —
handle round trips, typed error parity across transports, and the
retry loop honouring the service's retry-after hints end to end over
HTTP.
"""

import threading
import time

import pytest

from repro.errors import (
    JobFailed,
    ServiceOverloaded,
    SpecError,
    UnknownJob,
)
from repro.service import (
    JobEngine,
    JobHandle,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    serve_http,
)


def _config(**overrides):
    defaults = dict(
        queue_depth=8, workers=2, tenant_cap=1,
        drain_timeout=5.0, journal=False,
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


@pytest.fixture
def engine():
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


class TestTargets:
    def test_unknown_target_is_typed(self):
        with pytest.raises(SpecError) as exc:
            ServiceClient("carrier-pigeon")
        assert exc.value.field == "target"

    def test_transport_names(self, engine):
        assert ServiceClient("local", engine=engine()).transport == "local"
        assert ServiceClient("http://x:1").transport == "http"
        with pytest.raises(SpecError) as exc:
            ServiceClient("spool")
        assert exc.value.field == "target"


class TestLocalTransport:
    def test_handle_round_trip(self, engine):
        with ServiceClient("local", engine=engine()) as client:
            handle = client.submit(kind="squash",
                                   payload={"name": "adpcm", "value": 3})
            assert isinstance(handle, JobHandle)
            assert handle.result(timeout=10.0) == {"value": 3}
            assert handle.status()["state"] == "done"

    def test_spec_and_fields_are_exclusive(self, engine):
        with ServiceClient("local", engine=engine()) as client:
            with pytest.raises(SpecError):
                client.submit(_spec(), kind="squash")

    def test_client_side_validation_fails_fast(self, engine):
        eng = engine()
        with ServiceClient("local", engine=eng) as client:
            with pytest.raises(SpecError) as exc:
                client.submit(kind="squash", payload={"name": "doom"})
            assert exc.value.field == "name"
        assert eng.stats()["jobs"] == 0

    def test_unknown_job_by_raw_id(self, engine):
        with ServiceClient("local", engine=engine()) as client:
            with pytest.raises(UnknownJob):
                client.status("never-submitted")

    def test_cancel_queued_job(self, engine):
        eng = engine(paused=True)
        with ServiceClient("local", engine=eng) as client:
            handle = client.submit(_spec(value=1))
            assert handle.cancel() is True
            assert handle.status()["state"] == "cancelled"
            with pytest.raises(JobFailed) as exc:
                client.result(handle.id, timeout=5.0)
            assert "cancelled" in str(exc.value)

    def test_submit_retries_on_shed_then_raises(self, engine):
        eng = engine(paused=True, queue_depth=1)
        with ServiceClient(
            "local", engine=eng, retries=2, retry_floor=0.01
        ) as client:
            client.submit(_spec(value=0))
            started = time.monotonic()
            with pytest.raises(ServiceOverloaded):
                client.submit(_spec(value=1))
            # Two absorbed sheds, each floored at 0.01s of backoff.
            assert time.monotonic() - started >= 0.02


def _client_retries() -> int:
    from repro.obs.metrics import get_registry

    return get_registry().counter("service.client.retries").value


@pytest.fixture
def http_url(engine):
    servers = []

    def make(**overrides):
        eng = engine(**overrides)
        srv = serve_http(eng, port=0)
        servers.append(srv)
        return eng, srv.url

    yield make
    for srv in servers:
        srv.stop()


class TestHttpTransport:
    def test_round_trip(self, http_url):
        _, url = http_url()
        with ServiceClient(url) as client:
            handle = client.submit(_spec(value=23))
            assert handle.result(timeout=10.0) == {"value": 23}
            assert handle.status()["state"] == "done"

    def test_typed_errors_cross_the_wire(self, http_url):
        _, url = http_url()
        with ServiceClient(url) as client:
            with pytest.raises(UnknownJob) as exc:
                client.status("nope")
            assert exc.value.job_id == "nope"
            with pytest.raises(UnknownJob):
                client.result("nope", timeout=5.0)

    def test_server_side_spec_error_reconstructed(self, http_url):
        _, url = http_url()
        with ServiceClient(url) as client:
            # Bypass client-side validation to prove the server's 422
            # comes back as the same typed SpecError.
            spec = _spec(value=0)
            object.__setattr__(spec, "schema_version", 99)
            with pytest.raises(SpecError) as exc:
                client._transport.submit(spec)
            assert exc.value.field == "schema_version"

    def test_retry_loop_honours_http_retry_after(self, http_url):
        """End-to-end over HTTP: 503 sheds carry the retry-after hint
        in the body; the client absorbs them and the submission lands
        once dispatch resumes and the queue drains."""
        eng, url = http_url(paused=True, queue_depth=1, workers=1)
        with ServiceClient(url, retries=8, retry_floor=0.05) as client:
            client.submit(_spec(value=0))

            def unfreeze():
                time.sleep(0.3)
                eng._dispatch_paused = False
                eng._loop.call_soon_threadsafe(eng._wake.set)

            threading.Thread(target=unfreeze, daemon=True).start()
            retries_before = _client_retries()
            handle = client.submit(_spec(value=9))
            assert handle.result(timeout=30.0) == {"value": 9}
            assert _client_retries() > retries_before

    def test_cancel_over_http(self, http_url):
        eng, url = http_url(paused=True)
        with ServiceClient(url) as client:
            handle = client.submit(_spec(value=1))
            assert handle.cancel() is True
            assert handle.status()["state"] == "cancelled"
