"""The typed service client: one API over the local and HTTP transports.

:class:`ServiceClient` is the job submission surface of
:mod:`repro.api`, one object with a handle-based API::

    client = api.ServiceClient()                    # in-process engine
    client = api.ServiceClient("http://host:8737")  # network front end

    handle = client.submit(kind="squash", payload={"name": "gsm"})
    handle.status()          # JSON snapshot
    handle.result(timeout=60.0)  # block; typed raise on failure
    handle.cancel()          # withdraw a still-queued job

Both transports surface the *same* typed errors
(:class:`~repro.errors.ServiceOverloaded` and friends), and both shed
at submit time.  With ``retries > 0`` the client absorbs plain
overload sheds itself — it sleeps for the service's ``retry_after``
hint (never less than *retry_floor*) and resubmits, so a storm
degrades into bounded latency instead of an exception.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.errors import (
    JobExpired,
    JobFailed,
    ServiceOverloaded,
    SpecError,
    UnknownJob,
)
from repro.obs.metrics import get_registry
from repro.service.jobs import JobSpec

__all__ = ["JobHandle", "ServiceClient"]

_METRICS = get_registry()


# -- transports ---------------------------------------------------------------


class _LocalTransport:
    """Directly against an in-process engine (the default)."""

    def __init__(self, engine=None):
        self._engine = engine

    @property
    def engine(self):
        if self._engine is None:
            from repro.service.engine import get_engine

            self._engine = get_engine()
        return self._engine

    def submit(self, spec: JobSpec) -> str:
        return self.engine.submit(spec).id

    def status(self, job_id: str) -> dict:
        return self.engine.status(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        return self.engine.result(job_id, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        return self.engine.cancel(job_id)

    def close(self) -> None:
        pass


#: Error body type name -> reconstructor; what makes the HTTP wire
#: transparent to typed ``except`` clauses.
_WIRE_ERRORS = {
    "ServiceOverloaded": lambda p: ServiceOverloaded(
        p.get("message", ""),
        reason=p.get("reason", ""),
        retry_after=p.get("retry_after", 0.0),
        tenant=p.get("tenant", ""),
    ),
    "JobExpired": lambda p: JobExpired(
        p.get("message", ""), job_id=p.get("job_id", "")
    ),
    "SpecError": lambda p: SpecError(
        p.get("message", ""), field=p.get("field", "")
    ),
    "UnknownJob": lambda p: UnknownJob(
        p.get("message", ""), job_id=p.get("job_id", "")
    ),
    "JobFailed": lambda p: JobFailed(
        p.get("message", ""),
        job_id=p.get("job_id", ""),
        error_type=p.get("error_type", ""),
    ),
    "Timeout": lambda p: TimeoutError(p.get("message", "")),
}


class _HttpTransport:
    """Against the :mod:`repro.service.http` front end."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def _request(self, method: str, path: str,
                 body: dict | None = None,
                 timeout: float | None = None):
        data = (
            json.dumps(body, sort_keys=True).encode("utf-8")
            if body is not None else None
        )
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {}
            rebuild = _WIRE_ERRORS.get(payload.get("error", ""))
            if rebuild is not None:
                raise rebuild(payload) from None
            raise JobFailed(
                payload.get("message", str(exc)),
                error_type=payload.get("error", f"http-{exc.code}"),
            ) from None

    def submit(self, spec: JobSpec) -> str:
        body = {"schema_version": spec.schema_version,
                "spec": spec.to_record()}
        return self._request("POST", "/v1/jobs", body=body)["id"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        query = ""
        socket_timeout = None
        if timeout is not None:
            query = "?" + urllib.parse.urlencode({"timeout": timeout})
            # The socket waits a little past the server-side timeout so
            # the typed 504 beats a raw socket error.
            socket_timeout = timeout + 10.0
        payload = self._request(
            "GET", f"/v1/jobs/{job_id}/result{query}",
            timeout=socket_timeout,
        )
        return payload.get("result") or {}

    def cancel(self, job_id: str) -> bool:
        return bool(
            self._request("DELETE", f"/v1/jobs/{job_id}").get("cancelled")
        )

    def close(self) -> None:
        pass


# -- the client ---------------------------------------------------------------


class JobHandle:
    """One submitted job, bound to the client that submitted it."""

    def __init__(self, client: "ServiceClient", spec: JobSpec,
                 job_id: str):
        self._client = client
        self.spec = spec
        self.id = job_id

    def status(self) -> dict:
        return self._client.status(self.id)

    def result(self, timeout: float | None = None) -> dict:
        return self._client._transport.result(self.id, timeout=timeout)

    def cancel(self) -> bool:
        return self._client._transport.cancel(self.id)

    def __repr__(self) -> str:
        return (
            f"JobHandle(id={self.id!r}, kind={self.spec.kind!r}, "
            f"tenant={self.spec.tenant!r})"
        )


class ServiceClient:
    """The typed client over one transport (see the module docstring).

    *target* is ``"local"`` (the in-process engine) or an
    ``http(s)://`` base URL.
    *retries* bounds how many plain overload sheds the client absorbs
    per call before the typed error propagates; each wait honours the
    service's ``retry_after`` hint, floored at *retry_floor* seconds.
    """

    def __init__(
        self,
        target: str = "local",
        *,
        retries: int = 0,
        retry_floor: float = 0.05,
        engine=None,
    ):
        self.target = target
        self.retries = max(0, retries)
        self.retry_floor = retry_floor
        if target.startswith(("http://", "https://")):
            self._transport = _HttpTransport(target)
        elif target == "local":
            self._transport = _LocalTransport(engine)
        else:
            raise SpecError(
                f"unknown transport {target!r} (expected 'local' "
                f"or an http(s):// URL)",
                field="target",
            )

    @property
    def transport(self) -> str:
        """The transport kind in use: ``local`` or ``http``."""
        if self.target.startswith(("http://", "https://")):
            return "http"
        return self.target

    # -- public API ----------------------------------------------------------

    def submit(self, spec: JobSpec | None = None, **fields) -> JobHandle:
        """Submit a job; returns a :class:`JobHandle`.

        Accepts a :class:`~repro.service.jobs.JobSpec` or its keyword
        fields.  Validation is client-side first (fail fast with a
        typed :class:`~repro.errors.SpecError`), then server-side
        again — the server trusts nothing the wire carried.
        """
        if spec is None:
            spec = JobSpec(**fields)
        elif fields:
            raise SpecError(
                "pass a JobSpec or keyword fields, not both",
                field="spec",
            )
        spec.validate()
        attempt = 0
        while True:
            try:
                job_id = self._transport.submit(spec)
                return JobHandle(self, spec, job_id)
            except ServiceOverloaded as exc:
                attempt += 1
                if attempt > self.retries:
                    raise
                self._backoff(exc)

    def status(self, job_id: str) -> dict:
        return self._transport.status(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until *job_id* is terminal; its result payload, or a
        typed raise mirroring how the job ended."""
        return self._transport.result(job_id, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        return self._transport.cancel(job_id)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- retry loop ----------------------------------------------------------

    def _backoff(self, exc: ServiceOverloaded) -> None:
        delay = max(self.retry_floor, exc.retry_after or 0.0)
        _METRICS.inc("service.client.retries")
        _METRICS.observe("service.client.backoff_seconds", delay)
        time.sleep(delay)
