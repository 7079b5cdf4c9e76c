"""The stdlib HTTP front end: the typed service contract over a socket.

``repro serve`` exposes the :class:`~repro.service.engine.JobEngine`
through a small JSON API (``http.server.ThreadingHTTPServer``; no
third-party dependency), mirroring the local typed contract exactly —
every typed service error maps to one stable HTTP status, so a remote
caller can branch on the same taxonomy a local caller catches::

    POST   /v1/jobs             submit  {"schema_version", "id"?, "spec"}
    GET    /v1/jobs             list journal/engine job snapshots
    GET    /v1/jobs/<id>        status snapshot
    GET    /v1/jobs/<id>/result block (``?timeout=seconds``) for the result
    DELETE /v1/jobs/<id>        cancel a still-queued job
    GET    /v1/health           liveness + engine stats

A client-supplied ``id`` is an idempotency key: POSTing an id the
engine or its journal already holds returns that job and runs nothing
again.

The error contract (also the table in DESIGN.md §14):

=====================  ======  ==========================================
typed error            status  extras
=====================  ======  ==========================================
``ServiceOverloaded``    503   ``Retry-After`` header from the EWMA hint
``JobExpired``           410   job id + deadline
``SpecError``            422   ``field`` names the offending spec field
``UnknownJob``           404   job id
``JobFailed``            500   ``error_type`` of the underlying failure
(timeout waiting)        504   result long-poll exceeded ``?timeout=``
(malformed request)      400   bad ``Content-Length``, or the body
                               was not a JSON object
(slow request)           408   the body stalled past
                               :data:`REQUEST_TIMEOUT_S`
(body too large)         413   ``Content-Length`` over
                               :data:`MAX_BODY_BYTES`; body never read
=====================  ======  ==========================================

The 400, 408 and 413 answers close the connection, since the rest of
the body may still be on the wire.

Error bodies carry ``{"error": <type name>, "message": ..., ...}`` plus
the typed exception's own fields (``retry_after``, ``field``,
``reason``, ...), which is what lets the HTTP transport of
:class:`repro.service.client.ServiceClient` re-raise the *same* typed
exception on the client side of the wire.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import settings as _settings
from repro.errors import (
    JobExpired,
    JobFailed,
    ServiceOverloaded,
    SpecError,
    SquashError,
    UnknownJob,
)
from repro.obs.metrics import get_registry
from repro.service.jobs import (
    ACCEPTED_SCHEMA_VERSIONS,
    SCHEMA_VERSION,
    JobSpec,
)

__all__ = [
    "ERROR_STATUS",
    "HttpServiceServer",
    "error_payload",
    "serve_forever",
    "serve_http",
]

_METRICS = get_registry()

#: Seconds one socket read or write on a connection may stall before
#: the server gives up on it; without it, a client that sends fewer
#: body bytes than its ``Content-Length`` holds a handler thread.
#: Result long-polls wait on the engine, not the socket, so this does
#: not bound them.
REQUEST_TIMEOUT_S = 10.0

#: Largest request body the server reads.  A job spec is well under a
#: KiB; a larger declared ``Content-Length`` gets a 413 unread.
MAX_BODY_BYTES = 1 << 20

#: Seconds between the serve thread's checks for :meth:`stop`, which
#: waits up to this long (``socketserver``'s default is 0.5 s).
_SHUTDOWN_POLL_S = 0.05

#: Typed error -> stable HTTP status.
ERROR_STATUS: tuple[tuple[type, int], ...] = (
    (ServiceOverloaded, 503),
    (JobExpired, 410),
    (SpecError, 422),
    (UnknownJob, 404),
    (JobFailed, 500),
)


def error_payload(exc: SquashError) -> dict:
    """The JSON error body for *exc*: type name, message, and every
    wire-relevant typed field the exception carries."""
    payload = {"error": type(exc).__name__, "message": exc.message}
    for attr in ("reason", "retry_after", "tenant", "field", "job_id",
                 "error_type", "deadline"):
        value = getattr(exc, attr, None)
        if value not in (None, "", 0, 0.0) or (
            attr == "retry_after" and value is not None
        ):
            payload[attr] = value
    return payload


def error_status(exc: SquashError) -> int:
    for cls, status in ERROR_STATUS:
        if isinstance(exc, cls):
            return status
    return 500


def _make_handler(engine):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service"
        timeout = REQUEST_TIMEOUT_S

        # -- plumbing --------------------------------------------------------

        def log_message(self, fmt, *args):  # noqa: ARG002
            pass  # metrics, not stderr chatter

        def _respond(self, status: int, payload: dict,
                     headers: dict | None = None) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            _METRICS.inc("service.http.requests")
            _METRICS.inc(f"service.http.status.{status}")

        def _respond_error(self, exc: SquashError) -> None:
            headers = {}
            if isinstance(exc, ServiceOverloaded):
                # RFC-style integer seconds in the header; the precise
                # float rides in the body for typed clients.
                headers["Retry-After"] = str(
                    max(1, math.ceil(exc.retry_after or 0.0))
                )
            self._respond(error_status(exc), error_payload(exc), headers)

        def _dispatch(self, method: str) -> None:
            parsed = urllib.parse.urlsplit(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            query = dict(urllib.parse.parse_qsl(parsed.query))
            try:
                self._route(method, parts, query)
            except SquashError as exc:
                self._respond_error(exc)
            except FutureTimeoutError:
                self._respond(
                    504,
                    {"error": "Timeout",
                     "message": "job not terminal within the "
                                "requested timeout"},
                )
            except BrokenPipeError:
                pass  # client went away mid-response
            except Exception as exc:  # noqa: BLE001 - wire boundary
                self._respond(
                    500,
                    {"error": type(exc).__name__, "message": str(exc)},
                )

        # -- routing ---------------------------------------------------------

        def _route(self, method: str, parts: list[str],
                   query: dict) -> None:
            if parts[:1] != ["v1"]:
                self._respond(
                    404, {"error": "NotFound", "message": self.path}
                )
                return
            rest = parts[1:]
            if rest == ["health"] and method == "GET":
                stats = engine.stats()
                self._respond(200, {
                    "ok": stats["state"] == "running",
                    "schema_version": SCHEMA_VERSION,
                    "stats": stats,
                })
                return
            if rest == ["jobs"] and method == "POST":
                self._submit()
                return
            if rest == ["jobs"] and method == "GET":
                self._list_jobs()
                return
            if len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                self._respond(200, engine.status(rest[1]))
                return
            if len(rest) == 2 and rest[0] == "jobs" and method == "DELETE":
                self._respond(
                    200,
                    {"id": rest[1], "cancelled": engine.cancel(rest[1])},
                )
                return
            if (
                len(rest) == 3
                and rest[0] == "jobs"
                and rest[2] == "result"
                and method == "GET"
            ):
                timeout = None
                raw = query.get("timeout")
                if raw is not None:
                    try:
                        timeout = float(raw)
                    except ValueError:
                        timeout = math.nan  # rejected below
                    if not 0 <= timeout < math.inf:
                        raise SpecError(
                            f"timeout must be finite seconds >= 0, "
                            f"not {raw!r}",
                            field="timeout",
                        )
                result = engine.result(rest[1], timeout=timeout)
                self._respond(200, {"id": rest[1], "result": result})
                return
            self._respond(
                405 if rest[:1] == ["jobs"] else 404,
                {"error": "NotFound", "message": self.path},
            )

        def _read_body(self) -> dict:
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                raise _BadRequest(f"bad Content-Length {header!r}")
            if length > MAX_BODY_BYTES:
                raise _BadRequest(
                    f"Content-Length {length} is over the "
                    f"{MAX_BODY_BYTES}-byte body limit",
                    413, "PayloadTooLarge",
                )
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                raise _BadRequest(
                    f"request body stalled for {self.timeout:g} s",
                    408, "RequestTimeout",
                ) from None
            try:
                body = json.loads(raw or b"{}")
            except ValueError:
                body = None
            if not isinstance(body, dict):
                raise _BadRequest("request body must be a JSON object")
            return body

        def _submit(self) -> None:
            try:
                body = self._read_body()
            except _BadRequest as exc:
                self._respond(
                    exc.status,
                    {"error": exc.error, "message": str(exc)},
                    {"Connection": "close"},
                )
                return
            record = body.get("spec")
            if not isinstance(record, dict):
                raise SpecError(
                    "submit body needs a 'spec' object", field="spec"
                )
            if "schema_version" in body:
                version = body["schema_version"]
                if version not in ACCEPTED_SCHEMA_VERSIONS:
                    raise SpecError(
                        f"unknown wire schema_version {version!r} "
                        f"(accepted: "
                        f"{', '.join(map(str, ACCEPTED_SCHEMA_VERSIONS))})",
                        field="schema_version",
                    )
                if "schema_version" not in record:
                    record = dict(record, schema_version=version)
            job_id = body.get("id")
            if job_id is not None and not (
                isinstance(job_id, str) and job_id
            ):
                raise SpecError(
                    f"id must be a non-empty string, not {job_id!r}",
                    field="id",
                )
            job = engine.submit(JobSpec.from_record(record), job_id=job_id)
            self._respond(202, {
                "id": job.id,
                "state": job.state,
                "schema_version": SCHEMA_VERSION,
            })

        def _list_jobs(self) -> None:
            if engine.journal is not None:
                records = engine.journal.load_all()
                jobs = [
                    {
                        "id": job_id,
                        "state": record.get("state", "unknown"),
                        "tenant": (record.get("spec") or {}).get(
                            "tenant", "default"
                        ),
                        "kind": (record.get("spec") or {}).get("kind", ""),
                    }
                    for job_id, record in sorted(records.items())
                ]
            else:
                # A copy: the engine drops old terminal jobs meanwhile.
                held = dict(engine._jobs)
                jobs = [
                    engine._snapshot(held[job_id]) for job_id in sorted(held)
                ]
            self._respond(200, {"jobs": jobs})

        # -- verbs -----------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def do_DELETE(self) -> None:  # noqa: N802
            self._dispatch("DELETE")

    return _Handler


class _BadRequest(Exception):
    """A request rejected before any job work, with its status."""

    def __init__(self, message: str, status: int = 400,
                 error: str = "BadRequest"):
        super().__init__(message)
        self.status = status
        self.error = error


class HttpServiceServer:
    """A running HTTP front end over one engine.

    Binds on construction (so an ephemeral ``port=0`` resolves
    immediately), serves on a daemon thread after :meth:`start`, and
    shuts down cleanly in :meth:`stop` — also usable as a context
    manager.  ``url`` is the base the HTTP transport of
    :class:`~repro.service.client.ServiceClient` takes.
    """

    def __init__(self, engine, host: str | None = None,
                 port: int | None = None):
        resolved = _settings.current()
        if host is None:
            host = resolved.service_http_host
        if port is None:
            port = resolved.service_http_port
        self.engine = engine
        self._httpd = ThreadingHTTPServer((host, port),
                                          _make_handler(engine))
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpServiceServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                args=(_SHUTDOWN_POLL_S,),
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HttpServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_http(engine, host: str | None = None,
               port: int | None = None) -> HttpServiceServer:
    """Bind and start the HTTP front end for *engine*; returns the
    running server (callers own ``stop()``)."""
    return HttpServiceServer(engine, host=host, port=port).start()


def serve_forever(
    engine,
    poll_interval: float = 0.05,
    max_jobs: int | None = None,
    idle_exit: float | None = None,
    should_stop=None,
) -> int:
    """The ``repro serve`` loop: watch *engine* until told to stop.

    Jobs reach *engine* through its HTTP front end; this loop only
    watches the exit conditions.  Returns the number of jobs that
    reached a terminal state while serving.  Exits when *should_stop*
    (the signal flag) fires, after *max_jobs* terminal jobs, or after
    *idle_exit* seconds with an empty queue and executor — whichever
    comes first.
    """
    idle_since: float | None = None
    while True:
        if should_stop is not None and should_stop():
            break
        stats = engine.stats()
        if max_jobs is not None and stats["terminal"] >= max_jobs:
            break
        if stats["queued"] or stats["running"]:
            idle_since = None
        elif idle_exit is not None:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since >= idle_exit:
                break
        time.sleep(poll_interval)
    return engine.stats()["terminal"]
