"""Job specs, states, and the execution dispatcher of the service.

A job is one squash/sweep/verify request travelling through the
engine (:mod:`repro.service.engine`): a frozen :class:`JobSpec`
describing *what* to do, plus the mutable :class:`Job` bookkeeping the
engine keeps while it moves through its states::

    queued -> running -> done | failed | expired
         \\-> expired (deadline lapsed while waiting)
         \\-> cancelled (client cancelled it before it started)
         \\-> requeued (service drained; journal keeps it for restart)

Specs carry an explicit ``schema_version`` so the wire format (HTTP
bodies, journal records) can evolve: servers accept every version in
:data:`ACCEPTED_SCHEMA_VERSIONS` and reject anything else with a
typed :class:`~repro.errors.SpecError` naming the field.  Records
without the field — the v1 wire format, written before the versioned
schema — read back as version 1 and stay accepted.

Payloads are plain JSON dicts rather than the api dataclasses so a
spec round-trips byte-identically through the HTTP wire and the
crash-safe journal.  :func:`execute_job` is the single dispatch
point from a spec to the typed :mod:`repro.api` facade; it returns a
JSON-able result payload whose digests let callers prove a service
result is byte-identical to a direct facade call.  A squash runs in
the caller's thread, or, inside :func:`use_squash_pool` (the engine
scopes one around every job), in that pool's worker processes.
"""

from __future__ import annotations

import hashlib
import math
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro import settings as _settings
from repro.errors import SpecError

__all__ = [
    "ACCEPTED_SCHEMA_VERSIONS",
    "JOB_KINDS",
    "PRIORITIES",
    "SCHEMA_VERSION",
    "TERMINAL_STATES",
    "Job",
    "JobSpec",
    "execute_job",
    "new_job_id",
    "use_squash_pool",
]

#: Request kinds the service executes, each mapping onto one facade
#: entry point.
JOB_KINDS = ("squash", "sweep", "verify")

#: Priority classes, highest first; the scheduler always drains a
#: class before touching the next.
PRIORITIES = ("interactive", "batch")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "expired", "cancelled")

#: The wire schema this code writes.
SCHEMA_VERSION = 2

#: Every wire schema this code still reads (v1 is the unversioned
#: format that predates the field).
ACCEPTED_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)


def new_job_id() -> str:
    """A fresh journal-keyable job id (32 hex chars; the store shards
    refs by the first two)."""
    return secrets.token_hex(16)


@dataclass(frozen=True)
class JobSpec:
    """One service request, JSON-serializable end to end."""

    kind: str
    #: Kind-specific arguments (benchmark name, θ, sweep names, ...).
    payload: dict = field(default_factory=dict)
    tenant: str = "default"
    priority: str = "batch"
    #: Seconds from submission until the job expires (None: the
    #: ``REPRO_SERVICE_DEADLINE`` default, 0/None meaning no deadline).
    deadline: float | None = None
    #: Wire schema version of this spec (v1 records have no field).
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> None:
        """Raise :class:`~repro.errors.SpecError` on anything the
        engine could not execute; cheap enough to run at admission."""
        if self.schema_version not in ACCEPTED_SCHEMA_VERSIONS:
            accepted = ", ".join(map(str, ACCEPTED_SCHEMA_VERSIONS))
            raise SpecError(
                f"unknown wire schema version {self.schema_version!r} "
                f"(this server accepts {accepted})",
                field="schema_version",
            )
        if self.kind not in JOB_KINDS:
            raise SpecError(
                f"unknown job kind {self.kind!r} "
                f"(expected one of {', '.join(JOB_KINDS)})",
                field="kind",
            )
        if self.priority not in PRIORITIES:
            raise SpecError(
                f"unknown priority {self.priority!r} "
                f"(expected one of {', '.join(PRIORITIES)})",
                field="priority",
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise SpecError("tenant must be a non-empty string",
                            field="tenant")
        if self.deadline is not None and not (
            isinstance(self.deadline, (int, float))
            and 0 <= self.deadline < math.inf
        ):
            raise SpecError(
                f"deadline must be finite seconds >= 0, "
                f"not {self.deadline!r}",
                field="deadline",
            )
        if not isinstance(self.payload, dict):
            raise SpecError("payload must be a JSON object",
                            field="payload")
        if self.kind == "squash":
            _validate_benchmark(self.payload.get("name"))
        elif self.kind == "sweep":
            names = self.payload.get("names") or ()
            if not isinstance(names, (list, tuple)):
                raise SpecError(
                    "names must be a list of benchmark names",
                    field="payload.names",
                )
            for name in names:
                _validate_benchmark(name)
            kind = self.payload.get("sweep_kind", "size")
            if kind not in ("size", "time"):
                raise SpecError(
                    f"unknown sweep kind {kind!r} (size|time)",
                    field="payload.sweep_kind",
                )
        elif self.kind == "verify":
            if not self.payload.get("prefix"):
                raise SpecError(
                    "verify jobs need a saved-image prefix",
                    field="payload.prefix",
                )

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "payload": dict(self.payload),
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline": self.deadline,
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_record(cls, record: dict) -> "JobSpec":
        version = record.get("schema_version")
        payload = record.get("payload") or {}
        return cls(
            kind=record.get("kind", ""),
            # Copied only when it is an object; validate() names
            # anything else as a bad payload.
            payload=(
                dict(payload) if isinstance(payload, dict) else payload
            ),
            tenant=record.get("tenant", "default"),
            priority=record.get("priority", "batch"),
            deadline=record.get("deadline"),
            # Unversioned records predate the versioned schema: v1.
            schema_version=1 if version is None else version,
        )


def _validate_benchmark(name) -> None:
    from repro.workloads.mediabench import MEDIABENCH

    if not isinstance(name, str) or name not in MEDIABENCH:
        raise SpecError(
            f"unknown benchmark {name!r} "
            f"(expected one of {', '.join(MEDIABENCH)})",
            field="name",
        )


@dataclass
class Job:
    """Engine-side bookkeeping for one accepted job."""

    id: str
    spec: JobSpec
    state: str = "queued"
    #: ``time.monotonic`` instants (admission, start, finish).
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Absolute monotonic expiry instant (None: no deadline).
    deadline_at: float | None = None
    #: JSON result payload (terminal ``done`` only).
    result: dict | None = None
    #: (error type name, message) for failed/expired jobs.
    error: tuple[str, str] | None = None
    #: True when this job was re-enqueued by journal recovery.
    recovered: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def remaining(self, now: float) -> float | None:
        """Seconds until expiry at *now* (None: no deadline)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now


# -- execution ---------------------------------------------------------------


def _image_digest(result) -> str:
    """SHA-256 over the image + descriptor bytes ``result.save`` would
    write — the byte-identity witness comparing a service result
    against a direct ``api.squash_benchmark`` call."""
    digest = hashlib.sha256()
    for data in result.file_bytes():
        digest.update(data)
    return digest.hexdigest()


#: The pool the current thread's squash jobs run in (see
#: :func:`use_squash_pool`); unset, they run in the calling thread.
_SQUASH_POOL = threading.local()


@contextmanager
def use_squash_pool(pool):
    """Run the squash jobs this thread executes in *pool* for the length
    of the block.

    *pool* has ``run(fn, *args)``, which calls ``fn(*args)`` in a worker
    process and returns its result; the engine scopes its own pool
    around each job the way it scopes ``cell_deadline``.  Sweep and
    verify jobs ignore it: a parallel sweep fans out through the
    supervisor's pool already.
    """
    saved = getattr(_SQUASH_POOL, "pool", None)
    _SQUASH_POOL.pool = pool
    try:
        yield
    finally:
        _SQUASH_POOL.pool = saved


def _execute_squash(payload: dict) -> dict:
    pool = getattr(_SQUASH_POOL, "pool", None)
    if pool is None:
        return _squash(payload)
    return pool.run(_squash_in_worker, payload, _settings.current())


def _squash_in_worker(payload: dict, resolved: _settings.Settings) -> dict:
    """A squash job in a worker process, under the caller's *resolved*
    settings.

    A worker resolves settings from its own environment, which carries
    none of the caller's ``use_settings`` overrides (``codec_variant``
    among them), so every field is installed again here.  The squash
    is not kept past the job: ``squash_benchmark``'s memo is keyed on
    the spec, not on these settings, so a kept result could answer a
    later job that runs under another codec variant; a worker's memory
    then holds only the programs it generated.
    """
    from repro.analysis.experiments import squash_benchmark

    overrides = {f.name: getattr(resolved, f.name) for f in fields(resolved)}
    with _settings.use_settings(**overrides):
        try:
            return _squash(payload)
        finally:
            squash_benchmark.cache_clear()


def _squash(payload: dict) -> dict:
    import repro.api as api

    config = api.SquashConfig(theta=float(payload.get("theta", 0.0)))
    bound = payload.get("bound")
    if bound is not None:
        config = config.with_buffer_bound(int(bound))
    result = api.squash_benchmark(
        payload["name"], float(payload.get("scale", 0.5)), config
    )
    return {
        "name": payload["name"],
        "baseline_words": result.baseline_words,
        "total_words": result.footprint.total,
        "reduction": result.reduction,
        "regions": len(result.info.regions),
        "image_digest": _image_digest(result),
    }


def _execute_sweep(payload: dict) -> dict:
    import repro.api as api

    thetas = payload.get("thetas")
    spec = api.SweepSpec(
        names=tuple(payload.get("names") or ()),
        scale=float(payload.get("scale", 0.5)),
        thetas=tuple(thetas) if thetas is not None else None,
        kind=payload.get("sweep_kind", "size"),
        parallel=bool(payload.get("parallel", False)),
    )
    rows = api.sweep(spec)
    return {
        "kind": spec.kind,
        "rows": [repr(row) for row in rows],
        "rows_digest": hashlib.sha256(
            repr(rows).encode("utf-8")
        ).hexdigest(),
    }


def _execute_verify(payload: dict) -> dict:
    import repro.api as api

    report = api.verify(payload["prefix"], deep=payload.get("deep", True))
    return {"ok": report.ok, "report": report.render()}


_EXECUTORS = {
    "squash": _execute_squash,
    "sweep": _execute_sweep,
    "verify": _execute_verify,
}


def execute_job(spec: JobSpec) -> dict:
    """Run *spec* through the facade and return its result payload.

    The resolved ``cell_deadline`` is recorded in the payload so tests
    (and the chaos harness) can assert that supervisor cells under
    this job observed the deadline the engine propagated.
    """
    result = _EXECUTORS[spec.kind](spec.payload)
    result["cell_deadline"] = _settings.current().cell_deadline
    return result
