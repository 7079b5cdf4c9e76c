"""Squash-as-a-service: the async job layer over the typed facade.

The engine (:mod:`repro.service.engine`) accepts squash/sweep/verify
jobs through a bounded admission queue with typed load shedding,
schedules them fairly across tenants under per-tenant caps and
priority classes, propagates job deadlines into supervisor cell
deadlines, journals every state transition crash-safely through
:mod:`repro.store`, and drains gracefully on SIGTERM/SIGINT.

Entry points:

* library — :class:`repro.service.client.ServiceClient` is the one
  typed client, over the ``"local"`` in-process engine or an
  ``"http://host:port"`` front end;
* processes — ``repro serve`` runs the engine behind the JSON front
  end (:mod:`repro.service.http`, whose :func:`serve_forever` is the
  serve loop), ``repro submit`` POSTs to it, and ``repro jobs`` lists
  journal records;
* chaos — :mod:`repro.faultinject.servechaos` (``repro servechaos``)
  storms, starves, SIGKILLs, and degrades the whole stack.
"""

from repro.service.client import JobHandle, ServiceClient
from repro.service.engine import (
    JobEngine,
    ServiceConfig,
    get_engine,
    reset_engine,
)
from repro.service.http import HttpServiceServer, serve_forever, serve_http
from repro.service.jobs import (
    JOB_KINDS,
    PRIORITIES,
    SCHEMA_VERSION,
    TERMINAL_STATES,
    Job,
    JobSpec,
    execute_job,
    new_job_id,
)
from repro.service.journal import JobJournal

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "SCHEMA_VERSION",
    "TERMINAL_STATES",
    "HttpServiceServer",
    "Job",
    "JobEngine",
    "JobHandle",
    "JobJournal",
    "JobSpec",
    "ServiceClient",
    "ServiceConfig",
    "execute_job",
    "get_engine",
    "new_job_id",
    "reset_engine",
    "serve_forever",
    "serve_http",
]
