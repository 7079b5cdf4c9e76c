"""Squash-as-a-service: the async job layer over the typed facade.

The engine (:mod:`repro.service.engine`) accepts squash/sweep/verify
jobs through a bounded admission queue with typed load shedding,
schedules them fairly across tenants under per-tenant caps and
priority classes, propagates job deadlines into supervisor cell
deadlines, journals every state transition crash-safely through
:mod:`repro.store`, and drains gracefully on SIGTERM/SIGINT.

Entry points:

* library — :class:`repro.service.client.ServiceClient` is the one
  typed client over every transport (``"local"`` in-process engine,
  ``"spool"`` filesystem, ``"http://host:port"``);
* processes — ``repro serve`` runs the engine against the filesystem
  spool (:mod:`repro.service.spool`) and, with ``--http``, the JSON
  front end (:mod:`repro.service.http`); ``repro submit`` spools
  requests (or POSTs with ``--url``), ``repro jobs`` lists journal
  records.  Serving processes sharing one store also co-compute
  fan-out sweeps (:mod:`repro.service.fanout`);
* chaos — :mod:`repro.faultinject.servechaos` (``repro servechaos``)
  storms, starves, SIGKILLs, and degrades the whole stack, over
  either transport.
"""

from repro.service.client import JobHandle, ServiceClient
from repro.service.engine import (
    JobEngine,
    ServiceConfig,
    get_engine,
    reset_engine,
)
from repro.service.http import HttpServiceServer, serve_http
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
from repro.service.spool import SpoolClient, serve_forever, spool_dir

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
    "SpoolClient",
    "execute_job",
    "get_engine",
    "new_job_id",
    "reset_engine",
    "serve_forever",
    "serve_http",
    "spool_dir",
]
