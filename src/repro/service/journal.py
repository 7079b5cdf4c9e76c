"""Crash-safe job journal on the unified artifact store.

Every accepted job is persisted as one sealed file in the store's
``job`` namespace (CRC-sealed, written by temp file, fsync and atomic
replace — :func:`repro.store.sealed.write_sealed`), written twice:
``queued`` on admission, then the terminal state (or ``requeued`` by a
drain), which replaces the first.  The start of execution is not
recorded, since recovery treats a queued job and a running one alike.  A
SIGKILLed service therefore restarts knowing which jobs had not
finished and which had — :meth:`JobJournal.recover` hands the
non-terminal ones back to the engine to resume, so an accepted job is
never silently lost.

The journal inherits the store's degradation ladder: when the store is
dead (ENOSPC storm, unwritable root, open breaker) a record write
raises :class:`~repro.errors.StoreDegraded`, which the journal absorbs
— jobs keep executing from memory, ``service.journal_degraded`` counts
the lost persistence, and crash recovery is best-effort until the disk
heals.  A degraded journal slows recovery down; it never fails a job.
"""

from __future__ import annotations

import pathlib
import time

from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.service.jobs import Job, JobSpec

__all__ = ["JobJournal"]

_METRICS = get_registry()


class JobJournal:
    """Sealed per-job records in the store's ``job`` namespace."""

    def __init__(self, root: pathlib.Path | str | None = None):
        from repro.analysis.parallel import cache_dir
        from repro.store import get_store

        self.root = pathlib.Path(root) if root is not None else cache_dir()
        self._store = get_store(self.root)
        #: Monotone per-process sequence so a reader can order the
        #: transitions of one job even though each write replaces the
        #: previous record.
        self._seq = 0

    # -- writes --------------------------------------------------------------

    def record(self, job: Job) -> bool:
        """Persist *job*'s current state; False when the store
        degraded and the record was dropped (jobs continue regardless)."""
        self._seq += 1
        record = {
            "id": job.id,
            "spec": job.spec.to_record(),
            "state": job.state,
            "seq": self._seq,
            "wall_time": time.time(),
            "recovered": job.recovered,
            "result": job.result,
            "error": list(job.error) if job.error else None,
        }
        try:
            self._store.put("job", job.id, record)
        except StoreDegraded:
            _METRICS.inc("service.journal_degraded")
            return False
        return True

    # -- reads ---------------------------------------------------------------

    def load(self, job_id: str) -> dict | None:
        """The last persisted record of *job_id*, or None."""
        try:
            return self._store.get("job", job_id)
        except StoreDegraded:
            _METRICS.inc("service.journal_degraded")
            return None

    def load_all(self) -> dict[str, dict]:
        """Every persisted job record, keyed by id."""
        records: dict[str, dict] = {}
        for entry in self._store.scan():
            if entry.ns != "job":
                continue
            record = self.load(entry.key)
            if record is not None and record.get("id"):
                records[record["id"]] = record
        return records

    def recover(self) -> list[Job]:
        """Rebuild the non-terminal jobs a dead service left behind.

        Queued, running (written by older engines), and requeued
        records come back as fresh ``queued`` jobs flagged
        ``recovered`` (execution is deterministic and store-cached, so
        re-running is safe); every other record is left as it is.
        """
        jobs: list[Job] = []
        for job_id, record in sorted(self.load_all().items()):
            # An allow-list of the non-terminal states the engine
            # writes; anything else is never re-run.
            if record.get("state") not in ("queued", "running", "requeued"):
                continue
            job = Job(
                id=job_id,
                spec=JobSpec.from_record(record.get("spec") or {}),
                state="queued",
                recovered=True,
            )
            jobs.append(job)
            _METRICS.inc("service.recovered")
        return jobs
