"""Multi-host sweep fan-out over one shared artifact store.

A sweep job with ``payload["fanout"]`` true is not executed by one
engine: it is *partitioned* into per-benchmark cells that any number
of ``repro serve`` processes sharing the same store root
(``REPRO_CACHE_DIR``) pull and compute cooperatively.  No coordinator
socket, no membership protocol — the store is the only shared state:

* the submitting engine publishes a **plan record** (store namespace
  ``sweep``) naming the benchmarks, θ grid, scale, and kind;
* each cell is claimed through an **O_EXCL claim marker** under
  ``<root>/sweeps/claims/<plan>/<name>.g<gen>.claim`` — the same
  exactly-once discipline the chaos harness uses for fault claims:
  whatever the interleaving, ``os.O_EXCL`` hands each (cell,
  generation) to exactly one engine;
* a claim carries a wall-clock **lease**
  (``REPRO_SERVICE_LEASE_SECONDS``).  A SIGKILLed engine's claims
  expire, and any peer may *reclaim* the cell at generation+1 — a new
  O_EXCL race, again won exactly once.  Claims by live engines are
  never contested before expiry;
* finished cells are published as sealed **done records**; the
  submitting engine collects them (claiming and computing cells
  itself all the while, so a lone engine still finishes) and
  assembles the rows.

Row identity with a serial run is by construction: the plan resolves
names and θ with the sweep driver's own
:func:`~repro.analysis.parallel.sweep_grid`, every cell is the same
deterministic ``compute_cells`` computation, done records carry each
benchmark's cell results in grid order, and the rows are built by the
driver's :func:`~repro.analysis.parallel.grid_rows` — so
``rows_digest`` matches a direct ``api.sweep`` byte for byte.
Duplicated work (a lease expiring under a live-but-slow engine) is
harmless for the same reason: both generations publish identical
records.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import socket
import time

from repro import settings as _settings
from repro.errors import CellFailure, StoreDegraded
from repro.obs.metrics import get_registry
from repro.service.jobs import new_job_id

__all__ = [
    "FanoutWorker",
    "engine_id",
    "publish_plan",
    "run_fanout_sweep",
    "serve_forever",
    "work_plan",
]

_METRICS = get_registry()

#: How often an idle serve loop re-scans the store for open plans.
_SCAN_INTERVAL = 0.5


def engine_id() -> str:
    """This engine's claim identity (host + pid: unique per serving
    process across every host sharing the store)."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _done_key(plan_id: str, name: str) -> str:
    return hashlib.sha256(
        f"{plan_id}:{name}".encode("utf-8")
    ).hexdigest()


def _claims_dir(root: pathlib.Path, plan_id: str) -> pathlib.Path:
    return pathlib.Path(root) / "sweeps" / "claims" / plan_id


# -- plans --------------------------------------------------------------------


def publish_plan(store, payload: dict) -> dict:
    """Publish one open plan record for *payload*; returns the record.

    Names and θ resolve as in :func:`repro.api.sweep`: no names means
    every benchmark, and a bad grid raises the same typed
    :class:`~repro.errors.SpecError`.
    """
    from repro.analysis.parallel import sweep_grid

    kind = payload.get("sweep_kind", "size")
    names, thetas = sweep_grid(
        payload.get("names"), kind, payload.get("thetas")
    )
    record = {
        "names": list(names),
        "scale": float(payload.get("scale", 0.5)),
        "thetas": list(thetas),
        "kind": kind,
        "plan": new_job_id(),
        "state": "open",
        "engine": engine_id(),
        "published": time.time(),
    }
    store.put("sweep", record["plan"], record)
    _METRICS.inc("service.fanout.plans")
    return record


def _open_plans(store) -> list[dict]:
    plans = []
    for entry in store.scan():
        if entry.ns != "sweep":
            continue
        try:
            record = store.get("sweep", entry.key)
        except StoreDegraded:
            return []
        if (
            record
            and record.get("state") == "open"
            and record.get("names")
        ):
            plans.append(record)
    return plans


# -- claims -------------------------------------------------------------------


def _latest_gen(claims: pathlib.Path, name: str) -> int:
    latest = 0
    try:
        children = list(claims.iterdir())
    except OSError:
        return 0
    for child in children:
        if not child.name.startswith(f"{name}.g"):
            continue
        suffix = child.name[len(name) + 2:]
        if suffix.endswith(".claim"):
            try:
                latest = max(latest, int(suffix[: -len(".claim")]))
            except ValueError:
                continue
    return latest


def try_claim(
    store, plan_id: str, name: str, lease: float
) -> int | None:
    """Claim (plan, *name*) for this engine; the won generation, or
    ``None`` (someone else holds a live claim, or won the race).

    Exactly-once per generation: the O_EXCL create is the only writer
    of each ``<name>.g<gen>.claim`` path, so two engines racing for
    the same generation cannot both win.  A new generation only opens
    once the previous claim's lease has expired — live engines are
    never contested.
    """
    claims = _claims_dir(store.root, plan_id)
    try:
        claims.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    gen = _latest_gen(claims, name)
    reclaim = False
    if gen:
        try:
            holder = json.loads(
                (claims / f"{name}.g{gen}.claim").read_text()
            )
        except (OSError, ValueError):
            holder = {}  # torn claim: its writer died mid-crash
        if time.time() < holder.get("expires", 0.0):
            return None
        reclaim = True
    target = claims / f"{name}.g{gen + 1}.claim"
    payload = json.dumps({
        "engine": engine_id(),
        "expires": time.time() + lease,
        "claimed": time.time(),
    }, sort_keys=True).encode("utf-8")
    try:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return None  # a peer won this generation
    except OSError:
        return None
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
    _METRICS.inc("service.fanout.claims")
    if reclaim:
        _METRICS.inc("service.fanout.reclaims")
    return gen + 1


# -- cell execution -----------------------------------------------------------


def _plan_cells(plan: dict, name: str) -> list:
    from repro.analysis.parallel import grid_cells

    return grid_cells(plan["kind"], (name,), plan["scale"], plan["thetas"])


def _compute_cell(plan: dict, name: str) -> list[dict]:
    """Compute every θ of one benchmark cell (inline, against the
    shared store-backed cell cache) and return the results in grid
    order."""
    from repro.analysis.parallel import compute_cells

    cells = _plan_cells(plan, name)
    results = compute_cells(cells, parallel=False)
    return [results[cell] for cell in cells]


def work_plan(store, plan: dict, lease: float | None = None) -> int:
    """Claim-and-compute every currently claimable cell of *plan*;
    returns how many cells this call completed."""
    if lease is None:
        lease = _settings.current().service_lease_seconds
    completed = 0
    for name in plan["names"]:
        done_key = _done_key(plan["plan"], name)
        try:
            if store.get("sweep", done_key) is not None:
                continue
        except StoreDegraded:
            break
        if try_claim(store, plan["plan"], name, lease) is None:
            continue
        values = _compute_cell(plan, name)
        record = {
            "plan": plan["plan"],
            "name": name,
            "engine": engine_id(),
            "cells": values,
        }
        try:
            store.put("sweep", done_key, record)
        except StoreDegraded:
            # The lease will lapse and a peer (or this engine, next
            # round) republishes; the cell cache keeps the compute.
            continue
        completed += 1
        _METRICS.inc("service.fanout.cells_computed")
    return completed


class FanoutWorker:
    """The serve loop's fan-out participant.

    ``poll()`` is called every :func:`serve_forever` iteration; it
    rate-limits the store scan (plans change rarely) and computes at
    most one plan's claimable cells per call, so the loop still
    notices its exit conditions between plans.
    """

    def __init__(self, root: pathlib.Path | str | None = None):
        from repro.analysis.parallel import cache_dir
        from repro.store import get_store

        self.root = pathlib.Path(root) if root is not None else cache_dir()
        self._store = get_store(self.root)
        self._next_scan = 0.0

    def poll(self) -> int:
        now = time.monotonic()
        if now < self._next_scan:
            return 0
        self._next_scan = now + _SCAN_INTERVAL
        completed = 0
        for plan in _open_plans(self._store):
            completed += work_plan(self._store, plan)
            if completed:
                break
        return completed


def serve_forever(
    engine,
    root: pathlib.Path | str | None = None,
    poll_interval: float = 0.05,
    max_jobs: int | None = None,
    idle_exit: float | None = None,
    should_stop=None,
) -> int:
    """The ``repro serve`` loop: offer this process as a fan-out peer
    until told to stop.

    Jobs reach *engine* through its HTTP front end; this loop only
    computes open sweep plans' unclaimed cells (:class:`FanoutWorker`)
    and watches the exit conditions.  Returns the number of jobs that
    reached a terminal state while serving.  Exits when *should_stop*
    (the signal flag) fires, after *max_jobs* terminal jobs, or after
    *idle_exit* seconds with an empty queue and executor — whichever
    comes first.
    """
    worker = FanoutWorker(root)
    terminal_seen: set[str] = set()
    idle_since: float | None = None
    while True:
        if should_stop is not None and should_stop():
            break
        if worker.poll():
            idle_since = None
        for job_id, job in list(engine._jobs.items()):
            if job.terminal and job_id not in terminal_seen:
                terminal_seen.add(job_id)
        if max_jobs is not None and len(terminal_seen) >= max_jobs:
            break
        stats = engine.stats()
        busy = stats["queued"] or stats["running"]
        if busy:
            idle_since = None
        elif idle_exit is not None:
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since >= idle_exit:
                break
        time.sleep(poll_interval)
    return len(terminal_seen)


# -- the submitting engine ----------------------------------------------------


def _collect(store, plan: dict) -> dict[str, dict]:
    done: dict[str, dict] = {}
    for name in plan["names"]:
        try:
            record = store.get("sweep", _done_key(plan["plan"], name))
        except StoreDegraded:
            break
        if record is not None:
            done[name] = record
    return done


def run_fanout_sweep(payload: dict, poll_interval: float = 0.05,
                     plan: dict | None = None) -> dict:
    """Partition, co-compute, and collect one fan-out sweep.

    Runs on the engine executing the sweep job.  This engine is a
    full participant — it claims and computes cells like any peer —
    so the sweep finishes even with no second engine, and peers
    joining mid-flight just make it faster.  Dead peers' cells come
    back via lease-expiry reclaim; a sweep whose cells cannot all be
    collected inside the budget fails with a typed
    :class:`~repro.errors.CellFailure` naming the missing benchmarks.
    """
    from repro.analysis.parallel import cache_dir, grid_rows
    from repro.store import get_store

    resolved = _settings.current()
    store = get_store(cache_dir())
    if plan is None:
        plan = publish_plan(store, payload)
    lease = resolved.service_lease_seconds
    budget = float(payload.get("collect_timeout", 600.0))
    deadline = time.monotonic() + budget
    while True:
        work_plan(store, plan, lease)
        done = _collect(store, plan)
        if len(done) == len(plan["names"]):
            break
        if time.monotonic() >= deadline:
            missing = [
                name for name in plan["names"] if name not in done
            ]
            raise CellFailure(
                f"fan-out sweep {plan['plan']} lost cells",
                cell=", ".join(missing),
                reason="collect-timeout",
            )
        time.sleep(poll_interval)
    plan["state"] = "done"
    try:
        store.put("sweep", plan["plan"], plan)
    except StoreDegraded:
        pass  # peers keep skipping it: every cell has a done record
    results = {}
    for name in plan["names"]:
        results.update(zip(_plan_cells(plan, name), done[name]["cells"]))
    rows = grid_rows(
        plan["kind"], plan["names"], plan["scale"], plan["thetas"], results
    )
    engines = sorted({
        record.get("engine", "") for record in done.values()
    })
    return {
        "kind": plan["kind"],
        "rows": [repr(row) for row in rows],
        "rows_digest": hashlib.sha256(
            repr(rows).encode("utf-8")
        ).hexdigest(),
        "plan": plan["plan"],
        "fanout": {
            "cells": len(plan["names"]),
            "engines": engines,
        },
    }
