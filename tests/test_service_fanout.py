"""Multi-host fan-out: claims, leases, reclaim, and row identity."""

import json
import threading
import time

import pytest

from repro import settings
from repro.errors import CellFailure, SpecError
from repro.obs.metrics import get_registry
from repro.service import fanout
from repro.service.fanout import (
    FanoutWorker,
    _done_key,
    engine_id,
    publish_plan,
    serve_forever,
    try_claim,
    work_plan,
)
from repro.store import get_store
from repro.workloads.mediabench import MEDIABENCH

_METRICS = get_registry()

SCALE = 0.2
THETA = 1e-4


def _plan(names=("adpcm",), thetas=(THETA,), kind="size"):
    return {
        "plan": "plan-test",
        "names": list(names),
        "thetas": list(thetas),
        "scale": SCALE,
        "kind": kind,
        "state": "open",
    }


def _claim_path(root, plan_id, name, gen):
    return root / "sweeps" / "claims" / plan_id / f"{name}.g{gen}.claim"


class TestPlan:
    """A fan-out plan resolves names and θ exactly like ``api.sweep``."""

    def test_plan_without_names_covers_every_benchmark(self, tmp_path):
        plan = publish_plan(
            get_store(tmp_path), {"thetas": [THETA], "scale": SCALE}
        )
        assert plan["names"] == list(MEDIABENCH)

    def test_negative_theta_is_the_same_typed_error_on_both_paths(
        self, tmp_path
    ):
        from repro.service.jobs import JobSpec, execute_job

        payload = {"names": ["adpcm"], "thetas": [-1.0], "scale": SCALE}
        errors = []
        with settings.use_settings(cache_dir=str(tmp_path)):
            for fanned in (False, True):
                with pytest.raises(SpecError) as exc:
                    execute_job(JobSpec(
                        kind="sweep", payload=dict(payload, fanout=fanned)
                    ))
                errors.append((exc.value.field, str(exc.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] == "thetas"


class TestClaims:
    def test_claim_is_exactly_once_per_generation(self, tmp_path):
        store = get_store(tmp_path)
        assert try_claim(store, "p", "adpcm", lease=60.0) == 1
        # The lease is live: nobody else gets a look-in.
        assert try_claim(store, "p", "adpcm", lease=60.0) is None
        marker = _claim_path(tmp_path, "p", "adpcm", 1)
        holder = json.loads(marker.read_text())
        assert holder["engine"] == engine_id()
        assert holder["expires"] > time.time()

    def test_reclaim_only_after_lease_expiry(self, tmp_path):
        store = get_store(tmp_path)
        reclaims = _METRICS.counter("service.fanout.reclaims").value
        assert try_claim(store, "p", "adpcm", lease=0.05) == 1
        assert try_claim(store, "p", "adpcm", lease=0.05) is None
        time.sleep(0.1)
        # The holder is dead (lease lapsed): generation 2 opens.
        assert try_claim(store, "p", "adpcm", lease=60.0) == 2
        assert (
            _METRICS.counter("service.fanout.reclaims").value
            == reclaims + 1
        )

    def test_torn_claim_counts_as_dead(self, tmp_path):
        store = get_store(tmp_path)
        marker = _claim_path(tmp_path, "p", "adpcm", 1)
        marker.parent.mkdir(parents=True)
        marker.write_text("{ not json —")  # writer died mid-crash
        assert try_claim(store, "p", "adpcm", lease=60.0) == 2

    def test_claims_are_per_cell(self, tmp_path):
        store = get_store(tmp_path)
        assert try_claim(store, "p", "adpcm", lease=60.0) == 1
        assert try_claim(store, "p", "gsm", lease=60.0) == 1


class TestWorkPlan:
    def test_done_record_short_circuits_the_claim(self, tmp_path):
        store = get_store(tmp_path)
        plan = _plan()
        store.put("sweep", _done_key(plan["plan"], "adpcm"),
                  {"plan": plan["plan"], "name": "adpcm", "cells": []})
        with settings.use_settings(cache_dir=str(tmp_path)):
            assert work_plan(store, plan, lease=60.0) == 0
        # No claim marker was ever created.
        assert not _claim_path(
            tmp_path, plan["plan"], "adpcm", 1
        ).exists()

    def test_work_plan_computes_and_publishes_the_cell(self, tmp_path):
        store = get_store(tmp_path)
        plan = _plan()
        with settings.use_settings(cache_dir=str(tmp_path)):
            assert work_plan(store, plan, lease=60.0) == 1
        record = store.get("sweep", _done_key(plan["plan"], "adpcm"))
        assert record["engine"] == engine_id()
        (cell,) = record["cells"]
        assert -1.0 < cell["reduction"] < 1.0
        # Going again: the done record, not a recompute.
        with settings.use_settings(cache_dir=str(tmp_path)):
            assert work_plan(store, plan, lease=60.0) == 0

    def test_live_foreign_claim_is_not_contested(self, tmp_path):
        store = get_store(tmp_path)
        plan = _plan()
        marker = _claim_path(tmp_path, plan["plan"], "adpcm", 1)
        marker.parent.mkdir(parents=True)
        marker.write_text(json.dumps({
            "engine": "other-host-1", "expires": time.time() + 60.0,
        }))
        with settings.use_settings(cache_dir=str(tmp_path)):
            assert work_plan(store, plan, lease=60.0) == 0


class TestWorker:
    def test_poll_throttles_store_scans(self, tmp_path, monkeypatch):
        scans = []
        monkeypatch.setattr(
            fanout, "_open_plans", lambda store: scans.append(1) or []
        )
        with settings.use_settings(cache_dir=str(tmp_path)):
            worker = FanoutWorker(tmp_path)
        assert worker.poll() == 0
        assert worker.poll() == 0  # inside the scan interval
        assert len(scans) == 1

    def test_poll_works_an_open_plan(self, tmp_path):
        store = get_store(tmp_path)
        with settings.use_settings(cache_dir=str(tmp_path)):
            plan = publish_plan(store, {
                "names": ["adpcm"], "thetas": [THETA], "scale": SCALE,
            })
            worker = FanoutWorker(tmp_path)
            assert worker.poll() == 1
        record = store.get("sweep", _done_key(plan["plan"], "adpcm"))
        assert record is not None


class TestServeLoop:
    def test_serve_forever_exits_on_should_stop(self, tmp_path):
        from repro.service import JobEngine, JobJournal, ServiceConfig
        from repro.service.jobs import JobSpec

        engine = JobEngine(
            ServiceConfig(drain_timeout=5.0),
            journal=JobJournal(tmp_path),
            execute_fn=lambda spec: {"value": spec.payload["value"]},
        )
        engine.start(recover=False)
        stop = threading.Event()
        polls = []
        result = {}

        def should_stop():
            polls.append(1)
            return stop.is_set()

        def serve():
            result["terminal"] = serve_forever(
                engine, tmp_path, poll_interval=0.01,
                should_stop=should_stop,
            )

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            job = engine.submit(JobSpec(
                kind="squash", payload={"name": "adpcm", "value": 4},
            ))
            assert engine.result(job.id, timeout=10.0) == {"value": 4}
            # Two more iterations: the second starts only after the
            # first has counted the (already terminal) job.
            seen, deadline = len(polls), time.monotonic() + 10.0
            while len(polls) < seen + 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            stop.set()
            thread.join(timeout=10.0)
            engine.stop(drain_timeout=0.5)
        assert not thread.is_alive()
        assert result["terminal"] >= 1


class TestFanoutSweep:
    def test_rows_identical_to_serial_sweep(self, tmp_path):
        from repro.service.jobs import JobSpec, execute_job

        payload = {
            "names": ["adpcm"], "thetas": [THETA], "scale": SCALE,
        }
        with settings.use_settings(
            cache_dir=str(tmp_path / "serial")
        ):
            serial = execute_job(
                JobSpec(kind="sweep", payload=dict(payload))
            )
        with settings.use_settings(
            cache_dir=str(tmp_path / "fanned")
        ):
            fanned = execute_job(JobSpec(
                kind="sweep", payload=dict(payload, fanout=True)
            ))
        assert fanned["rows"] == serial["rows"]
        assert fanned["rows_digest"] == serial["rows_digest"]
        assert fanned["fanout"]["cells"] == 1
        assert fanned["fanout"]["engines"] == [engine_id()]
        # The plan record is closed so peers stop scanning it.
        store = get_store(tmp_path / "fanned")
        assert store.get("sweep", fanned["plan"])["state"] == "done"

    def test_lost_cells_fail_typed_after_the_budget(
        self, tmp_path, monkeypatch
    ):
        # No engine ever works the plan: collection must give up with
        # a CellFailure naming the missing benchmarks, not hang.
        monkeypatch.setattr(
            fanout, "work_plan", lambda *a, **k: 0
        )
        payload = {
            "names": ["adpcm", "gsm"], "thetas": [THETA],
            "scale": SCALE, "collect_timeout": 0.2,
        }
        with settings.use_settings(cache_dir=str(tmp_path)):
            with pytest.raises(CellFailure) as exc:
                fanout.run_fanout_sweep(payload, poll_interval=0.01)
        assert exc.value.reason == "collect-timeout"
        assert "adpcm" in exc.value.cell
        assert "gsm" in exc.value.cell
