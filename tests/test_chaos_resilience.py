"""End-to-end resilience: cache recovery through the harness, sweep
resume after SIGKILL, deterministic chaos planning, and a small live
chaos sweep that must converge to serial numbers."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro.analysis.parallel as par
from repro.core.pipeline import SquashConfig
from repro.faultinject import chaos
from repro.faultinject.chaossweep import ChaosSweepReport, run_chaos_sweep
from repro.store.sealed import CacheStats

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _fake_cells(count=4):
    return [
        ("size", "fake", 1.0, SquashConfig(theta=i / 10))
        for i in range(count)
    ]


def _fake_result(i=0):
    return {
        "footprint_total": 100 + i,
        "baseline_words": 200,
        "reduction": 0.5,
    }


@pytest.fixture()
def fake_compute(monkeypatch, tmp_path):
    """Route compute_cells at a counting stand-in and a private cache."""
    calls = []

    def compute(kind, name, scale, config):
        calls.append((kind, name, scale, config))
        return _fake_result(len(calls))

    monkeypatch.setattr(par, "_compute_cell", compute)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return calls


class TestHarnessRecovery:
    def test_cache_hit_skips_recompute(self, fake_compute):
        cells = _fake_cells()
        first = par.compute_cells(cells, parallel=False)
        assert len(fake_compute) == len(cells)
        again = par.compute_cells(cells, parallel=False)
        assert len(fake_compute) == len(cells)  # all hits
        assert again == first

    def test_every_corruption_mode_recomputes_cleanly(
        self, fake_compute, tmp_path
    ):
        import random

        cells = _fake_cells(4)
        par.compute_cells(cells, parallel=False)
        modes = ["truncate", "garbage", "bitflip", "missing-keys"]
        for cell, mode in zip(cells, modes):
            chaos.corrupt_entry(
                par.cell_path(tmp_path, cell), mode, random.Random(1)
            )
        stats = CacheStats()
        results = par.compute_cells(cells, parallel=False, stats=stats)
        assert len(results) == 4  # nothing lost, nothing raised
        assert len(fake_compute) == 8  # all four recomputed
        assert stats.rejected == 4
        assert set(stats.rejects) <= {"torn", "seal-mismatch", "missing-keys"}
        # ... and the recomputed entries are good again.
        stats2 = CacheStats()
        par.compute_cells(cells, parallel=False, stats=stats2)
        assert stats2.hits == 4 and stats2.rejected == 0

    def test_entry_with_wrong_keys_for_kind_recomputes(
        self, fake_compute, tmp_path
    ):
        from repro.store.sealed import write_entry

        (cell,) = _fake_cells(1)
        write_entry(par.cell_path(tmp_path, cell), {"cycles": 1})
        stats = CacheStats()
        par.compute_cells([cell], parallel=False, stats=stats)
        assert stats.rejects == {"missing-keys": 1}
        assert len(fake_compute) == 1

    def test_strict_false_reports_instead_of_raising(
        self, monkeypatch, tmp_path
    ):
        def explode(kind, name, scale, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(par, "_compute_cell", explode)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CELL_RETRIES", "1")
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "0")
        sink = []
        results = par.compute_cells(
            _fake_cells(2), parallel=False, strict=False, report_sink=sink
        )
        assert results == {}
        assert len(sink) == 1 and len(sink[0].failures) == 2

    def test_strict_raises_the_typed_failure(self, monkeypatch, tmp_path):
        from repro.errors import CellFailure

        def explode(kind, name, scale, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(par, "_compute_cell", explode)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CELL_RETRIES", "1")
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "0")
        with pytest.raises(CellFailure):
            par.compute_cells(_fake_cells(1), parallel=False)

    def test_bad_workers_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        with pytest.warns(RuntimeWarning):
            assert par._workers() == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert par._workers() == 3


class TestSigkillResume:
    def test_killed_sweep_resumes_from_cache(self, monkeypatch, tmp_path):
        """SIGKILL a sweep mid-run; the rerun recomputes only the
        unfinished cells and leaves finished entries untouched."""
        script = (
            "import time\n"
            "import repro.analysis.parallel as par\n"
            "from repro.core.pipeline import SquashConfig\n"
            "def slow(kind, name, scale, config):\n"
            "    time.sleep(0.25)\n"
            "    return {'footprint_total': 100, 'baseline_words': 200,\n"
            "            'reduction': 0.5}\n"
            "par._compute_cell = slow\n"
            "cells = [('size', 'fake', 1.0, SquashConfig(theta=i / 10))\n"
            "         for i in range(6)]\n"
            "par.compute_cells(cells, parallel=False)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                done = list(tmp_path.rglob("*.json"))
                if len(done) >= 2 or child.poll() is not None:
                    break
                time.sleep(0.02)
            child.kill()  # SIGKILL: no cleanup, no atexit
        finally:
            child.wait()

        survivors = {
            path: path.stat().st_mtime_ns
            for path in tmp_path.rglob("*.json")
        }
        assert survivors  # the interrupted sweep persisted progress
        assert len(survivors) < 6 or child.returncode == 0

        calls = []

        def compute(kind, name, scale, config):
            calls.append(1)
            return _fake_result()

        monkeypatch.setattr(par, "_compute_cell", compute)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cells = _fake_cells(6)
        results = par.compute_cells(cells, parallel=False)
        assert len(results) == 6
        assert len(calls) == 6 - len(survivors)  # only unfinished cells
        for path, mtime in survivors.items():
            assert path.stat().st_mtime_ns == mtime  # never rewritten


class TestChaosPlanning:
    def test_plan_is_deterministic(self):
        digests = [f"d{i}" for i in range(7)]
        assert chaos.plan_process_chaos(
            digests, 12, seed=5
        ) == chaos.plan_process_chaos(digests, 12, seed=5)

    def test_round_robin_fairness_and_cap(self):
        digests = [f"d{i}" for i in range(5)]
        plan = chaos.plan_process_chaos(digests, 12, seed=0, max_per_cell=3)
        counts = sorted(len(v) for v in plan.values())
        assert sum(counts) == 12
        assert max(counts) - min(counts) <= 1  # fair spread
        assert max(counts) <= 3

    def test_over_capacity_is_an_explicit_error(self):
        with pytest.raises(ValueError):
            chaos.plan_process_chaos(["a", "b"], 7, seed=0, max_per_cell=3)

    def test_max_hangs_zero_excludes_hangs(self):
        plan = chaos.plan_process_chaos(
            [f"d{i}" for i in range(6)], 12, seed=0, max_per_cell=2,
            max_hangs=0,
        )
        assert all(k != "hang" for kinds in plan.values() for k in kinds)

    def test_spec_roundtrips_through_env(self):
        spec = chaos.ChaosSpec(
            seed=3, plan={"d": ["kill", "oom"]},
            hang_seconds=9.0, counter_dir="/tmp/x",
        )
        assert chaos.ChaosSpec.from_env(spec.to_env()) == spec
        assert spec.planned_faults == 2

    def test_inline_kill_degrades_to_typed_error(self, monkeypatch, tmp_path):
        # Outside a pool worker an os._exit would take the driver down;
        # the fault must degrade to a retryable ChaosKill instead.
        spec = chaos.ChaosSpec(
            seed=0, plan={"dig": ["kill"]}, counter_dir=str(tmp_path)
        )
        monkeypatch.setenv(chaos.ENV_SPEC, spec.to_env())
        with pytest.raises(chaos.ChaosKill):
            chaos.maybe_inject("dig")
        # The fault is consumed: the next execution computes normally.
        chaos.maybe_inject("dig")
        assert chaos.fired_counts(tmp_path) == {"kill": 1}

    def test_unplanned_digest_is_a_noop(self, monkeypatch, tmp_path):
        spec = chaos.ChaosSpec(
            seed=0, plan={"dig": ["oom"]}, counter_dir=str(tmp_path)
        )
        monkeypatch.setenv(chaos.ENV_SPEC, spec.to_env())
        chaos.maybe_inject("other")  # no plan: must not raise
        with pytest.raises(MemoryError):
            chaos.maybe_inject("dig")


class TestChaosSweep:
    def test_small_live_sweep_converges(self, tmp_path):
        """A real sweep under kills and OOMs (hangs excluded to keep CI
        fast) must lose nothing and match the serial rows exactly."""
        report = run_chaos_sweep(
            "adpcm", scale=0.2, faults=10, seed=3, workers=2,
            deadline=30.0, cell_sets=("fig6",), max_hangs=0,
            cache_root=str(tmp_path),
        )
        assert report.lost_cells == 0
        assert report.fired_process == report.planned_process
        assert sum(report.cache_rejects.values()) == sum(
            report.planned_cache.values()
        )
        assert report.rows_match
        assert report.ok
        assert "verdict: OK" in report.render()

    def test_cli_wiring(self, monkeypatch, capsys):
        import repro.faultinject
        from repro.cli import main

        good = ChaosSweepReport(
            name="adpcm", scale=0.2, seed=0, faults=5, cells=3,
            rows_match=True,
        )
        monkeypatch.setattr(
            repro.faultinject, "run_chaos_sweep",
            lambda name, **kw: good,
        )
        assert main(["chaossweep", "--names", "adpcm"]) == 0
        assert "verdict: OK" in capsys.readouterr().out

        bad = ChaosSweepReport(
            name="adpcm", scale=0.2, seed=0, faults=5, cells=3,
            rows_match=False, lost_cells=1,
        )
        monkeypatch.setattr(
            repro.faultinject, "run_chaos_sweep",
            lambda name, **kw: bad,
        )
        assert main(["chaossweep", "--names", "adpcm"]) == 1

    def test_report_verdict_requires_full_accounting(self):
        report = ChaosSweepReport(
            name="x", scale=1.0, seed=0, faults=2, cells=1,
            planned_process={"kill": 2}, fired_process={"kill": 1},
            rows_match=True,
        )
        assert not report.process_faults_ok
        assert not report.ok
        assert "MISSING" in report.render()
