"""Store fault injection: ENOSPC budgets, SIGKILL mid-eviction, and
the dead-store recompute fallback (the issue's acceptance scenarios).

Everything here must hold when run as root, where permission bits are
ineffective (CAP_DAC_OVERRIDE): "unwritable store" is modelled as an
ENOSPC storm through the chaos hook, which drives the exact same
retry → breaker → StoreDegraded → recompute ladder.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro import settings
from repro.errors import StoreDegraded
from repro.faultinject import chaos
from repro.obs.metrics import get_registry
from repro.store import get_store, reset_stores
from repro.store import store as store_module


def _arm(monkeypatch, tmp_path, **kwargs):
    counters = tmp_path / "chaos-counters"
    spec = chaos.StoreChaosSpec(counter_dir=str(counters), **kwargs)
    monkeypatch.setenv(chaos.ENV_STORE_SPEC, spec.to_env())
    return counters


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


class TestEnospcBudget:
    def test_budgeted_enospc_degrades_then_recovers(
        self, tmp_path, monkeypatch
    ):
        counters = _arm(monkeypatch, tmp_path, enospc=2)
        reset_stores()
        store = get_store(tmp_path / "store")
        with settings.use_settings(store_retries=0, store_backoff=0.0):
            for index in range(2):
                with pytest.raises(StoreDegraded) as info:
                    store.put("cell", _key(f"e{index}"), {"x": index})
                assert info.value.reason == "enospc"
            # Budget exhausted: the disk is "fixed", writes succeed.
            assert store.put("cell", _key("after"), {"x": 99})
        assert store.get("cell", _key("after")) == {"x": 99}
        assert chaos.fired_counts(counters) == {"enospc": 2}
        reset_stores()

    def test_retries_absorb_a_transient_enospc(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, enospc=1)
        reset_stores()
        store = get_store(tmp_path / "store")
        before = get_registry().counter("store.write_retries").value
        with settings.use_settings(store_retries=2, store_backoff=0.0):
            assert store.put("cell", _key("transient"), {"ok": True})
        assert store.get("cell", _key("transient")) == {"ok": True}
        assert get_registry().counter("store.write_retries").value > before
        reset_stores()

    def test_degradation_is_counted(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, enospc=1)
        reset_stores()
        store = get_store(tmp_path / "store")
        registry = get_registry()
        degraded = registry.counter("store.degraded").value
        by_reason = registry.counter("store.degraded.enospc").value
        with settings.use_settings(store_retries=0):
            with pytest.raises(StoreDegraded):
                store.put("cell", _key("counted"), {"x": 1})
        assert registry.counter("store.degraded").value == degraded + 1
        assert registry.counter("store.degraded.enospc").value == by_reason + 1
        reset_stores()


KILL_WRITER = textwrap.dedent(
    """
    import hashlib, sys
    from repro.store import get_store

    root, count = sys.argv[1], int(sys.argv[2])
    store = get_store(root)
    for index in range(count):
        key = hashlib.sha256(f"kill-{index}".encode()).hexdigest()
        store.put("cell", key, {"i": index, "pad": "k" * 256})
    print("SURVIVED")  # only reached if the kill never fired
    """
)


class TestSigkillMidEviction:
    def test_store_survives_and_heals(self, tmp_path):
        """A writer SIGKILLed right after unlinking an eviction victim
        leaves the store fully readable: no torn entries, usage within
        the quota, and a stale lock the next writer breaks."""
        quota = 4 * 1024
        root = tmp_path / "store"
        counters = tmp_path / "chaos-counters"
        spec = chaos.StoreChaosSpec(
            kill_evict=1, counter_dir=str(counters), inline_kill_ok=True
        )
        script = tmp_path / "writer.py"
        script.write_text(KILL_WRITER)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).resolve().parent.parent / "src"
        )
        env["REPRO_STORE_QUOTA_BYTES"] = str(quota)
        env[chaos.ENV_STORE_SPEC] = spec.to_env()
        proc = subprocess.run(
            [sys.executable, str(script), str(root), "60"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 137, (proc.returncode, proc.stdout,
                                        proc.stderr)
        assert "SURVIVED" not in proc.stdout
        assert chaos.fired_counts(counters) == {"kill_evict": 1}

        reset_stores()
        store = get_store(root)
        report = store.verify()
        # Readable: every surviving entry is intact, nothing torn, and
        # the root holds only entries and the dead writer's lock.
        assert sum(report["corrupt"].values()) == 0, report
        assert report["ok"] == report["refs"] > 0
        assert report["usage_bytes"] <= quota
        assert (root / ".store-lock").exists()
        assert sorted(
            path.name for path in root.rglob("*") if path.is_file()
        ) == sorted([".store-lock"] + [
            entry.path.name for entry in store.scan()
        ])
        # The dead writer's lock is broken, writes resume, gc heals.
        with settings.use_settings(store_quota_bytes=quota):
            assert store.put("cell", _key("resume"), {"x": 1})
            healed = store.gc(stale_temp_seconds=0.0)
            assert store.usage_bytes() <= quota
        assert healed == {"stale_temps": 0, "corrupt_refs": 0, "evicted": 0}
        assert not (root / ".store-lock").exists()
        assert store.get("cell", _key("resume")) == {"x": 1}
        reset_stores()


class TestDeadStoreFallback:
    def test_sweep_completes_via_recompute(self, tmp_path, monkeypatch):
        """With the store effectively unwritable (unbounded ENOSPC
        storm), a parallel sweep still completes — every cell is
        recomputed — and produces rows identical to a serial sweep
        with a healthy store."""
        import repro.api as api

        serial_cache = tmp_path / "healthy"
        with settings.use_settings(cache_dir=str(serial_cache)):
            serial = api.sweep(
                api.SweepSpec(names=("adpcm",), scale=0.2, thetas=(1e-4,))
            )

        _arm(monkeypatch, tmp_path, enospc=1000)
        monkeypatch.setattr(store_module, "BREAKER_COOLDOWN", 60.0)
        reset_stores()
        registry = get_registry()
        degraded = registry.counter("store.degraded").value
        dead_cache = tmp_path / "dead"
        with settings.use_settings(
            cache_dir=str(dead_cache),
            store_retries=0,
            store_backoff=0.0,
            store_breaker_threshold=2,
        ):
            rows = api.sweep(
                api.SweepSpec(
                    names=("adpcm",), scale=0.2, thetas=(1e-4,),
                    parallel=True,
                )
            )
        assert [(r.name, r.theta_paper, r.reduction) for r in rows] == [
            (r.name, r.theta_paper, r.reduction) for r in serial
        ]
        assert registry.counter("store.degraded").value > degraded
        reset_stores()


class TestStormSchedule:
    """``repro storechaos --seed N`` runs a storm of its own per N."""

    def test_equal_seeds_give_equal_schedules(self):
        from repro.faultinject.storechaos import writer_schedule, writer_seeds

        assert writer_seeds(7, 2) == writer_seeds(7, 2)
        for seed in writer_seeds(7, 2):
            assert writer_schedule(seed, 40) == writer_schedule(seed, 40)

    def test_different_seeds_give_different_schedules(self):
        from repro.faultinject.storechaos import writer_schedule, writer_seeds

        assert writer_seeds(1, 2) != writer_seeds(2, 2)
        first, second = writer_seeds(1, 2)
        assert first != second
        mine, theirs = writer_schedule(first, 40), writer_schedule(second, 40)
        assert mine != theirs
        # Even puts share their keys with the sibling; odd ones are
        # private to each writer.
        assert [tag for tag, _ in mine[::2]] == [tag for tag, _ in theirs[::2]]
        assert not {tag for tag, _ in mine[1::2]} & {
            tag for tag, _ in theirs[1::2]
        }
        sizes = {size for _, size in mine}
        assert len(sizes) > 1 and all(512 <= size <= 1536 for size in sizes)
