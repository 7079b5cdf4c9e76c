"""The unified artifact store: CAS layout, dedup, quotas, LRU
eviction, locking, and graceful degradation."""

import errno
import hashlib
import json
import os
import time

import pytest

from repro import settings
from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.store import (
    ArtifactStore,
    StoreLock,
    get_store,
    reset_stores,
)
from repro.store.locks import LockTimeout
from repro.store.sealed import CacheStats, read_entry, write_entry


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


@pytest.fixture
def store(tmp_path):
    reset_stores()
    yield get_store(tmp_path / "store")
    reset_stores()


class TestRoundTrip:
    def test_put_get_all_namespaces(self, store):
        for ns in ("cell", "stage", "image", "profile"):
            key = _key(ns)
            assert store.put(ns, key, {"ns": ns, "v": 1})
            assert store.get(ns, key, ("ns", "v")) == {"ns": ns, "v": 1}

    def test_miss_returns_none(self, store):
        assert store.get("cell", _key("absent")) is None

    def test_cell_refs_keep_the_legacy_layout(self, store):
        """Pre-store cell caches lived at <root>/<aa>/<digest>.json;
        the store must keep that layout so existing caches, the chaos
        corruption targeting, and rglob-based discovery keep working."""
        key = _key("layout")
        store.put("cell", key, {"x": 1})
        assert (store.root / key[:2] / f"{key}.json").is_file()

    def test_stage_refs_keep_the_legacy_layout(self, store):
        key = _key("stage-layout")
        store.put("stage", key, {"x": 1})
        assert (store.root / "stages" / key[:2] / f"{key}.json").is_file()

    def test_reads_legacy_entries_written_by_write_entry(self, store):
        """A sealed entry published by the pre-store cache writer is a
        first-class store entry."""
        key = _key("legacy")
        write_entry(store.ref_path("cell", key), {"cycles": 42})
        assert store.get("cell", key, ("cycles",)) == {"cycles": 42}

    def test_store_entries_read_back_through_read_entry(self, store):
        key = _key("forward")
        store.put("cell", key, {"cycles": 7})
        assert read_entry(store.ref_path("cell", key), ("cycles",)) == {
            "cycles": 7
        }

    def test_required_keys_enforced(self, store):
        key = _key("keys")
        store.put("cell", key, {"a": 1})
        assert store.get("cell", key, ("a", "b")) is None


class TestDedup:
    def test_identical_content_stored_once(self, store):
        """Two keys carrying byte-identical payloads share one object
        inode — identical stage bundles/images are stored once."""
        store.put("cell", _key("k1"), {"same": True})
        store.put("stage", _key("k2"), {"same": True})
        ino1 = os.stat(store.ref_path("cell", _key("k1"))).st_ino
        ino2 = os.stat(store.ref_path("stage", _key("k2"))).st_ino
        assert ino1 == ino2
        assert len(store._scan_objects()) == 1

    def test_dedup_counted(self, store):
        before = get_registry().counter("store.dedup_saves").value
        store.put("cell", _key("d1"), {"same": 2})
        store.put("cell", _key("d2"), {"same": 2})
        assert get_registry().counter("store.dedup_saves").value == before + 1

    def test_rewrite_same_key_new_content_repoints(self, store):
        key = _key("repoint")
        store.put("cell", key, {"v": 1})
        store.put("cell", key, {"v": 2})
        assert store.get("cell", key) == {"v": 2}

    def test_usage_counts_each_inode_once(self, store):
        store.put("cell", _key("u1"), {"pad": "x" * 100})
        store.put("cell", _key("u2"), {"pad": "x" * 100})
        usage = store.usage_bytes()
        size = os.stat(store.ref_path("cell", _key("u1"))).st_size
        assert usage == size


class TestCorruption:
    def test_corrupt_ref_is_quarantined(self, store):
        key = _key("corrupt")
        store.put("cell", key, {"x": 1})
        path = store.ref_path("cell", key)
        path.write_bytes(b"\x00garbage\x00")
        stats = CacheStats()
        assert store.get("cell", key, ("x",), stats) is None
        assert stats.rejected == 1
        # The slot healed: the corrupt file is gone, a rewrite works.
        assert not path.exists()
        assert store.put("cell", key, {"x": 2})
        assert store.get("cell", key) == {"x": 2}

    def test_rewrite_of_same_content_replaces_damaged_object(self, store):
        """The ref is a hard link, so writing through it damages the
        content object too; putting the same content again must
        replace that object, not deduplicate against it."""
        key = _key("heal")
        store.put("cell", key, {"x": 1})
        store.ref_path("cell", key).write_bytes(b"\x00garbage\x00")
        assert store.get("cell", key, ("x",)) is None
        healed = get_registry().counter("store.objects_healed").value
        assert store.put("cell", key, {"x": 1})
        assert store.get("cell", key, ("x",)) == {"x": 1}
        assert get_registry().counter("store.objects_healed").value == healed + 1

    def test_hit_preserves_mtime(self, store):
        """Recency bumps ride the atime; the mtime is the resume
        generation stamp and must never move on read."""
        key = _key("mtime")
        store.put("cell", key, {"x": 1})
        path = store.ref_path("cell", key)
        mtime = os.stat(path).st_mtime_ns
        for _ in range(3):
            store.get("cell", key)
        assert os.stat(path).st_mtime_ns == mtime

    def test_hit_advances_atime(self, store):
        key = _key("atime")
        store.put("cell", key, {"x": 1})
        path = store.ref_path("cell", key)
        os.utime(path, ns=(1, os.stat(path).st_mtime_ns))
        store.get("cell", key)
        assert os.stat(path).st_atime_ns > 1


class TestQuota:
    def test_usage_never_exceeds_quota(self, store):
        with settings.use_settings(store_quota_bytes=600):
            for index in range(20):
                store.put(
                    "cell", _key(f"q{index}"),
                    {"i": index, "pad": "y" * 80},
                )
                assert store.usage_bytes() <= 600

    def test_lru_evicts_oldest_first(self, store):
        with settings.use_settings(store_quota_bytes=500):
            keys = [_key(f"lru{i}") for i in range(8)]
            for index, key in enumerate(keys):
                store.put("cell", key, {"i": index, "pad": "z" * 80})
                # Deterministic recency spacing.
                path = store.ref_path("cell", key)
                os.utime(
                    path, ns=(index * 1_000_000, os.stat(path).st_mtime_ns)
                )
            # The most recent keys survive; the oldest were evicted.
            assert store.get("cell", keys[-1]) is not None
            assert store.get("cell", keys[0]) is None

    def test_oversized_entry_rejected_not_degraded(self, store):
        with settings.use_settings(store_quota_bytes=64):
            assert store.put("cell", _key("big"), {"p": "x" * 500}) is False

    def test_no_quota_means_no_lock_file(self, store):
        store.put("cell", _key("nolock"), {"x": 1})
        assert not (store.root / ".store-lock").exists()


class TestLock:
    def test_exclusive_and_reentrant_release(self, tmp_path):
        lock = StoreLock(tmp_path / "lk")
        with lock:
            assert (tmp_path / "lk").exists()
        assert not (tmp_path / "lk").exists()
        lock.release()  # idempotent

    def test_contention_times_out(self, tmp_path):
        path = tmp_path / "lk"
        with StoreLock(path, stale_after=60.0):
            waiter = StoreLock(path, stale_after=60.0, poll=0.001)
            with pytest.raises(LockTimeout):
                waiter.acquire(timeout=0.05)

    def test_dead_holder_is_broken(self, tmp_path):
        path = tmp_path / "lk"
        # A pid that cannot exist: the holder is provably dead.
        path.write_text(json.dumps({"pid": 2**22 + 1, "t": 0}))
        waiter = StoreLock(path, stale_after=60.0, poll=0.001)
        waiter.acquire(timeout=2.0)
        waiter.release()

    def test_stale_age_is_broken_even_with_live_pid(self, tmp_path):
        path = tmp_path / "lk"
        path.write_text(json.dumps({"pid": os.getpid(), "t": 0}))
        os.utime(path, (time.time() - 120, time.time() - 120))
        waiter = StoreLock(path, stale_after=10.0, poll=0.001)
        waiter.acquire(timeout=2.0)
        waiter.release()


class TestDegradation:
    @pytest.fixture
    def failing(self, store, monkeypatch):
        def _boom(*args, **kwargs):
            raise OSError(errno.EACCES, "injected: unwritable store")

        monkeypatch.setattr(ArtifactStore, "_publish", _boom)
        return store

    def test_put_raises_typed_degraded_after_retries(self, failing):
        with settings.use_settings(store_retries=1, store_backoff=0.0):
            with pytest.raises(StoreDegraded) as info:
                failing.put("cell", _key("dead"), {"x": 1})
        assert info.value.reason == "eacces"

    def test_degraded_counted_in_metrics(self, failing):
        before = get_registry().counter("store.degraded").value
        with settings.use_settings(store_retries=0):
            with pytest.raises(StoreDegraded):
                failing.put("cell", _key("dead2"), {"x": 1})
        assert get_registry().counter("store.degraded").value > before

    def test_breaker_opens_and_short_circuits_reads(self, failing):
        with settings.use_settings(
            store_retries=0, store_breaker_threshold=2,
            store_breaker_cooldown=60.0,
        ):
            for index in range(2):
                with pytest.raises(StoreDegraded):
                    failing.put("cell", _key(f"b{index}"), {"x": 1})
            with pytest.raises(StoreDegraded) as info:
                failing.get("cell", _key("b0"))
            assert info.value.reason == "breaker-open"

    def test_breaker_cooldown_expires(self, failing):
        with settings.use_settings(
            store_retries=0, store_breaker_threshold=1,
            store_breaker_cooldown=0.01,
        ):
            with pytest.raises(StoreDegraded):
                failing.put("cell", _key("cool"), {"x": 1})
            time.sleep(0.02)
            # Breaker half-open again: the read proceeds (a miss).
            assert failing.get("cell", _key("cool-miss")) is None

    def test_retry_succeeds_on_transient_failure(self, store, monkeypatch):
        real = ArtifactStore._publish
        calls = {"n": 0}

        def _flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.ENOSPC, "transient")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "_publish", _flaky)
        with settings.use_settings(store_retries=2, store_backoff=0.0):
            assert store.put("cell", _key("flaky"), {"x": 1})
        assert store.get("cell", _key("flaky")) == {"x": 1}


class TestMaintenance:
    def test_gc_collects_orphan_objects(self, store):
        store.put("cell", _key("live"), {"x": 1})
        orphan = store.object_path(hashlib.sha256(b"orphan").hexdigest())
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("dangling")
        report = store.gc(stale_temp_seconds=0.0)
        assert report["orphan_objects"] == 1
        assert not orphan.exists()
        assert store.get("cell", _key("live")) is not None

    def test_gc_removes_stale_temps_and_corrupt_refs(self, store):
        store.put("cell", _key("ok"), {"x": 1})
        bad = store.ref_path("cell", _key("bad"))
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"not an entry")
        tmp = store.root / "objects" / "ab" / ".tmp-999-dead"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("leftover")
        report = store.gc(stale_temp_seconds=0.0)
        assert report["corrupt_refs"] == 1
        assert report["stale_temps"] >= 1
        assert not bad.exists()
        assert not tmp.exists()

    def test_manifest_snapshot_round_trips(self, store):
        store.put("cell", _key("m1"), {"x": 1})
        store.gc(stale_temp_seconds=0.0)
        snapshot = store.load_manifest()
        assert snapshot is not None
        assert f"cell/{_key('m1')}" in snapshot["entries"]

    def test_manifest_corruption_detected_by_seal(self, store):
        import random

        from repro.faultinject.chaos import corrupt_entry

        store.put("cell", _key("m2"), {"x": 1})
        store.gc(stale_temp_seconds=0.0)
        before = get_registry().counter("store.manifest_rebuilds").value
        corrupt_entry(store.manifest_path, "bitflip", random.Random(0))
        assert store.load_manifest() is None
        assert (
            get_registry().counter("store.manifest_rebuilds").value
            == before + 1
        )
        # gc heals the snapshot.
        store.gc(stale_temp_seconds=0.0)
        assert store.load_manifest() is not None

    def test_verify_reports_health(self, store):
        store.put("cell", _key("v1"), {"x": 1})
        store.put("stage", _key("v2"), {"x": 1})
        bad = store.ref_path("cell", _key("v3"))
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"junk")
        report = store.verify()
        assert report["refs"] == 3
        assert report["ok"] == 2
        assert sum(report["corrupt"].values()) == 1
        assert report["dedup_refs"] == 1
        # verify is read-only: the corrupt ref is still there.
        assert bad.exists()

    def test_stats_shape(self, store):
        store.put("cell", _key("s1"), {"x": 1})
        stats = store.stats()
        assert stats["refs"] == 1
        assert stats["per_namespace"] == {"cell": 1}
        assert stats["objects"] == 1
        assert stats["usage_bytes"] > 0
        assert stats["breaker_open"] is False


class TestFacade:
    def test_api_store_helpers(self, tmp_path):
        import repro.api as api

        reset_stores()
        with settings.use_settings(cache_dir=str(tmp_path / "c")):
            get_store(tmp_path / "c").put("cell", _key("f"), {"x": 1})
            assert api.store_stats()["refs"] == 1
            assert api.store_verify()["ok"] == 1
            assert api.store_gc()["corrupt_refs"] == 0
        reset_stores()

    def test_get_store_caches_per_root(self, tmp_path):
        reset_stores()
        assert get_store(tmp_path) is get_store(tmp_path)
        assert get_store(tmp_path) is not get_store(tmp_path / "other")
        reset_stores()
