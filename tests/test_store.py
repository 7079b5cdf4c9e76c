"""The unified artifact store: one sealed file per key, quotas, LRU
eviction, locking, and graceful degradation."""

import errno
import hashlib
import json
import os
import pathlib
import time

import pytest

from repro import settings
from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.store import (
    NAMESPACES,
    ArtifactStore,
    StoreLock,
    get_store,
    reset_stores,
)
from repro.store import store as store_module
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
        for ns in NAMESPACES:
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

    def test_rewrite_same_key_replaces_entry(self, store):
        key = _key("repoint")
        store.put("cell", key, {"v": 1})
        store.put("cell", key, {"v": 2})
        assert store.get("cell", key) == {"v": 2}
        ref = store.ref_path("cell", key)
        assert [path.name for path in ref.parent.iterdir()] == [ref.name]

    def test_every_entry_is_one_sealed_file(self, store):
        """Identical payloads under different keys are separate files,
        each the sealed bytes at its ref path, and nothing else is
        written under the root."""
        for ns in NAMESPACES:
            store.put(ns, _key(f"one-{ns}"), {"same": True})
            store.put(ns, _key(f"two-{ns}"), {"same": True})
        store.put("cell", _key("one-cell"), {"same": False})
        refs = {
            store.ref_path(ns, _key(f"{tag}-{ns}"))
            for ns in NAMESPACES for tag in ("one", "two")
        }
        files = {path for path in store.root.rglob("*") if path.is_file()}
        assert files == refs
        for path in files:
            assert os.stat(path).st_nlink == 1
            assert read_entry(path, ("same",)) is not None
        assert store.usage_bytes() == sum(
            os.stat(path).st_size for path in files
        )


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
        """Damage written in place into an entry is never trusted:
        putting the same content again replaces the damaged file,
        whether or not a read quarantined it first."""
        for tag, read_first in (("heal", True), ("heal-unread", False)):
            key = _key(tag)
            path = store.ref_path("cell", key)
            store.put("cell", key, {"x": 1})
            path.write_bytes(b"\x00garbage\x00")
            if read_first:
                assert store.get("cell", key, ("x",)) is None
                assert not path.exists()
            assert store.put("cell", key, {"x": 1})
            assert store.get("cell", key, ("x",)) == {"x": 1}

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

    def test_same_key_rewrite_fits_the_quota_while_in_flight(
        self, store, monkeypatch
    ):
        """A rewrite's new file sits beside the one it replaces until
        the rename, so at a full quota it first evicts another entry to
        make room; the key being rewritten is never the victim, and
        when nothing else can go the rewrite is refused and the old
        entry kept."""
        entries = [_key(f"full{i}") for i in range(4)]
        for index, key in enumerate(entries):
            store.put("cell", key, {"i": index, "pad": "r" * 80})
        full = store.usage_bytes()
        one = full // len(entries)
        on_disk = []
        real_replace = os.replace

        def measuring_replace(src, dst):
            on_disk.append(sum(
                path.stat().st_size for path in store.root.rglob("*")
                if path.is_file() and path.name != ".store-lock"
            ))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", measuring_replace)
        with settings.use_settings(store_quota_bytes=full):
            assert store.put("cell", entries[0], {"i": 0, "pad": "s" * 80})
        # Three entries and the temp file: at the quota, never over it.
        assert on_disk == [full]
        assert store.get("cell", entries[0]) == {"i": 0, "pad": "s" * 80}
        assert sum(store.get("cell", k) is not None for k in entries) == 3
        assert store.usage_bytes() == full - one

        single = get_store(store.root.parent / "lone")
        single.put("cell", _key("lone"), {"pad": "a" * 80})
        size = single.usage_bytes()
        with settings.use_settings(store_quota_bytes=2 * size - 1):
            assert single.put("cell", _key("lone"), {"pad": "b" * 80}) is False
        assert single.get("cell", _key("lone")) == {"pad": "a" * 80}

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

        monkeypatch.setattr(ArtifactStore, "_write", _boom)
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

    def test_breaker_opens_and_short_circuits_reads(
        self, failing, monkeypatch
    ):
        monkeypatch.setattr(store_module, "BREAKER_COOLDOWN", 60.0)
        with settings.use_settings(
            store_retries=0, store_breaker_threshold=2,
        ):
            for index in range(2):
                with pytest.raises(StoreDegraded):
                    failing.put("cell", _key(f"b{index}"), {"x": 1})
            with pytest.raises(StoreDegraded) as info:
                failing.get("cell", _key("b0"))
            assert info.value.reason == "breaker-open"

    def test_breaker_cooldown_expires(self, failing, monkeypatch):
        monkeypatch.setattr(store_module, "BREAKER_COOLDOWN", 0.01)
        with settings.use_settings(
            store_retries=0, store_breaker_threshold=1,
        ):
            with pytest.raises(StoreDegraded):
                failing.put("cell", _key("cool"), {"x": 1})
            time.sleep(0.02)
            # Breaker half-open again: the read proceeds (a miss).
            assert failing.get("cell", _key("cool-miss")) is None

    def test_retry_succeeds_on_transient_failure(self, store, monkeypatch):
        real = ArtifactStore._write
        calls = {"n": 0}

        def _flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.ENOSPC, "transient")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "_write", _flaky)
        with settings.use_settings(store_retries=2, store_backoff=0.0):
            assert store.put("cell", _key("flaky"), {"x": 1})
        assert store.get("cell", _key("flaky")) == {"x": 1}


def _plant_temp(ref: pathlib.Path, age: float) -> pathlib.Path:
    """A temp file named as ``write_sealed`` names it next to *ref*,
    last modified *age* seconds ago."""
    tmp = ref.parent / f".{ref.name}.999-dead.tmp"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text("leftover")
    then = time.time() - age
    os.utime(tmp, (then, then))
    return tmp


class TestMaintenance:
    def test_gc_removes_stale_temps_and_corrupt_refs(self, store):
        store.put("cell", _key("ok"), {"x": 1})
        bad = store.ref_path("cell", _key("bad"))
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"not an entry")
        tmp = _plant_temp(store.ref_path("cell", _key("crashed")), 0.0)
        report = store.gc(stale_temp_seconds=0.0)
        assert report["corrupt_refs"] == 1
        assert report["stale_temps"] == 1
        assert not bad.exists()
        assert not tmp.exists()
        assert store.get("cell", _key("ok")) == {"x": 1}

    def test_gc_removes_stale_temps_at_both_ref_depths(self, store):
        """Cell entries sit in ``<root>/<aa>/``, the other namespaces
        in ``<root>/<ns>/<aa>/``; a writer killed mid-write leaves its
        temp at either depth.  Only stale ones go."""
        stale = [
            _plant_temp(store.ref_path(ns, _key(f"stale-{ns}")), 600.0)
            for ns in NAMESPACES
        ]
        fresh = _plant_temp(store.ref_path("stage", _key("fresh")), 0.0)
        assert {len(tmp.relative_to(store.root).parts) for tmp in stale} == {
            2, 3,
        }
        report = store.gc(stale_temp_seconds=300.0)
        assert report["stale_temps"] == len(stale)
        assert not any(tmp.exists() for tmp in stale)
        assert fresh.exists()

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
        # verify is read-only: the corrupt ref is still there.
        assert bad.exists()

    def test_stats_shape(self, store):
        store.put("cell", _key("s1"), {"x": 1})
        stats = store.stats()
        assert stats["refs"] == 1
        assert stats["per_namespace"] == {"cell": 1}
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
