"""Per-tenant store accounting: markers, quotas, scoped eviction,
and the gc paths that keep the attribution tree honest."""

import hashlib
import json

import pytest

from repro import settings
from repro.errors import TenantQuotaExceeded
from repro.store.sealed import seal_text
from repro.store import get_store, reset_stores


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _obj(tag: str) -> dict:
    # Fixed-length distinct payloads: every entry costs the same bytes
    # so quota arithmetic in the tests stays exact.
    return {"v": hashlib.sha256(tag.encode()).hexdigest()}


def _entry_size() -> int:
    return len(
        seal_text(json.dumps(_obj("x"), sort_keys=True)).encode("utf-8")
    )


@pytest.fixture
def store(tmp_path):
    reset_stores()
    yield get_store(tmp_path / "store")
    reset_stores()


class TestAccounting:
    def test_put_with_tenant_marks_and_accounts(self, store):
        assert store.put("cell", _key("a1"), _obj("a1"), tenant="alice")
        assert store.tenants() == ["alice"]
        (ref,) = store.tenant_refs("alice")
        assert (ref.ns, ref.key) == ("cell", _key("a1"))
        assert store.tenant_usage("alice") == _entry_size()
        assert store.tenant_usage("bob") == 0

    def test_usage_counts_each_inode_once(self, store):
        # Dedup'd content: two refs, one object, one object's bytes.
        store.put("cell", _key("d1"), _obj("same"), tenant="alice")
        store.put("stage", _key("d2"), _obj("same"), tenant="alice")
        assert len(store.tenant_refs("alice")) == 2
        assert store.tenant_usage("alice") == _entry_size()

    def test_untenanted_writes_stay_unattributed(self, store):
        store.put("cell", _key("anon"), _obj("anon"))
        assert store.tenants() == []

    def test_hostile_tenant_name_is_hashed(self, store):
        store.put("cell", _key("h"), _obj("h"), tenant="../../etc")
        (name,) = store.tenants()
        assert name.startswith("t-")
        assert "/" not in name

    def test_stats_reports_per_tenant_usage(self, store):
        store.put("cell", _key("s1"), _obj("s1"), tenant="alice")
        store.put("cell", _key("s2"), _obj("s2"), tenant="bob")
        tenants = store.stats()["tenants"]
        assert tenants == {
            "alice": _entry_size(), "bob": _entry_size(),
        }


class TestTenantQuota:
    def test_over_quota_evicts_only_own_refs(self, store):
        size = _entry_size()
        with settings.use_settings(tenant_quota_bytes=2 * size):
            store.put("cell", _key("b1"), _obj("b1"), tenant="bob")
            store.put("cell", _key("h1"), _obj("h1"), tenant="hog")
            store.put("cell", _key("h2"), _obj("h2"), tenant="hog")
            # Hog's third write must evict one of hog's own entries...
            assert store.put(
                "cell", _key("h3"), _obj("h3"), tenant="hog"
            )
        assert len(store.tenant_refs("hog")) == 2
        assert store.get("cell", _key("h3")) is not None
        # ...and never bob's.
        assert store.get("cell", _key("b1")) == _obj("b1")
        assert store.tenant_usage("bob") == size

    def test_unsatisfiable_write_is_typed(self, store):
        size = _entry_size()
        with settings.use_settings(tenant_quota_bytes=size // 2):
            with pytest.raises(TenantQuotaExceeded) as exc:
                store.put("cell", _key("big"), _obj("big"),
                          tenant="hog")
        assert exc.value.tenant == "hog"
        assert exc.value.quota_bytes == size // 2
        assert store.get("cell", _key("big")) is None

    def test_quota_ignores_other_tenants_bytes(self, store):
        size = _entry_size()
        with settings.use_settings(tenant_quota_bytes=2 * size):
            store.put("cell", _key("m1"), _obj("m1"), tenant="mouse")
            store.put("cell", _key("m2"), _obj("m2"), tenant="mouse")
            # Mouse is at its own cap; a different tenant still fits.
            assert store.put(
                "cell", _key("o1"), _obj("o1"), tenant="other"
            )
        assert len(store.tenant_refs("mouse")) == 2

    def test_global_eviction_never_victimizes_other_tenants(self, store):
        size = _entry_size()
        with settings.use_settings(store_quota_bytes=3 * size):
            store.put("cell", _key("m1"), _obj("m1"), tenant="mouse")
            store.put("cell", _key("g1"), _obj("g1"), tenant="hog")
            store.put("cell", _key("g2"), _obj("g2"), tenant="hog")
            # The store is full; hog's next write needs an eviction,
            # and the victim must come from hog's refs, not mouse's.
            assert store.put(
                "cell", _key("g3"), _obj("g3"), tenant="hog"
            )
        assert store.get("cell", _key("m1")) == _obj("m1")
        assert store.get("cell", _key("g3")) is not None
        assert len(store.tenant_refs("hog")) == 2


class TestGc:
    def test_stale_tenant_markers_pruned(self, store):
        store.put("cell", _key("live"), _obj("live"), tenant="alice")
        store._mark_tenant("alice", "cell", _key("ghost"))
        report = store.gc()
        assert report["stale_markers"] == 1
        (ref,) = store.tenant_refs("alice")
        assert ref.key == _key("live")
