"""The unified crash-safe artifact store.

One content-addressed store replaces the backing I/O of every on-disk
cache the harness grew — the sweep cell cache, the θ-invariant stage
bundles, and any saved images/profiles — behind a single API keyed by
content fingerprints (namespace + key digest).

Layout (under one root, ``REPRO_CACHE_DIR`` / ``.repro-cache``)::

    <root>/<aa>/<keydigest>.json          cell refs   (legacy layout kept)
    <root>/stages/<aa>/<keydigest>.json   stage-bundle refs
    <root>/images/<aa>/<keydigest>.json   squashed-image refs
    <root>/profiles/<aa>/<keydigest>.json profile refs
    <root>/objects/<cc>/<contenthash>.obj content objects (stored once)
    <root>/.store-lock                    quota/eviction critical section
    <root>/store-manifest.json            sealed manifest snapshot (gc)

Every **object** holds one sealed entry (the CRC-sealed two-line format
of :mod:`repro.store.sealed`), written with the same O_EXCL temp +
fsync + atomic-link discipline; every **ref** is a hard link to its
object, so identical stage bundles, images, or profiles are stored once
no matter how many keys map to them (``store.dedup_saves`` counts the
link-only publishes).  A ref is byte-for-byte a sealed entry, so legacy
cache files written by older harness versions read back unchanged.

Robustness is the headline feature:

* **Crash safety** — a SIGKILL at any point leaves either the old
  state, a stale temp file, or an orphan object; never a torn entry
  under a live name.  Readers validate the seal and *quarantine*
  corrupt refs (unlink + tally by reason) so the slot heals on the
  next write.
* **Quota** — with ``REPRO_STORE_QUOTA_BYTES`` set, admission and
  eviction run under a crash-tolerant lock (:mod:`repro.store.locks`):
  usage is re-measured inside the critical section, victims are chosen
  least recently accessed first, and each victim is re-checked against
  its **generation stamp** (inode + mtime + atime captured at scan
  time) immediately before the unlink — an entry rewritten or touched
  by a racing worker is skipped, never clobbered.  On-disk usage
  never exceeds the quota: the check happens before bytes are added,
  under the lock.
* **Graceful degradation** — transient write failures retry with
  backoff (``REPRO_STORE_RETRIES`` / ``REPRO_STORE_BACKOFF``); a run
  of failures opens a breaker (``REPRO_STORE_BREAKER_THRESHOLD`` /
  ``_COOLDOWN``) that short-circuits every call with a typed
  :class:`~repro.errors.StoreDegraded` instead of hammering a dead
  disk.  Callers catch it and recompute without caching; the sweep
  completes either way, and ``store.degraded`` counts how often.

Chaos hooks (:func:`repro.faultinject.chaos.maybe_store_fault`) fire
inside the write and eviction paths when ``REPRO_STORE_CHAOS`` is
armed, so ENOSPC storms and kills mid-eviction are testable
deterministically.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pathlib
import secrets
import time
import warnings
from dataclasses import dataclass

from repro import settings as _settings
from repro.errors import StoreDegraded, TenantQuotaExceeded
from repro.obs.metrics import get_registry
from repro.store.locks import LockTimeout, StoreLock
from repro.store.sealed import (
    CacheStats,
    _fsync_dir,
    read_entry,
    seal_text,
    write_entry,
)

__all__ = [
    "NAMESPACES",
    "ArtifactStore",
    "ManifestEntry",
    "StoreConfig",
]

_METRICS = get_registry()

#: namespace -> subdirectory under the store root ("" = the root
#: itself, which is where the pre-store cell cache already lived).
NAMESPACES = {
    "cell": "",
    "stage": "stages",
    "image": "images",
    "profile": "profiles",
    "job": "jobs",
    "sweep": "sweeps",
}

#: Directory names under the root that are never ref namespaces.
_RESERVED = {"objects", "tenants", "claims"} | {
    sub for sub in NAMESPACES.values() if sub
}

#: Where tenant-attribution markers live (one empty file per
#: tenant-attributed ref, named ``<ns>@<key>``).
_TENANTS_DIR = "tenants"

_MANIFEST_NAME = "store-manifest.json"
_LOCK_NAME = ".store-lock"


def _chaos_fault(point: str) -> None:
    """Fire an armed store chaos fault at *point* (no-op otherwise)."""
    from repro.faultinject.chaos import maybe_store_fault

    maybe_store_fault(point)


@dataclass(frozen=True)
class StoreConfig:
    """The store knobs, resolved from :mod:`repro.settings`."""

    quota_bytes: int | None
    retries: int
    backoff: float
    breaker_threshold: int
    breaker_cooldown: float
    tenant_quota_bytes: int | None = None

    @classmethod
    def from_settings(cls) -> "StoreConfig":
        resolved = _settings.current()
        invalid = [
            name for name in resolved.invalid
            if name.startswith(("REPRO_STORE_", "REPRO_TENANT_"))
        ]
        if invalid:
            warnings.warn(
                f"{', '.join(sorted(invalid))}: invalid value(s); "
                "falling back to store defaults",
                RuntimeWarning,
                stacklevel=3,
            )
        return cls(
            quota_bytes=resolved.store_quota_bytes,
            retries=resolved.store_retries,
            backoff=resolved.store_backoff,
            breaker_threshold=resolved.store_breaker_threshold,
            breaker_cooldown=resolved.store_breaker_cooldown,
            tenant_quota_bytes=resolved.tenant_quota_bytes,
        )


@dataclass
class ManifestEntry:
    """One live ref, generation-stamped by (ino, mtime, atime).

    The stamp is what makes eviction safe against racing writers and
    readers: any change to the entry between the manifest scan and the
    unlink shows up as a stamp mismatch and the victim is skipped.
    """

    ns: str
    key: str
    path: pathlib.Path
    size: int
    ino: int
    atime_ns: int
    mtime_ns: int


class ArtifactStore:
    """Content-addressed, quota-aware, degradation-tolerant store.

    One instance per root per process; get one through
    :func:`repro.store.get_store` so breaker state is shared by every
    caller hitting the same root.
    """

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)
        self._breaker_failures = 0
        self._breaker_open_until = 0.0

    # -- paths ---------------------------------------------------------------

    def ref_path(self, ns: str, key: str) -> pathlib.Path:
        """Where the (ns, key) ref lives (the pre-store cache layout)."""
        sub = NAMESPACES[ns]
        base = self.root / sub if sub else self.root
        return base / key[:2] / f"{key}.json"

    def object_path(self, content_hash: str) -> pathlib.Path:
        return (
            self.root / "objects" / content_hash[:2]
            / f"{content_hash}.obj"
        )

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / _MANIFEST_NAME

    def _lock(self) -> StoreLock:
        # The lock file lives directly under the root, which may not
        # exist yet on the very first quota-guarded write.
        self.root.mkdir(parents=True, exist_ok=True)
        return StoreLock(self.root / _LOCK_NAME)

    # -- breaker / degradation -----------------------------------------------

    def _degrade(self, reason: str, message: str) -> StoreDegraded:
        _METRICS.inc("store.degraded")
        _METRICS.inc(f"store.degraded.{reason}")
        return StoreDegraded(message, reason=reason)

    def _check_breaker(self, cfg: StoreConfig) -> None:
        if cfg.breaker_threshold <= 0:
            return
        if time.monotonic() < self._breaker_open_until:
            raise self._degrade(
                "breaker-open",
                f"store breaker open for {self.root} "
                f"(after {self._breaker_failures} consecutive failures)",
            )

    def _breaker_failure(self, cfg: StoreConfig) -> None:
        self._breaker_failures += 1
        if (
            cfg.breaker_threshold > 0
            and self._breaker_failures >= cfg.breaker_threshold
        ):
            self._breaker_open_until = (
                time.monotonic() + cfg.breaker_cooldown
            )
            _METRICS.inc("store.breaker_opens")

    def _breaker_success(self) -> None:
        self._breaker_failures = 0
        self._breaker_open_until = 0.0

    # -- read path -----------------------------------------------------------

    def get(
        self,
        ns: str,
        key: str,
        required_keys=(),
        stats: CacheStats | None = None,
    ) -> dict | None:
        """The stored entry, or ``None`` (miss / quarantined corrupt).

        Raises :class:`StoreDegraded` only when the breaker is open —
        a plain miss or a detected-corrupt entry is an expected state
        the caller recomputes from.
        """
        cfg = StoreConfig.from_settings()
        self._check_breaker(cfg)
        stats = stats if stats is not None else CacheStats()
        before_rejects = dict(stats.rejects)
        path = self.ref_path(ns, key)
        entry = read_entry(path, required_keys, stats)
        if entry is None:
            _METRICS.inc("store.misses")
            _METRICS.inc(f"store.ns.{ns}.misses")
            new_rejects = {
                reason: count - before_rejects.get(reason, 0)
                for reason, count in stats.rejects.items()
                if count != before_rejects.get(reason, 0)
            }
            if new_rejects:
                reason = next(iter(new_rejects))
                _METRICS.inc(f"store.rejects.{reason}")
                if reason == "unreadable":
                    # EIO and friends: a disk that fails reads will
                    # fail writes too — feed the breaker.
                    self._breaker_failure(cfg)
                else:
                    self._quarantine(path, reason)
            return None
        self._breaker_success()
        _METRICS.inc("store.hits")
        _METRICS.inc(f"store.ns.{ns}.hits")
        self._touch(path)
        return entry

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Remove a corrupt ref so the slot heals on the next write."""
        try:
            os.unlink(path)
        except OSError:
            return
        _METRICS.inc("store.quarantined")
        _METRICS.inc(f"store.quarantined.{reason}")

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump the ref's atime (recency for LRU) without moving its
        mtime — resumed sweeps pin 'survivors are never rewritten' on
        the mtime staying put."""
        try:
            stat = os.stat(path)
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass

    # -- write path ----------------------------------------------------------

    def put(
        self, ns: str, key: str, obj: dict, tenant: str | None = None
    ) -> bool:
        """Persist *obj* under (ns, key); True when it is stored.

        ``False`` means the entry was *refused admission* (larger than
        the quota, or the evictor could not free enough) — a policy
        outcome, not a failure.  Infrastructure failures retry with
        backoff and then raise :class:`StoreDegraded`.

        With *tenant* the ref is attributed to that tenant: it counts
        toward the tenant's usage (:meth:`tenant_usage`), the
        per-tenant quota (``REPRO_TENANT_QUOTA_BYTES``) is enforced
        with eviction scoped to the tenant's *own* refs — raising a
        typed :class:`~repro.errors.TenantQuotaExceeded` when they
        cannot make room — and global-quota eviction for this write
        never victimizes refs attributed to *other* tenants.
        """
        cfg = StoreConfig.from_settings()
        self._check_breaker(cfg)
        payload = seal_text(json.dumps(obj, sort_keys=True)).encode("utf-8")
        size = len(payload)
        if cfg.quota_bytes is not None and size > cfg.quota_bytes:
            _METRICS.inc("store.admission_rejected")
            return False
        attempt = 0
        while True:
            try:
                admitted = self._put_once(
                    ns, key, payload, size, cfg, tenant
                )
            except (OSError, LockTimeout) as exc:
                attempt += 1
                _METRICS.inc("store.write_retries")
                if attempt > cfg.retries:
                    self._breaker_failure(cfg)
                    reason = (
                        errno.errorcode.get(exc.errno, "oserror")
                        if getattr(exc, "errno", None)
                        else type(exc).__name__.lower()
                    )
                    raise self._degrade(
                        reason.lower(),
                        f"store write failed after {attempt} attempt(s): "
                        f"{exc}",
                    ) from exc
                time.sleep(cfg.backoff * attempt)
                continue
            self._breaker_success()
            if admitted:
                _METRICS.inc("store.writes")
                _METRICS.inc(f"store.ns.{ns}.writes")
            return admitted

    def _put_once(
        self,
        ns: str,
        key: str,
        payload: bytes,
        size: int,
        cfg: StoreConfig,
        tenant: str | None = None,
    ) -> bool:
        content = hashlib.sha256(payload).hexdigest()
        obj_path = self.object_path(content)
        ref = self.ref_path(ns, key)
        tenant_quota = (
            cfg.tenant_quota_bytes if tenant is not None else None
        )
        if cfg.quota_bytes is None and tenant_quota is None:
            self._publish(obj_path, ref, payload)
            if tenant is not None:
                self._mark_tenant(tenant, ns, key)
            return True
        # Admission + eviction + publish is one cross-process critical
        # section: without it two workers could each see room and
        # overshoot the quota together.
        with self._lock():
            entries = self.scan()
            if tenant_quota is not None:
                if self._admit_tenant_locked(
                    entries, ns, key, size, tenant, tenant_quota
                ):
                    entries = self.scan()
            if cfg.quota_bytes is not None:
                usage = self.usage_bytes(entries)
                new_bytes = 0 if obj_path.exists() else size
                if usage + new_bytes > cfg.quota_bytes:
                    protect = None
                    if tenant is not None:
                        protect = {
                            owned
                            for owned, owner in self._tenant_map().items()
                            if owner != tenant
                        }
                    freed = self._evict_locked(
                        entries, usage + new_bytes - cfg.quota_bytes,
                        protect=protect,
                    )
                    usage -= freed
                    if usage + new_bytes > cfg.quota_bytes:
                        _METRICS.inc("store.admission_rejected")
                        return False
                self._publish(obj_path, ref, payload)
                _METRICS.set_gauge(
                    "store.usage_bytes", usage + new_bytes
                )
            else:
                self._publish(obj_path, ref, payload)
            if tenant is not None:
                self._mark_tenant(tenant, ns, key)
        return True

    def _publish(
        self,
        obj_path: pathlib.Path,
        ref: pathlib.Path,
        payload: bytes,
    ) -> None:
        """Object first (stored once), then the ref hard link.

        Either step losing an O_EXCL/EEXIST race reuses the winner's
        file; a crash between the two leaves an orphan object that gc
        collects.  An existing object whose bytes differ from *payload*
        was damaged (refs are hard links, so damage through a ref
        reaches the object): it is replaced, never deduplicated
        against.  All failure modes surface as OSError for the retry
        loop above.
        """
        deduped = True
        present = obj_path.exists()
        damaged = present and not _holds(obj_path, payload)
        if damaged or not present:
            obj_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = obj_path.parent / (
                f".tmp-{os.getpid()}-{secrets.token_hex(4)}"
            )
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                try:
                    _chaos_fault("write")
                    os.write(fd, payload)
                    os.fsync(fd)
                finally:
                    os.close(fd)
                try:
                    if damaged:
                        os.replace(tmp, obj_path)
                        _METRICS.inc("store.objects_healed")
                    else:
                        os.link(tmp, obj_path)
                    deduped = False
                except FileExistsError:
                    pass  # another writer published the same content
            finally:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            _fsync_dir(obj_path.parent)
        ref.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.link(obj_path, ref)
        except FileExistsError:
            # The key exists: atomically repoint it unless it already
            # names this exact content.
            try:
                if os.stat(ref).st_ino == os.stat(obj_path).st_ino:
                    return
            except OSError:
                pass
            rtmp = ref.parent / (
                f".ref-{os.getpid()}-{secrets.token_hex(4)}.tmp"
            )
            os.link(obj_path, rtmp)
            os.replace(rtmp, ref)
        except OSError:
            # Filesystem without hard links: degrade to an independent
            # sealed copy (no dedup, same crash safety).
            _METRICS.inc("store.link_fallbacks")
            rtmp = ref.parent / (
                f".ref-{os.getpid()}-{secrets.token_hex(4)}.tmp"
            )
            fd = os.open(rtmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(rtmp, ref)
            deduped = False
        if deduped:
            _METRICS.inc("store.dedup_saves")
        _fsync_dir(ref.parent)

    # -- tenant attribution --------------------------------------------------

    @staticmethod
    def _safe_tenant(tenant: str) -> str:
        """A filesystem-safe directory name for *tenant* (hashed when
        the raw name carries separators or oddities)."""
        import re

        if re.fullmatch(r"[A-Za-z0-9._-]{1,64}", tenant):
            return tenant
        digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()
        return f"t-{digest[:16]}"

    def _tenant_dir(self, tenant: str) -> pathlib.Path:
        return self.root / _TENANTS_DIR / self._safe_tenant(tenant)

    def _mark_tenant(self, tenant: str, ns: str, key: str) -> None:
        """Attribute the (ns, key) ref to *tenant* with an empty
        marker file (idempotent; markers carry no bytes of their own)."""
        marker = self._tenant_dir(tenant) / f"{ns}@{key}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_WRONLY | os.O_CREAT, 0o644)
            os.close(fd)
        except OSError:
            pass  # attribution is accounting, never a write failure

    def tenants(self) -> list[str]:
        """Tenant directory names with at least one marker."""
        base = self.root / _TENANTS_DIR
        try:
            return sorted(
                child.name for child in base.iterdir()
                if child.is_dir()
            )
        except OSError:
            return []

    def _tenant_map(self) -> dict[tuple[str, str], str]:
        """(ns, key) -> tenant directory name, from the marker tree."""
        owners: dict[tuple[str, str], str] = {}
        for tenant in self.tenants():
            for marker in self._iter_markers(tenant):
                ns, _, key = marker.name.partition("@")
                if key:
                    owners[(ns, key)] = tenant
        return owners

    def _iter_markers(self, tenant: str) -> list[pathlib.Path]:
        try:
            return [
                path for path in self._tenant_dir(tenant).iterdir()
                if "@" in path.name
            ]
        except OSError:
            return []

    def tenant_refs(
        self, tenant: str, entries: list[ManifestEntry] | None = None
    ) -> list[ManifestEntry]:
        """The live manifest entries attributed to *tenant*; markers
        whose ref is gone (evicted, quarantined) are pruned as seen."""
        if entries is None:
            entries = self.scan()
        by_key = {(entry.ns, entry.key): entry for entry in entries}
        refs: list[ManifestEntry] = []
        for marker in self._iter_markers(self._safe_tenant(tenant)):
            ns, _, key = marker.name.partition("@")
            entry = by_key.get((ns, key))
            if entry is None:
                try:
                    marker.unlink()
                except OSError:
                    pass
                continue
            refs.append(entry)
        return refs

    def tenant_usage(
        self, tenant: str, entries: list[ManifestEntry] | None = None
    ) -> int:
        """Live bytes attributed to *tenant* (each inode once)."""
        seen: set[int] = set()
        total = 0
        for entry in self.tenant_refs(tenant, entries):
            if entry.ino not in seen:
                seen.add(entry.ino)
                total += entry.size
        _METRICS.set_gauge(
            f"store.tenant.{self._safe_tenant(tenant)}.usage_bytes",
            total,
        )
        return total

    def _admit_tenant_locked(
        self,
        entries: list[ManifestEntry],
        ns: str,
        key: str,
        size: int,
        tenant: str,
        quota: int,
    ) -> int:
        """Make room for a *size*-byte write inside *tenant*'s budget.

        Caller holds the store lock.  Victims come exclusively from
        the tenant's own refs, least recently accessed first, with the
        generation stamp re-checked — one tenant's pressure never
        touches another tenant's working set.  Returns the number of
        refs evicted; raises :class:`~repro.errors.TenantQuotaExceeded`
        when even that cannot fit the write.
        """
        refs = self.tenant_refs(tenant, entries)
        live = [
            entry for entry in refs
            if not (entry.ns == ns and entry.key == key)
        ]

        def _usage(pool: list[ManifestEntry]) -> int:
            seen: set[int] = set()
            total = 0
            for entry in pool:
                if entry.ino not in seen:
                    seen.add(entry.ino)
                    total += entry.size
            return total

        if _usage(live) + size <= quota:
            return 0
        evicted = 0
        remaining = list(live)
        for victim in sorted(live, key=lambda e: (e.atime_ns, str(e.path))):
            if _usage(remaining) + size <= quota:
                break
            try:
                stat = os.stat(victim.path)
            except OSError:
                remaining = [e for e in remaining if e is not victim]
                continue
            if (
                stat.st_ino != victim.ino
                or stat.st_mtime_ns != victim.mtime_ns
                or stat.st_atime_ns != victim.atime_ns
            ):
                _METRICS.inc("store.eviction_skipped_generation")
                continue
            try:
                os.unlink(victim.path)
            except OSError:
                continue
            remaining = [e for e in remaining if e is not victim]
            evicted += 1
            _METRICS.inc("store.tenant_evictions")
            marker = (
                self._tenant_dir(tenant) / f"{victim.ns}@{victim.key}"
            )
            try:
                marker.unlink()
            except OSError:
                pass
        usage = _usage(remaining)
        if usage + size > quota:
            _METRICS.inc("store.tenant_quota_rejected")
            raise TenantQuotaExceeded(
                f"tenant {tenant} write refused by the store",
                tenant=tenant,
                usage_bytes=usage,
                quota_bytes=quota,
            )
        return evicted

    # -- manifest / accounting -----------------------------------------------

    def scan(self) -> list[ManifestEntry]:
        """Every live ref, generation-stamped (the manifest source of
        truth; the persisted snapshot is only an inspection cache)."""
        entries: list[ManifestEntry] = []
        for ns, sub in NAMESPACES.items():
            base = self.root / sub if sub else self.root
            try:
                shards = list(base.iterdir())
            except OSError:
                continue
            for shard in shards:
                if (
                    len(shard.name) != 2
                    or shard.name in _RESERVED
                    or not shard.is_dir()
                ):
                    continue
                try:
                    files = list(shard.iterdir())
                except OSError:
                    continue
                for path in files:
                    if path.name.startswith(".") or not path.name.endswith(
                        ".json"
                    ):
                        continue
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue
                    entries.append(
                        ManifestEntry(
                            ns=ns,
                            key=path.name[: -len(".json")],
                            path=path,
                            size=stat.st_size,
                            ino=stat.st_ino,
                            atime_ns=stat.st_atime_ns,
                            mtime_ns=stat.st_mtime_ns,
                        )
                    )
        return entries

    def _scan_objects(self) -> dict[int, tuple[pathlib.Path, int, int]]:
        """inode -> (path, size, nlink) for every stored object."""
        objects: dict[int, tuple[pathlib.Path, int, int]] = {}
        base = self.root / "objects"
        if not base.is_dir():
            return objects
        for shard in base.iterdir():
            if not shard.is_dir():
                continue
            for path in shard.iterdir():
                if path.name.startswith("."):
                    continue
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                objects[stat.st_ino] = (path, stat.st_size, stat.st_nlink)
        return objects

    def usage_bytes(self, entries: list[ManifestEntry] | None = None) -> int:
        """Published bytes under the root, each inode counted once."""
        if entries is None:
            entries = self.scan()
        seen: set[int] = set()
        total = 0
        for entry in entries:
            if entry.ino not in seen:
                seen.add(entry.ino)
                total += entry.size
        for ino, (_, size, _) in self._scan_objects().items():
            if ino not in seen:
                seen.add(ino)
                total += size
        try:
            total += os.stat(self.manifest_path).st_size
        except OSError:
            pass
        return total

    # -- eviction ------------------------------------------------------------

    def _evict_locked(
        self,
        entries: list[ManifestEntry],
        need_bytes: int,
        protect: set[tuple[str, str]] | None = None,
    ) -> int:
        """Free at least *need_bytes* if possible; returns bytes freed.

        Caller holds the store lock.  Orphan objects (no live ref — a
        crashed writer's leftovers) go first; then refs least recently
        accessed first, each re-checked against its generation stamp so
        a racing rewrite or fresh hit is never clobbered.  Refs whose
        (ns, key) is in *protect* — other tenants' working sets, when
        the write being admitted is tenant-attributed — are never
        victims.
        """
        freed = 0
        objects = self._scan_objects()
        ref_inos: dict[int, int] = {}
        for entry in entries:
            ref_inos[entry.ino] = ref_inos.get(entry.ino, 0) + 1
        for ino, (path, size, _) in list(objects.items()):
            if ino not in ref_inos:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                _METRICS.inc("store.orphans_collected")
                freed += size
                del objects[ino]
        evicted_refs = 0
        # Least recently accessed first, path breaking ties: every hit
        # bumps its ref's atime (mtime is left untouched), so recency
        # survives process boundaries through the filesystem.
        for victim in sorted(
            entries, key=lambda e: (e.atime_ns, str(e.path))
        ):
            if freed >= need_bytes:
                break
            if protect and (victim.ns, victim.key) in protect:
                _METRICS.inc("store.eviction_skipped_tenant")
                continue
            try:
                stat = os.stat(victim.path)
            except OSError:
                continue  # already gone
            if (
                stat.st_ino != victim.ino
                or stat.st_mtime_ns != victim.mtime_ns
                or stat.st_atime_ns != victim.atime_ns
            ):
                # Rewritten or freshly read since the scan: the
                # generation stamp says this victim is live — skip it.
                _METRICS.inc("store.eviction_skipped_generation")
                continue
            try:
                os.unlink(victim.path)
            except OSError:
                continue
            evicted_refs += 1
            _METRICS.inc("store.evictions")
            _METRICS.inc(f"store.ns.{victim.ns}.evictions")
            _chaos_fault("evict")
            remaining = ref_inos.get(victim.ino, 1) - 1
            ref_inos[victim.ino] = remaining
            if victim.ino in objects:
                if remaining <= 0:
                    path, size, _ = objects.pop(victim.ino)
                    try:
                        os.unlink(path)
                        freed += size
                    except OSError:
                        pass
            else:
                # A standalone ref, not linked to any object (fault
                # injection replaces a ref's link with a fresh file):
                # its bytes are its own.
                freed += victim.size
        if freed:
            _METRICS.inc("store.evicted_bytes", freed)
        return freed

    def evict(self, target_bytes: int | None = None) -> dict:
        """Explicit eviction down to *target_bytes* (or the quota)."""
        cfg = StoreConfig.from_settings()
        target = (
            target_bytes if target_bytes is not None else cfg.quota_bytes
        )
        if target is None:
            return {"freed": 0, "usage": self.usage_bytes()}
        with self._lock():
            entries = self.scan()
            usage = self.usage_bytes(entries)
            freed = 0
            if usage > target:
                freed = self._evict_locked(entries, usage - target)
        return {"freed": freed, "usage": self.usage_bytes()}

    # -- maintenance ---------------------------------------------------------

    def gc(self, stale_temp_seconds: float = 300.0) -> dict:
        """Collect crash leftovers and rewrite the manifest snapshot.

        Removes stale temp files, orphan objects, corrupt refs
        (quarantined by reason), and tenant markers whose ref is gone,
        then persists a sealed manifest snapshot for `repro store
        stats` and enforces the quota.
        """
        report = {
            "stale_temps": 0,
            "orphan_objects": 0,
            "corrupt_refs": 0,
            "stale_markers": 0,
            "evicted": 0,
        }
        now = time.time()
        for pattern in (".tmp-*", "*/.tmp-*", "*/*/.tmp-*",
                        ".ref-*.tmp", "*/.ref-*.tmp", "*/*/.ref-*.tmp",
                        "*/*/.*.tmp"):
            for tmp in self.root.glob(pattern):
                try:
                    if now - tmp.stat().st_mtime > stale_temp_seconds:
                        tmp.unlink()
                        report["stale_temps"] += 1
                except OSError:
                    continue
        stats = CacheStats()
        entries = self.scan()
        for entry in entries:
            before = stats.rejected
            if (
                read_entry(entry.path, (), stats) is None
                and stats.rejected > before
            ):
                self._quarantine(entry.path, "gc")
                report["corrupt_refs"] += 1
        entries = self.scan()
        live = {entry.ino for entry in entries}
        for ino, (path, _, _) in self._scan_objects().items():
            if ino not in live:
                try:
                    os.unlink(path)
                    report["orphan_objects"] += 1
                    _METRICS.inc("store.orphans_collected")
                except OSError:
                    continue
        live_keys = {(entry.ns, entry.key) for entry in entries}
        for tenant in self.tenants():
            for marker in self._iter_markers(tenant):
                ns, _, key = marker.name.partition("@")
                if (ns, key) in live_keys:
                    continue
                try:
                    marker.unlink()
                    report["stale_markers"] += 1
                except OSError:
                    continue
        self._write_manifest(entries)
        cfg = StoreConfig.from_settings()
        if cfg.quota_bytes is not None:
            report["evicted"] = self.evict(cfg.quota_bytes)["freed"]
        return report

    def _write_manifest(self, entries: list[ManifestEntry]) -> None:
        """Best-effort sealed snapshot (inspection only; corruption is
        detected by the seal and the snapshot rebuilt on next gc)."""
        snapshot = {
            "version": 1,
            "entries": {
                f"{entry.ns}/{entry.key}": {
                    "size": entry.size,
                    "atime_ns": entry.atime_ns,
                    "mtime_ns": entry.mtime_ns,
                }
                for entry in sorted(
                    entries, key=lambda e: (e.ns, e.key)
                )
            },
        }
        try:
            write_entry(self.manifest_path, snapshot)
        except OSError:
            pass

    def load_manifest(self) -> dict | None:
        """The persisted snapshot, or ``None`` (absent or corrupt —
        corruption is counted and heals at the next gc)."""
        stats = CacheStats()
        snapshot = read_entry(
            self.manifest_path, ("version", "entries"), stats
        )
        if snapshot is None and stats.rejected:
            _METRICS.inc("store.manifest_rebuilds")
        return snapshot

    def verify(self) -> dict:
        """Read-only health check of every ref, object, and the
        manifest; corrupt entries are reported, not removed."""
        report = {
            "refs": 0,
            "ok": 0,
            "corrupt": {},
            "objects": 0,
            "orphan_objects": 0,
            "dedup_refs": 0,
            "manifest": "absent",
            "usage_bytes": 0,
            "quota_bytes": StoreConfig.from_settings().quota_bytes,
        }
        entries = self.scan()
        report["refs"] = len(entries)
        report["usage_bytes"] = self.usage_bytes(entries)
        for entry in entries:
            stats = CacheStats()
            if read_entry(entry.path, (), stats) is not None:
                report["ok"] += 1
            else:
                reason = (
                    next(iter(stats.rejects)) if stats.rejects else "torn"
                )
                report["corrupt"][reason] = (
                    report["corrupt"].get(reason, 0) + 1
                )
        live: dict[int, int] = {}
        for entry in entries:
            live[entry.ino] = live.get(entry.ino, 0) + 1
        report["dedup_refs"] = sum(
            count - 1 for count in live.values() if count > 1
        )
        objects = self._scan_objects()
        report["objects"] = len(objects)
        report["orphan_objects"] = sum(
            1 for ino in objects if ino not in live
        )
        if self.manifest_path.exists():
            report["manifest"] = (
                "ok" if self.load_manifest() is not None else "corrupt"
            )
        return report

    def stats(self) -> dict:
        """Point-in-time store statistics (cheap scan, no mutation)."""
        cfg = StoreConfig.from_settings()
        entries = self.scan()
        per_ns: dict[str, int] = {}
        for entry in entries:
            per_ns[entry.ns] = per_ns.get(entry.ns, 0) + 1
        usage = self.usage_bytes(entries)
        _METRICS.set_gauge("store.usage_bytes", usage)
        return {
            "root": str(self.root),
            "refs": len(entries),
            "per_namespace": dict(sorted(per_ns.items())),
            "objects": len(self._scan_objects()),
            "usage_bytes": usage,
            "quota_bytes": cfg.quota_bytes,
            "breaker_open": time.monotonic() < self._breaker_open_until,
            "tenants": {
                tenant: self.tenant_usage(tenant, entries)
                for tenant in self.tenants()
            },
            "tenant_quota_bytes": cfg.tenant_quota_bytes,
        }


def _holds(path: pathlib.Path, payload: bytes) -> bool:
    """Whether the file at *path* holds exactly *payload*."""
    try:
        if path.stat().st_size != len(payload):
            return False
        return path.read_bytes() == payload
    except OSError:
        return False
