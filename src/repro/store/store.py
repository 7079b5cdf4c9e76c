"""The unified crash-safe artifact store.

One store replaces the backing I/O of every on-disk cache the harness
grew — the sweep cell cache, the θ-invariant stage bundles, and the
service's job journal — behind a single API keyed by content
fingerprints (namespace + key digest).

Layout (under one root, ``REPRO_CACHE_DIR`` / ``.repro-cache``)::

    <root>/<aa>/<keydigest>.json          cell entries (legacy layout kept)
    <root>/stages/<aa>/<keydigest>.json   stage-bundle entries
    <root>/jobs/<aa>/<keydigest>.json     service job-journal records
    <root>/.store-lock                    quota/eviction critical section

Every key is **one sealed file** at its ref path: the CRC-sealed
two-line format of :mod:`repro.store.sealed`, written by
:func:`~repro.store.sealed.write_sealed` (unique temp file, fsync,
``os.replace``, directory fsync).  A rewrite of a key replaces its
file atomically, so cache files written by older harness versions
read back unchanged.

Robustness is the headline feature:

* **Crash safety** — a SIGKILL at any point leaves either the old
  state or a stale temp file; never a torn entry under a live name.
  Readers validate the seal and *quarantine* corrupt entries (unlink +
  tally by reason) so the slot heals on the next write.
* **Quota** — with ``REPRO_STORE_QUOTA_BYTES`` set, admission and
  eviction run under a crash-tolerant lock (:mod:`repro.store.locks`):
  usage is re-measured inside the critical section, victims are chosen
  least recently accessed first, and each victim is re-checked against
  its **generation stamp** (inode + mtime + atime captured at scan
  time) immediately before the unlink — an entry rewritten or touched
  by a racing worker is skipped, never clobbered.  On-disk usage
  never exceeds the quota: the check happens before bytes are added,
  under the lock, and counts a rewrite's new file beside the one it
  replaces.
* **Graceful degradation** — transient write failures retry with
  backoff (``REPRO_STORE_RETRIES`` / ``REPRO_STORE_BACKOFF``); a run
  of ``REPRO_STORE_BREAKER_THRESHOLD`` failures opens a breaker that
  short-circuits every call for :data:`BREAKER_COOLDOWN` seconds with
  a typed :class:`~repro.errors.StoreDegraded` instead of hammering a
  dead disk.  Callers catch it and recompute without caching; the
  sweep completes either way, and ``store.degraded`` counts how often.

Chaos hooks (:func:`repro.faultinject.chaos.maybe_store_fault`) fire
inside the write and eviction paths when ``REPRO_STORE_CHAOS`` is
armed, so ENOSPC storms and kills mid-eviction are testable
deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import time
import warnings
from dataclasses import dataclass

from repro import settings as _settings
from repro.errors import StoreDegraded
from repro.obs.metrics import get_registry
from repro.store.locks import LockTimeout, StoreLock
from repro.store.sealed import CacheStats, read_entry, seal_text, write_sealed

__all__ = [
    "BREAKER_COOLDOWN",
    "NAMESPACES",
    "ArtifactStore",
    "StoreConfig",
    "StoreEntry",
]

_METRICS = get_registry()

#: namespace -> subdirectory under the store root ("" = the root
#: itself, which is where the pre-store cell cache already lived).
NAMESPACES = {
    "cell": "",
    "stage": "stages",
    "job": "jobs",
}

_LOCK_NAME = ".store-lock"

#: Seconds the open breaker short-circuits store operations before
#: probing the disk again.
BREAKER_COOLDOWN = 30.0


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

    @classmethod
    def from_settings(cls) -> "StoreConfig":
        resolved = _settings.current()
        invalid = [
            name for name in resolved.invalid
            if name.startswith("REPRO_STORE_")
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
        )


@dataclass
class StoreEntry:
    """One live entry, generation-stamped by (ino, mtime, atime).

    The stamp is what makes eviction safe against racing writers and
    readers: any change to the entry between the scan and the unlink
    shows up as a stamp mismatch and the victim is skipped.
    """

    ns: str
    key: str
    path: pathlib.Path
    size: int
    ino: int
    atime_ns: int
    mtime_ns: int


class ArtifactStore:
    """Fingerprint-keyed, quota-aware, degradation-tolerant store.

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
        """Where the (ns, key) entry lives (the pre-store cache layout)."""
        sub = NAMESPACES[ns]
        base = self.root / sub if sub else self.root
        return base / key[:2] / f"{key}.json"

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
            self._breaker_open_until = time.monotonic() + BREAKER_COOLDOWN
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
        """Remove a corrupt entry so the slot heals on the next write."""
        try:
            os.unlink(path)
        except OSError:
            return
        _METRICS.inc("store.quarantined")
        _METRICS.inc(f"store.quarantined.{reason}")

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump the entry's atime (recency for LRU) without moving its
        mtime — resumed sweeps pin 'survivors are never rewritten' on
        the mtime staying put."""
        try:
            stat = os.stat(path)
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass

    # -- write path ----------------------------------------------------------

    def put(self, ns: str, key: str, obj: dict) -> bool:
        """Persist *obj* under (ns, key); True when it is stored.

        ``False`` means the entry was *refused admission* (larger than
        the quota, or the evictor could not free enough) — a policy
        outcome, not a failure.  Infrastructure failures retry with
        backoff and then raise :class:`StoreDegraded`.
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
                admitted = self._put_once(ns, key, payload, size, cfg)
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
    ) -> bool:
        ref = self.ref_path(ns, key)
        if cfg.quota_bytes is None:
            self._write(ref, payload)
            return True
        # Admission + eviction + write is one cross-process critical
        # section: without it two workers could each see room and
        # overshoot the quota together.
        with self._lock():
            entries = self.scan()
            others = [entry for entry in entries if entry.path != ref]
            usage = self.usage_bytes(entries)
            replaced = usage - self.usage_bytes(others)
            # The file a rewrite replaces stays on disk until the
            # rename, so room is made for the whole new file beside it.
            # That file is never a victim, and after the rename the
            # rewrite has added only its size difference.
            if usage + size > cfg.quota_bytes:
                usage -= self._evict_locked(
                    others, usage + size - cfg.quota_bytes
                )
                if usage + size > cfg.quota_bytes:
                    _METRICS.inc("store.admission_rejected")
                    return False
            self._write(ref, payload)
            _METRICS.set_gauge("store.usage_bytes", usage + size - replaced)
        return True

    def _write(self, ref: pathlib.Path, payload: bytes) -> None:
        """Publish *payload* as the one sealed file at *ref*; every
        failure surfaces as OSError for the retry loop in :meth:`put`."""
        _chaos_fault("write")
        write_sealed(ref, payload)

    # -- scan / accounting ---------------------------------------------------

    def scan(self) -> list[StoreEntry]:
        """Every live entry, generation-stamped (the filesystem is the
        only index)."""
        entries: list[StoreEntry] = []
        for ns, sub in NAMESPACES.items():
            base = self.root / sub if sub else self.root
            try:
                shards = list(base.iterdir())
            except OSError:
                continue
            for shard in shards:
                if len(shard.name) != 2 or not shard.is_dir():
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
                        StoreEntry(
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

    def usage_bytes(self, entries: list[StoreEntry] | None = None) -> int:
        """Published bytes under the root: the sum of entry sizes."""
        if entries is None:
            entries = self.scan()
        return sum(entry.size for entry in entries)

    # -- eviction ------------------------------------------------------------

    def _evict_locked(
        self, entries: list[StoreEntry], need_bytes: int
    ) -> int:
        """Free at least *need_bytes* if possible; returns bytes freed.

        Caller holds the store lock.  Entries go least recently
        accessed first, each re-checked against its generation stamp so
        a racing rewrite or fresh hit is never clobbered.
        """
        freed = 0
        # Least recently accessed first, path breaking ties: every hit
        # bumps its entry's atime (mtime is left untouched), so recency
        # survives process boundaries through the filesystem.
        for victim in sorted(
            entries, key=lambda e: (e.atime_ns, str(e.path))
        ):
            if freed >= need_bytes:
                break
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
            freed += victim.size
            _METRICS.inc("store.evictions")
            _METRICS.inc(f"store.ns.{victim.ns}.evictions")
            _chaos_fault("evict")
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
        """Collect crash leftovers and enforce the quota.

        Removes stale temp files (``write_sealed``'s
        ``.<name>.<pid>-<token>.tmp`` at both entry depths) and corrupt
        entries (quarantined by reason), then evicts down to the quota.
        """
        report = {"stale_temps": 0, "corrupt_refs": 0, "evicted": 0}
        now = time.time()
        for pattern in ("*/.*.tmp", "*/*/.*.tmp"):
            for tmp in self.root.glob(pattern):
                try:
                    if now - tmp.stat().st_mtime > stale_temp_seconds:
                        tmp.unlink()
                        report["stale_temps"] += 1
                except OSError:
                    continue
        stats = CacheStats()
        for entry in self.scan():
            before = stats.rejected
            if (
                read_entry(entry.path, (), stats) is None
                and stats.rejected > before
            ):
                self._quarantine(entry.path, "gc")
                report["corrupt_refs"] += 1
        cfg = StoreConfig.from_settings()
        if cfg.quota_bytes is not None:
            report["evicted"] = self.evict(cfg.quota_bytes)["freed"]
        return report

    def verify(self) -> dict:
        """Read-only health check of every entry; corrupt entries are
        reported, not removed."""
        entries = self.scan()
        report = {
            "refs": len(entries),
            "ok": 0,
            "corrupt": {},
            "usage_bytes": self.usage_bytes(entries),
            "quota_bytes": StoreConfig.from_settings().quota_bytes,
        }
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
            "usage_bytes": usage,
            "quota_bytes": cfg.quota_bytes,
            "breaker_open": time.monotonic() < self._breaker_open_until,
        }
