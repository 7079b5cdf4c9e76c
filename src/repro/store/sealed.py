"""Sealed entries: the crash-safe on-disk format of the artifact store.

Each entry is a two-line text file::

    {"cycles": 482208, ...}
    crc32:1a2b3c4d

Line 1 is the JSON payload; line 2 seals it with a CRC32 over the
payload bytes (:func:`repro.core.integrity.bytes_crc` — the same
primitive that seals compressed areas inside a squashed image).  A torn
write, truncation, stray garbage, or a tampered payload all fail the
seal (or JSON parse, or required-key check) and the loader reports the
entry as absent, so the caller recomputes instead of crashing or —
worse — trusting a corrupt number.

Writes are atomic and unique per writer: the sealed bytes go to
``.<name>.<pid>-<token>.tmp`` in the target directory, are fsynced, and
are published with ``os.replace`` and a directory fsync; concurrent
writers of the same entry cannot clobber each other's temp file and a
crash mid-write leaves only a stale temp file, never a half-written
entry under the final name.  Every store entry is written this way
(:func:`write_sealed`).

Large entries — stage bundles carrying a whole serialized program —
are read through ``mmap``: every warm pool worker deserializing the
same bundle then shares the page-cache pages of the one on-disk copy
instead of each buffering a private read, which is how θ-invariant
artifacts travel from the driver to persistent workers.  Small entries
keep the plain read (an mmap round-trip costs more than it saves under
~64 KiB).
"""

from __future__ import annotations

import json
import mmap
import os
import pathlib
import secrets
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.integrity import bytes_crc
from repro.obs.metrics import get_registry

__all__ = [
    "CacheStats",
    "read_entry",
    "seal_text",
    "write_entry",
    "write_sealed",
]

#: Unified metrics sink: entry reads/writes/rejections mirror here
#: (names ``cellcache.*``) alongside the per-pass ``CacheStats``.
_METRICS = get_registry()

_SEAL_PREFIX = "crc32:"

#: Entries at least this large are read via ``mmap`` (shared page
#: cache across pool workers); smaller ones use a plain read.
MMAP_MIN_BYTES = 1 << 16


def _read_entry_text(path: pathlib.Path) -> str:
    """The entry's text, mmap-backed for large files."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        # Zero-length files (a crash between create and write, or a
        # racing truncation) cannot be mmapped — mmap(fd, 0) means
        # "whole file" and raises on an empty one — so they must take
        # the plain-read path regardless of the threshold.
        if size > 0 and size >= MMAP_MIN_BYTES:
            try:
                with mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                ) as view:
                    data = bytes(view)
                _METRICS.inc("cellcache.mmap_reads")
            except (ValueError, OSError):
                # Racing truncation or a filesystem without mmap:
                # degrade to the ordinary read.
                data = handle.read()
        else:
            data = handle.read()
    return data.decode("utf-8", errors="replace")


@dataclass
class CacheStats:
    """Counters for one pass over the cache."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Rejected entries by reason: ``torn`` (unparseable/truncated),
    #: ``seal-mismatch`` (CRC failed), ``missing-keys`` (valid JSON
    #: lacking required fields), ``unreadable`` (OS error).
    rejects: dict[str, int] = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return sum(self.rejects.values())

    def _reject(self, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        self.misses += 1
        _METRICS.inc(f"cellcache.rejects.{reason}")
        _METRICS.inc("cellcache.misses")


def seal_text(payload: str) -> str:
    """The two-line sealed form of a JSON payload line."""
    crc = bytes_crc(payload.encode("utf-8"))
    return f"{payload}\n{_SEAL_PREFIX}{crc:08x}\n"


def write_entry(path: pathlib.Path, obj: Mapping) -> None:
    """Atomically publish *obj* as a sealed entry at *path*."""
    write_sealed(
        path, seal_text(json.dumps(obj, sort_keys=True)).encode("utf-8")
    )


def write_sealed(path: pathlib.Path, data: bytes) -> None:
    """Atomically publish already-sealed *data* at *path*.

    A failed write removes its temp file; only a crash leaves one
    behind, for the store's gc to collect.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    _METRICS.inc("cellcache.writes")


def _fsync_dir(directory: pathlib.Path) -> None:
    """Best-effort durability for a rename publication."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_entry(
    path: pathlib.Path,
    required_keys: Iterable[str] = (),
    stats: CacheStats | None = None,
) -> dict | None:
    """Load and validate one entry; ``None`` means recompute.

    Never raises on a bad entry: corruption is an expected state the
    sweep recovers from, and the reason is tallied in *stats*.
    """
    stats = stats if stats is not None else CacheStats()
    try:
        raw = _read_entry_text(path)
    except FileNotFoundError:
        stats.misses += 1
        _METRICS.inc("cellcache.misses")
        return None
    except OSError:
        stats._reject("unreadable")
        return None

    lines = raw.splitlines()
    payload: str | None = None
    if len(lines) >= 2 and lines[-1].startswith(_SEAL_PREFIX):
        body = "\n".join(lines[:-1])
        try:
            expected = int(lines[-1][len(_SEAL_PREFIX):], 16)
        except ValueError:
            stats._reject("torn")
            return None
        if bytes_crc(body.encode("utf-8")) != expected:
            stats._reject("seal-mismatch")
            return None
        payload = body
    else:
        stats._reject("torn")
        return None

    try:
        obj = json.loads(payload)
    except ValueError:
        stats._reject("torn")
        return None
    if not isinstance(obj, dict):
        stats._reject("torn")
        return None
    if any(key not in obj for key in required_keys):
        stats._reject("missing-keys")
        return None
    stats.hits += 1
    _METRICS.inc("cellcache.hits")
    return obj
