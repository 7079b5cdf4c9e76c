"""Unified crash-safe artifact store (see :mod:`repro.store.store`).

:func:`get_store` is the entry point: it hands back one
:class:`~repro.store.store.ArtifactStore` per root per process, so
breaker state is shared by every caller hitting the same directory
(the sweep cell cache, the stage bundles, the job journal).
:mod:`repro.store.sealed` writes and reads every entry.
"""

from __future__ import annotations

import pathlib

from repro.store.locks import LockTimeout, StoreLock
from repro.store.store import (
    NAMESPACES,
    ArtifactStore,
    StoreConfig,
    StoreEntry,
)

__all__ = [
    "NAMESPACES",
    "ArtifactStore",
    "LockTimeout",
    "StoreConfig",
    "StoreEntry",
    "StoreLock",
    "get_store",
    "reset_stores",
]

_STORES: dict[str, ArtifactStore] = {}


def get_store(root: pathlib.Path | str) -> ArtifactStore:
    """The process-wide store instance for *root*."""
    key = str(pathlib.Path(root))
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = ArtifactStore(pathlib.Path(root))
    return store


def reset_stores() -> None:
    """Drop cached instances (tests: clears breaker/warn state)."""
    _STORES.clear()
