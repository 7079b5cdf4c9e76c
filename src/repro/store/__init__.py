"""Unified crash-safe artifact store (see :mod:`repro.store.store`).

:func:`get_store` is the entry point: it hands back one
:class:`~repro.store.store.ArtifactStore` per root per process, so
breaker state is shared by every caller hitting the same directory
(the sweep cell cache, the stage bundles, images, profiles).
:mod:`repro.store.sealed` is the entry format every ref holds.
"""

from __future__ import annotations

import pathlib

from repro.store.locks import LockTimeout, StoreLock
from repro.store.store import (
    NAMESPACES,
    ArtifactStore,
    ManifestEntry,
    StoreConfig,
)

__all__ = [
    "NAMESPACES",
    "ArtifactStore",
    "LockTimeout",
    "ManifestEntry",
    "StoreConfig",
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
