"""Typed runtime settings: every ``REPRO_*`` knob, resolved in one place.

The harness grew roughly a dozen ad-hoc ``os.environ`` reads — worker
counts, retry budgets, cache toggles, watchdog budgets — each with its
own parsing and fallback rules, scattered across the modules that
consumed them.  This module declares them all as one frozen
:class:`Settings` dataclass and resolves them in exactly one place,
with a fixed precedence:

1. **installed overrides** — partial settings pushed by
   :func:`use_settings` (an explicit config object always wins);
2. **environment variables** — every knob keeps its ``REPRO_*``
   spelling as an override channel, with the historical parsing rules
   (``0``/``no``/``off``/empty are false; malformed numerics fall back
   silently rather than crash);
3. **declared defaults** — the field defaults below.

Call :func:`current` for the resolved snapshot.  Resolution re-reads
the environment on every call, so tests that ``monkeypatch.setenv`` a
knob keep working unchanged; an installed override shadows the
environment for the duration of its ``with`` block only.

Raw ``os.environ[`` access outside this module is flagged by lint
(``ruff`` TID251); everything else calls :func:`current` and reads a
typed field.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator

__all__ = [
    "DECODE_BACKENDS",
    "ENV_KNOBS",
    "Settings",
    "current",
    "effective_bench_workers",
    "from_env",
    "use_settings",
]

#: Safety clamp on the worker-count default: a huge ``os.cpu_count()``
#: (think CI runners reporting container limits wrong) must not fork a
#: process storm.
MAX_DEFAULT_WORKERS = 64

#: Spellings treated as false by every boolean knob (historical rule).
_FALSY = ("0", "", "no", "off")


def _parse_bool(raw: str) -> bool:
    return raw.lower() not in _FALSY


#: Spellings accepted by strict boolean knobs (new knobs only; the
#: historical ones keep the permissive anything-not-falsy rule).
_TRUTHY_STRICT = ("1", "yes", "on", "true")
_FALSY_STRICT = _FALSY + ("false",)


def _parse_strict_bool(raw: str) -> bool:
    value = raw.lower()
    if value in _TRUTHY_STRICT:
        return True
    if value in _FALSY_STRICT:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int(raw: str) -> int:
    return int(raw)


def _parse_float(raw: str) -> float:
    return float(raw)


def _parse_retries(raw: str) -> int:
    return max(1, int(raw))


def _parse_backoff(raw: str) -> float:
    return max(0.0, float(raw))


def _parse_workers(raw: str) -> int:
    return max(1, int(raw))


def _parse_deadline(raw: str) -> float | None:
    value = float(raw)
    return value if value > 0 else None


def _parse_watchdog(raw: str) -> int:
    return max(0, int(raw))


def _parse_str(raw: str) -> str:
    return raw


def _parse_nonneg_int(raw: str) -> int:
    return max(0, int(raw))


def _parse_quota(raw: str) -> int | None:
    value = int(raw)
    if value < 0:
        raise ValueError(f"negative quota: {raw!r}")
    return value if value > 0 else None


#: Decode backend names accepted by ``REPRO_DECODE_BACKEND``.
DECODE_BACKENDS = ("reference", "table")


def _parse_backend(raw: str) -> str:
    value = raw.lower()
    if value not in DECODE_BACKENDS:
        raise ValueError(f"unknown decode backend {raw!r}")
    return value


@dataclass(frozen=True)
class Settings:
    """Every environment-tunable knob of the repro harness.

    Field defaults are the documented behaviour with a clean
    environment; the ``REPRO_*`` variable named next to each field
    overrides it (see :data:`ENV_KNOBS` for the parsing rule).
    """

    # -- sweep harness ------------------------------------------------------
    #: Worker pool size for parallel sweeps (``REPRO_BENCH_WORKERS``;
    #: None: the CPU count).
    bench_workers: int | None = None
    #: Program scale for the benchmark suite (``REPRO_BENCH_SCALE``).
    bench_scale: float = 0.5
    #: On-disk cell/stage cache root (``REPRO_CACHE_DIR``; None:
    #: ``.repro-cache`` under the working directory).
    cache_dir: str | None = None

    # -- resilience ---------------------------------------------------------
    #: Bounded retry attempts per sweep cell (``REPRO_CELL_RETRIES``).
    cell_retries: int = 3
    #: Base backoff delay between retries, seconds
    #: (``REPRO_CELL_BACKOFF``).
    cell_backoff: float = 0.1
    #: Per-cell wall-clock deadline, seconds (``REPRO_CELL_DEADLINE``;
    #: None or 0 disables).
    cell_deadline: float | None = None
    #: Per-benchmark circuit-breaker threshold
    #: (``REPRO_BREAKER_THRESHOLD``; 0 disables).
    breaker_threshold: int = 8

    # -- VM / runtime -------------------------------------------------------
    #: VM hang-guard budget in steps (``REPRO_VM_WATCHDOG``; 0
    #: disables).
    vm_watchdog: int = 0
    #: Cross-runtime region decode cache (``REPRO_REGION_CACHE``).
    region_cache: bool = True
    #: Region decode backend (``REPRO_DECODE_BACKEND``): ``reference``
    #: (the paper's bit-at-a-time DECODE) or ``table``.
    decode_backend: str = "table"
    #: Codec variant name, a key of ``compress.codec.CODEC_VARIANTS``
    #: (``REPRO_CODEC_VARIANT``; "" keeps the config's own codec, and
    #: unknown names warn once and fall back to ``baseline`` at the
    #: resolution site).
    codec_variant: str = ""

    # -- artifact store -----------------------------------------------------
    #: Total on-disk budget for the unified artifact store, bytes
    #: (``REPRO_STORE_QUOTA_BYTES``; None/0 disables quota
    #: enforcement entirely — no lock, no eviction).
    store_quota_bytes: int | None = None
    #: Retry attempts for transient store write failures
    #: (``REPRO_STORE_RETRIES``; 0 disables retrying).
    store_retries: int = 2
    #: Base backoff between store write retries, seconds
    #: (``REPRO_STORE_BACKOFF``).
    store_backoff: float = 0.05
    #: Consecutive store failures that open the degradation breaker
    #: (``REPRO_STORE_BREAKER_THRESHOLD``; 0 disables the breaker).
    store_breaker_threshold: int = 5

    # -- job service --------------------------------------------------------
    #: Bounded admission-queue depth of the job service
    #: (``REPRO_SERVICE_QUEUE_DEPTH``); submissions beyond it are shed
    #: with a typed ``ServiceOverloaded``.
    service_queue_depth: int = 64
    #: Concurrent job executions the service runs
    #: (``REPRO_SERVICE_WORKERS``).
    service_workers: int = 2
    #: Max concurrently *running* jobs per tenant
    #: (``REPRO_SERVICE_TENANT_CAP``), so one tenant cannot occupy
    #: every execution slot.
    service_tenant_cap: int = 1
    #: Default per-job deadline in seconds (``REPRO_SERVICE_DEADLINE``;
    #: None or 0 disables — jobs then run to completion).
    service_deadline: float | None = None
    #: Seconds a graceful drain waits for running jobs before shutting
    #: down anyway (``REPRO_SERVICE_DRAIN_TIMEOUT``).
    service_drain_timeout: float = 10.0
    #: Persist job records through the crash-safe store journal
    #: (``REPRO_SERVICE_JOURNAL``); off, jobs live only in memory.
    service_journal: bool = True
    #: Bind host of the HTTP front end (``REPRO_SERVICE_HTTP_HOST``).
    service_http_host: str = "127.0.0.1"
    #: Bind port of the HTTP front end (``REPRO_SERVICE_HTTP_PORT``;
    #: 0 asks the OS for an ephemeral port).
    service_http_port: int = 8737

    # -- observability ------------------------------------------------------
    #: Enable the structured trace layer (``REPRO_TRACE``).
    trace: bool = False
    #: Ring-buffer capacity of the default tracer, in events
    #: (``REPRO_TRACE_BUFFER``).
    trace_buffer: int = 65536

    #: Env-variable names whose raw value failed to parse this
    #: resolution (the knob fell back to its default).  Consumers that
    #: historically warned on malformed input check membership here.
    invalid: frozenset = frozenset()


#: field name -> (environment variable, parser).  A parser raising
#: ``ValueError`` marks the variable invalid and keeps the default.
ENV_KNOBS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "bench_workers": ("REPRO_BENCH_WORKERS", _parse_workers),
    "bench_scale": ("REPRO_BENCH_SCALE", _parse_float),
    "cache_dir": ("REPRO_CACHE_DIR", _parse_str),
    "cell_retries": ("REPRO_CELL_RETRIES", _parse_retries),
    "cell_backoff": ("REPRO_CELL_BACKOFF", _parse_backoff),
    "cell_deadline": ("REPRO_CELL_DEADLINE", _parse_deadline),
    "breaker_threshold": ("REPRO_BREAKER_THRESHOLD", _parse_int),
    "vm_watchdog": ("REPRO_VM_WATCHDOG", _parse_watchdog),
    "region_cache": ("REPRO_REGION_CACHE", _parse_bool),
    "decode_backend": ("REPRO_DECODE_BACKEND", _parse_backend),
    "codec_variant": ("REPRO_CODEC_VARIANT", _parse_str),
    "store_quota_bytes": ("REPRO_STORE_QUOTA_BYTES", _parse_quota),
    "store_retries": ("REPRO_STORE_RETRIES", _parse_nonneg_int),
    "store_backoff": ("REPRO_STORE_BACKOFF", _parse_backoff),
    "store_breaker_threshold": (
        "REPRO_STORE_BREAKER_THRESHOLD", _parse_nonneg_int
    ),
    "service_queue_depth": ("REPRO_SERVICE_QUEUE_DEPTH", _parse_workers),
    "service_workers": ("REPRO_SERVICE_WORKERS", _parse_workers),
    "service_tenant_cap": ("REPRO_SERVICE_TENANT_CAP", _parse_workers),
    "service_deadline": ("REPRO_SERVICE_DEADLINE", _parse_deadline),
    "service_drain_timeout": (
        "REPRO_SERVICE_DRAIN_TIMEOUT", _parse_backoff
    ),
    "service_journal": ("REPRO_SERVICE_JOURNAL", _parse_strict_bool),
    "service_http_host": ("REPRO_SERVICE_HTTP_HOST", _parse_str),
    "service_http_port": ("REPRO_SERVICE_HTTP_PORT", _parse_nonneg_int),
    "trace": ("REPRO_TRACE", _parse_bool),
    "trace_buffer": ("REPRO_TRACE_BUFFER", _parse_int),
}

# The one sanctioned raw handle on the process environment; the
# chaos harness swaps it to propagate armed fault specs to workers.
_ENVIRON = os.environ

#: Per-thread stack of partial overrides installed by
#: :func:`use_settings`; later entries win.  Thread-local because the
#: job service scopes ``cell_deadline`` per executing job from
#: concurrent worker threads — a shared stack would let one thread pop
#: another's frame.
_OVERRIDES = threading.local()


def _overrides_stack() -> list[dict[str, Any]]:
    stack = getattr(_OVERRIDES, "stack", None)
    if stack is None:
        stack = _OVERRIDES.stack = []
    return stack


#: What :func:`_parse_env` returns for a value that reads as unset, and
#: for one that does not parse.
_UNSET = object()
_INVALID = object()


def _parse_env(parse: Callable[[str], Any], raw: str) -> Any:
    """*raw*, the value of a knob's set variable, read with the knob's
    *parse*: :data:`_UNSET`, :data:`_INVALID` or the value."""
    if raw == "":
        # Historical rule: an empty value reads as unset, except for
        # booleans where "" counts among the falsy spellings.
        if parse in (_parse_bool, _parse_strict_bool):
            return False
        return _UNSET
    try:
        return parse(raw)
    except ValueError:
        return _INVALID


def from_env() -> Settings:
    """Settings resolved from environment variables and defaults only
    (no installed overrides)."""
    values: dict[str, Any] = {}
    invalid: set[str] = set()
    for field_name, (env_name, parse) in ENV_KNOBS.items():
        raw = _ENVIRON.get(env_name)
        if raw is None:
            continue
        value = _parse_env(parse, raw)
        if value is _INVALID:
            invalid.add(env_name)
        elif value is not _UNSET:
            values[field_name] = value
    if invalid:
        values["invalid"] = frozenset(invalid)
    return Settings(**values)


def current() -> Settings:
    """The resolved settings snapshot: overrides > env > defaults."""
    settings = from_env()
    stack = _overrides_stack()
    if stack:
        merged: dict[str, Any] = {}
        for layer in stack:
            merged.update(layer)
        settings = replace(settings, **merged)
    return settings


def current_value(name: str) -> Any:
    """``getattr(current(), name)``, resolving that one field alone:
    the innermost override that sets it, else its environment variable
    (read by :func:`_parse_env`, as :func:`from_env` reads it), else
    its default.  For lookups on hot paths, where parsing every knob
    would dominate."""
    for layer in reversed(_overrides_stack()):
        if name in layer:
            return layer[name]
    env_name, parse = ENV_KNOBS[name]
    raw = _ENVIRON.get(env_name)
    if raw is not None:
        value = _parse_env(parse, raw)
        if value is not _UNSET and value is not _INVALID:
            return value
    # A field's default is its class attribute.
    return getattr(Settings, name)


def effective_bench_workers(settings: Settings | None = None) -> int:
    """The worker count parallel paths actually use.

    ``REPRO_BENCH_WORKERS`` (already clamped to >= 1 by its parser)
    wins when set; otherwise the machine's CPU count, clamped to
    [1, :data:`MAX_DEFAULT_WORKERS`], so parallel paths use the
    hardware by default instead of a hardcoded fallback.
    """
    if settings is None:
        settings = current()
    if settings.bench_workers is not None:
        return settings.bench_workers
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


@contextmanager
def use_settings(**overrides: Any) -> Iterator[Settings]:
    """Install partial *overrides* for the duration of the block.

    Overrides shadow both the environment and the defaults — this is
    the programmatic equivalent of exporting the matching ``REPRO_*``
    variables, with types checked at the dataclass boundary::

        with settings.use_settings(vm_watchdog=10_000, region_cache=False):
            ...

    Unknown field names raise immediately rather than being ignored.
    """
    valid = {f.name for f in fields(Settings)}
    unknown = set(overrides) - valid
    if unknown:
        raise TypeError(
            f"unknown settings field(s): {', '.join(sorted(unknown))}"
        )
    _overrides_stack().append(dict(overrides))
    try:
        yield current()
    finally:
        _overrides_stack().pop()
