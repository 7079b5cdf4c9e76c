"""The stable public API of the repro package.

Everything a consumer of the reproduction needs goes through four
typed entry points — :func:`squash`, :func:`run`, :func:`sweep`,
:func:`verify` — plus the dataclass configs they take.  The facade is
a thin, import-cheap layer: each call resolves its implementation
lazily, so ``import repro.api`` never drags in the sweep harness or
the process-pool machinery.

::

    import repro.api as api

    result = api.squash_benchmark("gsm", scale=0.5,
                                  config=api.SquashConfig(theta=1e-4))
    outcome = api.run(result, api.RunSpec(input_words=(1, 2, 3)))
    rows = api.sweep(api.SweepSpec(names=("adpcm", "gsm"), kind="size"))
    report = api.verify("/tmp/gsm")

The job service is reached through the typed client — one API over
both transports (in-process engine, HTTP)::

    with api.ServiceClient("local") as client:  # or "http://host:port"
        handle = client.submit(kind="squash", payload={"name": "gsm"})
        result = handle.result(timeout=60.0)

Configuration precedence is uniform everywhere behind this facade:
explicit config objects beat ``REPRO_*`` environment variables beat
the declared defaults (:mod:`repro.settings`).  Observability hooks
live in :mod:`repro.obs`; :func:`repro.settings.use_settings` scopes
setting overrides, and ``repro trace`` / ``repro metrics`` surface the
recorded streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SquashConfig
from repro.core.pipeline import (
    LoadedSquash,
    SquashResult,
    load_squashed,
    squash_program,
)
from repro.errors import SpecError

__all__ = [
    "JobHandle",
    "JobSpec",
    "LoadedSquash",
    "RunOutcome",
    "RunSpec",
    "ServiceClient",
    "SquashConfig",
    "SquashResult",
    "SweepSpec",
    "load_squashed",
    "run",
    "squash",
    "squash_benchmark",
    "store_gc",
    "store_stats",
    "store_verify",
    "sweep",
    "verify",
]


# -- configs ------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """How to execute a squashed image."""

    #: Guest input words fed to the program.
    input_words: tuple[int, ...] = ()
    #: Step budget before the run is declared hung.
    max_steps: int = 100_000_000
    #: Override the cross-runtime region decode cache (None: the
    #: resolved settings default).  Host-side only; modelled cycles are
    #: identical either way.
    region_cache: bool | None = None


@dataclass(frozen=True)
class SweepSpec:
    """One θ-grid sweep over a benchmark subset.

    *thetas* are paper-nominal thresholds (mapped internally through
    :func:`repro.analysis.experiments.map_theta`); ``None`` selects the
    figure's published grid for the chosen *kind*.  With *parallel*
    the sweep fans out across the supervised process pool and the
    persistent cell cache; without it the cells run inline and nothing
    is written to disk.  Rows are identical either way.
    """

    names: tuple[str, ...] = ()
    scale: float = 1.0
    thetas: tuple[float, ...] | None = None
    #: ``"size"`` (Figure 6 rows) or ``"time"`` (Figure 7(b) rows).
    kind: str = "size"
    parallel: bool = False


@dataclass(frozen=True)
class RunOutcome:
    """What one squashed execution produced."""

    cycles: int
    output: tuple[int, ...]
    exit_code: int
    #: Decompression-runtime counters for the run (region decompresses,
    #: stub traffic, ...), as a plain dict.
    runtime_stats: dict = field(default_factory=dict)


# -- entry points -------------------------------------------------------------


def squash(program, profile, config: SquashConfig | None = None,
           *, baseline_words: int | None = None) -> SquashResult:
    """Compress *program*'s cold code guided by *profile*.

    The typed facade over :func:`repro.core.pipeline.squash_program`;
    see there for the pipeline details.
    """
    return squash_program(
        program, profile, config, baseline_words=baseline_words
    )


def squash_benchmark(name: str, scale: float = 1.0,
                     config: SquashConfig | None = None) -> SquashResult:
    """Squash one synthetic MediaBench benchmark end to end.

    Raises a typed :class:`~repro.errors.SpecError` for a benchmark
    name outside the suite or a non-positive scale.
    """
    from repro.analysis.experiments import squash_benchmark as _bench
    from repro.workloads.mediabench import MEDIABENCH

    if name not in MEDIABENCH:
        raise SpecError(
            f"unknown benchmark {name!r} "
            f"(expected one of {', '.join(MEDIABENCH)})",
            field="name",
        )
    if not isinstance(scale, (int, float)) or not scale > 0:
        raise SpecError(
            f"scale must be a positive number, not {scale!r}",
            field="scale",
        )
    return _bench(name, scale, config or SquashConfig())


def run(target, spec: RunSpec | None = None) -> RunOutcome:
    """Execute a squashed image and report the outcome.

    *target* is a :class:`SquashResult`, a :class:`LoadedSquash`, or a
    saved-image prefix accepted by :func:`load_squashed`.
    """
    spec = spec or RunSpec()
    if not isinstance(spec.max_steps, int) or spec.max_steps <= 0:
        raise SpecError(
            f"max_steps must be a positive integer, "
            f"not {spec.max_steps!r}",
            field="max_steps",
        )
    try:
        words = tuple(spec.input_words)
    except TypeError:
        words = None
    if words is None or not all(
        isinstance(word, int) and not isinstance(word, bool)
        for word in words
    ):
        raise SpecError(
            "input_words must be a sequence of integers",
            field="input_words",
        )
    if isinstance(target, (str,)) or hasattr(target, "__fspath__"):
        target = load_squashed(target)
    if isinstance(target, SquashResult):
        machine, runtime = target.make_machine(
            spec.input_words, region_cache=spec.region_cache
        )
    elif isinstance(target, LoadedSquash):
        machine, runtime = target.make_machine(spec.input_words)
    else:
        raise TypeError(
            "run() target must be a SquashResult, LoadedSquash, or a "
            f"saved-image prefix, not {type(target).__name__}"
        )
    result = machine.run(max_steps=spec.max_steps)
    return RunOutcome(
        cycles=result.cycles,
        output=tuple(result.output),
        exit_code=result.exit_code,
        runtime_stats=vars(runtime.stats).copy(),
    )


def sweep(spec: SweepSpec | None = None):
    """Figure sweep over ``spec.names`` (every benchmark when empty).

    Returns :class:`~repro.analysis.experiments.SizeRow` or
    :class:`~repro.analysis.experiments.TimeRow` objects depending on
    ``spec.kind``; raises a typed :class:`~repro.errors.SpecError` for
    an unknown name or kind, or a negative θ.
    """
    from repro.analysis import parallel

    spec = spec or SweepSpec()
    names, thetas = parallel.sweep_grid(spec.names, spec.kind, spec.thetas)
    rows_fn = (
        parallel.fig6_rows if spec.kind == "size" else parallel.fig7_time_rows
    )
    return rows_fn(names, scale=spec.scale, thetas=thetas,
                   parallel=spec.parallel)


def verify(prefix, deep: bool = True):
    """Verify a saved squashed executable.

    Never raises on a bad image; faults come back in the returned
    :class:`~repro.core.verify.VerifyReport`.
    """
    from repro.core.verify import verify_squashed

    return verify_squashed(prefix, deep=deep)


# -- artifact store -----------------------------------------------------------


def _store(root=None):
    from repro.analysis.parallel import cache_dir
    from repro.store import get_store

    return get_store(root if root is not None else cache_dir())


def store_stats(root=None) -> dict:
    """Point-in-time statistics of the unified artifact store at
    *root* (default: the resolved cache dir)."""
    return _store(root).stats()


def store_gc(root=None) -> dict:
    """Collect crash leftovers (stale temps, orphan objects, corrupt
    refs), refresh the manifest snapshot, and enforce the quota."""
    return _store(root).gc()


def store_verify(root=None) -> dict:
    """Read-only health check of every store ref, object, and the
    manifest snapshot; nothing is modified."""
    return _store(root).verify()


# -- job service --------------------------------------------------------------

_LAZY_SERVICE = {
    # Facade surface that resolves lazily so ``import repro.api``
    # stays cheap (the service stack pulls in asyncio and the store).
    "JobSpec": ("repro.service.jobs", "JobSpec"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "JobHandle": ("repro.service.client", "JobHandle"),
}


def __getattr__(name: str):
    target = _LAZY_SERVICE.get(name)
    if target is not None:
        import importlib

        return getattr(importlib.import_module(target[0]), target[1])
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
