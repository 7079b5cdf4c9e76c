"""The figure-sweep driver: the θ-grid rows of Figures 3, 6 and 7.

``fig3_rows`` / ``fig6_rows`` / ``fig7_size_rows`` / ``fig7_time_rows``
list their (benchmark, θ, K) cells, resolve them through
:func:`compute_cells`, and turn the results into rows.  With
``parallel=True`` (the default) the misses fan out across a supervised
process pool and each cell's result is stored in an on-disk
content-addressed cache, so benchmark reruns are incremental: a cell
recomputes only when the benchmark name, scale, configuration, or the
pipeline itself changes.  ``parallel=False`` is the serial path: the
supervisor runs the cells inline in this process and the cache is
neither read nor written.

Cache keys are the SHA-256 of (cell kind, spec name, scale, canonical
config, :data:`PIPELINE_SALT`), built once per cell per process.  Bump
the salt whenever a pipeline change can alter measured numbers -- it
invalidates every cached cell at once.

Execution is supervised (:mod:`repro.resilience`): every miss runs
under per-cell deadlines, bounded retries with deterministic backoff,
automatic pool replacement after a worker death, and a per-benchmark
circuit breaker.  Each fresh result is persisted to the cache — sealed
with a CRC line, written via a unique temp name and atomic rename —
the moment its future completes, so a sweep killed mid-run resumes
from the cache and recomputes only unfinished cells.  A cell that is
still lost after retries surfaces as one typed
:class:`~repro.errors.CellFailure`; completed siblings are never
discarded.  Knobs: ``REPRO_CELL_DEADLINE``, ``REPRO_CELL_RETRIES``,
``REPRO_CELL_BACKOFF``, ``REPRO_BREAKER_THRESHOLD`` (see
:meth:`repro.resilience.SupervisorConfig.from_settings`).

:func:`sweep_grid`, :func:`grid_cells` and :func:`grid_rows` are the
pieces of a size or time sweep; :func:`repro.api.sweep` builds its
rows from them, and the chaos sweep its cells.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import warnings
from functools import lru_cache

from repro.analysis.experiments import (
    FIG3_BOUNDS,
    FIG3_THETAS,
    FIG6_THETAS,
    FIG7_THETAS,
    Fig3Row,
    SizeRow,
    TimeRow,
    map_theta,
)
from repro import settings as _settings
from repro.analysis.stats import geometric_mean
from repro.core.pipeline import SquashConfig
from repro.errors import SpecError, StoreDegraded
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.resilience import (
    Supervisor,
    SupervisorConfig,
    Task,
)
from repro.store import get_store
from repro.store.sealed import CacheStats
from repro.workloads.mediabench import MEDIABENCH, mediabench_spec

__all__ = [
    "LAST_SWEEP",
    "PIPELINE_SALT",
    "REQUIRED_KEYS",
    "cache_dir",
    "cell_path",
    "compute_cells",
    "fig3_rows",
    "fig6_rows",
    "fig7_size_rows",
    "fig7_time_rows",
    "grid_cells",
    "grid_rows",
    "last_sweep_rollup",
    "sweep_grid",
]

#: One experiment cell: (kind, benchmark, scale, configuration).
Cell = tuple[str, str, float, SquashConfig]

#: Cache-invalidation salt: bump on any change that can alter measured
#: sizes, ratios, or cycle counts.
PIPELINE_SALT = "pgcc-pipeline-v2"


def cache_dir() -> pathlib.Path:
    """The on-disk cell cache root (``REPRO_CACHE_DIR`` overrides)."""
    root = _settings.current().cache_dir
    if root:
        return pathlib.Path(root)
    return pathlib.Path.cwd() / ".repro-cache"


def _workers() -> int:
    resolved = _settings.current()
    if "REPRO_BENCH_WORKERS" in resolved.invalid:
        warnings.warn(
            "REPRO_BENCH_WORKERS is not an integer; "
            "falling back to the CPU count",
            RuntimeWarning,
            stacklevel=2,
        )
    return _settings.effective_bench_workers(resolved)


def canonical(value):
    """A JSON-stable form of configs (dataclasses, enums, sets,
    tuples): the configuration part of a cell's cache key."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (frozenset, set)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(val) for key, val in value.items()}
    return value


#: Cell keys :func:`_cell_key` keeps: the 330 cells of the Figure 3, 6
#: and 7 grids over every benchmark, about three times over.
CELL_KEY_CACHE_SIZE = 1024


class _Cell(tuple):
    """A cell that computes its hash once.  A configuration hashes
    through Python-level dataclass and ``Enum`` hashes, and one sweep
    call keys several dicts and sets by each cell.  It pickles as a
    plain tuple: str hashes differ between processes."""

    def __new__(cls, cell: Cell) -> "_Cell":
        self = super().__new__(cls, cell)
        self.hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self.hash

    def __reduce__(self):
        return tuple, (tuple(self),)


@lru_cache(maxsize=CELL_KEY_CACHE_SIZE)
def _cell_key(cell: Cell, variant: str = "") -> str:
    """The cache key of *cell* under the codec *variant* setting (see
    :func:`_keyed`), so a cell squashed under one
    ``REPRO_CODEC_VARIANT`` never answers a sweep under another.  Built
    once per cell per process."""
    kind, name, scale, config = _keyed(cell, variant)
    payload = json.dumps(
        {
            "kind": kind,
            "name": name,
            "scale": scale,
            "config": canonical(config),
            "salt": PIPELINE_SALT,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _keyed(cell: Cell, variant: str) -> Cell:
    """*cell* as it squashes under the codec *variant* setting."""
    kind, name, scale, config = cell
    return kind, name, scale, config.with_default_variant(variant)


def _cell_digest(kind: str, name: str, scale: float, config: SquashConfig) -> str:
    """The cache key of a cell under the codec variant in effect."""
    variant = _settings.current().codec_variant
    return _cell_key((kind, name, scale, config), variant)


def _stage_bundle(name: str, scale: float):
    """The θ-invariant artifact bundle for a cell.

    A warm task per benchmark runs before the cells, so a worker
    finds the bundle in its memo (it ran that warm task) or persisted
    (another worker did) and only deserializes it.  On a genuine miss
    (a lost warm task, or no cache) the invariant stages run here,
    memoized per process, without persisting.
    """
    from repro.analysis import stagecache

    root = cache_dir()
    bundle = stagecache.load_bundle(root, name, scale)
    if bundle is None:
        bundle = stagecache.warm_bundle(root, name, scale, cache=False)
    return bundle


def _compute_cell(
    kind: str, name: str, scale: float, config: SquashConfig
) -> dict:
    """One experiment cell, executed in a worker process.

    ``size`` cells squash only; ``time`` cells also run the squashed
    image on the timing input and verify output equivalence against
    the baseline run.  Both start from the shared θ-invariant stage
    artifacts (squeezed program, profile, baseline layout and run), so
    only the cold-set stage onward is recomputed per cell.
    """
    from repro.core.pipeline import squash_program as squash
    from repro.program.layout import TEXT_BASE

    if kind not in REQUIRED_KEYS:
        raise ValueError(f"unknown cell kind {kind!r}")
    bundle = _stage_bundle(name, scale)
    result = squash(
        bundle.program,
        bundle.profile,
        config,
        # The persisted baseline was laid out at the default text base;
        # a nonstandard base must re-derive it.
        baseline_words=bundle.baseline_words
        if config.text_base == TEXT_BASE
        else None,
    )
    if kind == "size":
        return {
            "footprint_total": result.footprint.total,
            "baseline_words": result.baseline_words,
            "reduction": result.reduction,
        }
    run, _ = result.run(bundle.timing_input, max_steps=500_000_000)
    if run.output != bundle.base_output or run.exit_code != bundle.base_exit_code:
        raise AssertionError(
            f"{name}: squashed output diverged at θ={config.theta}"
        )
    return {
        "cycles": run.cycles,
        "base_cycles": bundle.base_cycles,
        "relative_time": run.cycles / bundle.base_cycles,
    }


#: Keys a cached entry must carry to be trusted, per cell kind; an
#: entry missing any (valid JSON or not) is recomputed.
REQUIRED_KEYS = {
    "size": ("footprint_total", "baseline_words", "reduction"),
    "time": ("cycles", "base_cycles", "relative_time"),
}

#: Per-benchmark rollup of the most recent :func:`compute_cells` call;
#: ``repro metrics`` prints it and the obs tests read it.
LAST_SWEEP: dict | None = None


def last_sweep_rollup() -> dict | None:
    """The most recent sweep's rollup (``None`` before any sweep)."""
    return LAST_SWEEP


def _publish_rollup(
    cells: list[tuple[str, str, float, SquashConfig]],
    hits: set,
    failed: set,
) -> None:
    """Record the sweep outcome in :data:`LAST_SWEEP` and mirror the
    tallies into the unified metrics registry (aggregate counters plus
    one counter set per benchmark — bounded cardinality)."""
    global LAST_SWEEP
    metrics = get_registry()
    benches: dict[str, dict[str, int]] = {}
    for cell in cells:
        row = benches.setdefault(
            cell[1], {"cells": 0, "cache_hits": 0, "computed": 0, "failed": 0}
        )
        row["cells"] += 1
        if cell in hits:
            row["cache_hits"] += 1
        elif cell in failed:
            row["failed"] += 1
        else:
            row["computed"] += 1
    rollup = {
        "cells": len(cells),
        "cache_hits": len(hits),
        "failed": len(failed),
        "computed": len(cells) - len(hits) - len(failed),
        "benchmarks": benches,
    }
    LAST_SWEEP = rollup
    for key in ("cells", "cache_hits", "computed", "failed"):
        if rollup[key]:
            metrics.inc(f"sweep.cells.{key}", rollup[key])
    for name, row in benches.items():
        for key, value in row.items():
            if value:
                metrics.inc(f"sweep.bench.{name}.{key}", value)


def cell_path(
    root: pathlib.Path, cell: tuple[str, str, float, SquashConfig]
) -> pathlib.Path:
    return get_store(root).ref_path("cell", _cell_digest(*cell))


def _supervised_cell(cell: tuple[str, str, float, SquashConfig]) -> dict:
    """Worker-side entry: chaos hook, then the real cell, which already
    names the codec variant it squashes under.

    The chaos hook is a no-op unless ``REPRO_CHAOS_SPEC`` is armed
    (see :mod:`repro.faultinject.chaos`).
    """
    from repro.faultinject.chaos import maybe_inject

    maybe_inject(_cell_key(cell))
    return _compute_cell(*cell)


def _cell_label(cell: tuple[str, str, float, SquashConfig]) -> str:
    kind, name, scale, config = cell
    return f"{kind}:{name} scale={scale} theta={config.theta}"


def _supervised_warm(payload: tuple[str, str, float, bool]) -> None:
    """Worker-side entry of a warm task: one θ-invariant stage bundle,
    persisted when the sweep caches, so every cell of that benchmark
    starts at the cold-set stage."""
    from repro.analysis import stagecache

    root, name, scale, cache = payload
    stagecache.warm_bundle(pathlib.Path(root), name, scale, cache=cache)


def _warm_stage_bundles(
    misses: list[tuple[str, str, float, SquashConfig]],
    root: pathlib.Path,
    cache: bool,
    config: SupervisorConfig,
    parallel: bool,
) -> None:
    """Build one θ-invariant stage bundle per distinct (benchmark,
    scale) among *misses*: supervised warm tasks, in the pool the cells
    then lease again when *parallel*, inline otherwise.

    A worker that ran a warm task keeps the bundle in its memo; with
    *cache* the bundle is also persisted, so the other workers
    deserialize it instead of re-running squeeze, profiling, and the
    baseline layout and timing run.  A lost warm task is not fatal:
    its cells compute the bundle themselves.
    """
    # Only MediaBench programs have bundles.  Largest first, so the
    # last warm to start is a short one.
    bundles = sorted(
        dict.fromkeys(
            (cell[1], cell[2]) for cell in misses if cell[1] in MEDIABENCH
        ),
        key=lambda bundle: -mediabench_spec(*bundle).target_input_size,
    )
    tasks = [
        Task(
            key=("warm", name, scale),
            payload=(str(root), name, scale, cache),
            cls=name,
            label=f"warm:{name} scale={scale}",
        )
        for name, scale in bundles
    ]
    Supervisor(_supervised_warm, config).run(tasks, parallel=parallel)


def compute_cells(
    cells: list[tuple[str, str, float, SquashConfig]],
    parallel: bool = True,
    workers: int | None = None,
    cache: bool = True,
    config: SupervisorConfig | None = None,
    stats: CacheStats | None = None,
    report_sink: list | None = None,
    strict: bool = True,
) -> dict[tuple[str, str, float, SquashConfig], dict]:
    """Resolve every cell, from disk cache where possible.

    Misses run under the :class:`~repro.resilience.Supervisor` (across
    a process pool when *parallel*, inline otherwise), after one warm
    task per distinct benchmark has built its θ-invariant stage
    bundle in the same pool.  Every fresh
    result is persisted — sealed and atomically renamed — as soon as
    its future completes, so an interrupted sweep keeps its finished
    cells.  Without *cache* every cell is computed and nothing is
    written to disk.  Corrupt, torn, or key-deficient cache entries
    are detected (tallied in *stats*) and recomputed.  When *strict*, a
    cell still missing after bounded retries raises its typed
    :class:`~repro.errors.CellFailure`; pass ``strict=False`` and a
    *report_sink* list to inspect failures instead.

    The call is one unit of work: everything below it reads the one
    settings snapshot its frame resolves (:mod:`repro.settings`).
    """
    with _settings.use_settings() as resolved:
        stats = stats if stats is not None else CacheStats()
        results: dict[tuple[str, str, float, SquashConfig], dict] = {}
        misses: list[tuple[str, str, float, SquashConfig]] = []
        root = cache_dir()
        store = get_store(root)
        digests: dict[tuple[str, str, float, SquashConfig], str] = {}
        tracer = get_tracer()
        # Each cell is hashed here once, for every dict and set below.
        unique = list(dict.fromkeys(map(_Cell, cells)))
        hits: set = set()
        variant = resolved.codec_variant

        for cell in unique:
            digest = _cell_key(cell, variant)
            digests[cell] = digest
            if cache:
                try:
                    entry = store.get(
                        "cell", digest, REQUIRED_KEYS.get(cell[0], ()), stats
                    )
                except StoreDegraded:
                    # Unusable store (breaker open): recompute every
                    # cell without caching rather than fail the sweep.
                    entry = None
                if entry is not None:
                    results[cell] = entry
                    hits.add(cell)
                    continue
            misses.append(cell)

        if misses:
            def _persist(task: Task, result: dict) -> None:
                results[task.key] = result
                if cache:
                    try:
                        if store.put("cell", digests[task.key], result):
                            stats.writes += 1
                    except (OSError, StoreDegraded):
                        # A full, read-only, or degraded store must not
                        # lose the computed value — it just will not be
                        # cached.
                        return

            cfg = config or SupervisorConfig.from_settings()
            if workers is not None:
                cfg = dataclasses.replace(cfg, workers=workers)
            elif cfg.workers is None:
                cfg = dataclasses.replace(cfg, workers=_workers())
            _warm_stage_bundles(misses, root, cache, cfg, parallel)
            supervisor = Supervisor(_supervised_cell, cfg, on_result=_persist)
            # The workers squash each cell as it is keyed.
            tasks = [
                Task(key=cell, payload=_keyed(cell, variant), cls=cell[1],
                     label=_cell_label(cell))
                for cell in misses
            ]
            with tracer.span(
                "sweep.compute_cells", "sweep",
                misses=len(misses), cached=len(hits), parallel=parallel,
            ):
                report = supervisor.run(tasks, parallel=parallel)
            if report_sink is not None:
                report_sink.append(report)
            _publish_rollup(unique, hits, set(report.failures))
            if report.failures and strict:
                raise next(iter(report.failures.values()))
        else:
            _publish_rollup(unique, hits, set())
        return results


# -- drivers ------------------------------------------------------------------


def sweep_grid(
    names: tuple[str, ...] = (),
    kind: str = "size",
    thetas: tuple[float, ...] | None = None,
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Resolve the benchmarks and paper-nominal θ grid of a size or
    time sweep.

    Empty *names* means every MediaBench program; ``None`` *thetas*
    the published grid of *kind* (Figure 6 for ``size``, Figure 7 for
    ``time``).  Raises :class:`~repro.errors.SpecError` naming the
    offending field.
    """
    names = tuple(names or ()) or MEDIABENCH
    unknown = [name for name in names if name not in MEDIABENCH]
    if unknown:
        raise SpecError(
            f"unknown benchmark(s) {', '.join(map(repr, unknown))} "
            f"(expected among {', '.join(MEDIABENCH)})",
            field="names",
        )
    if kind not in ("size", "time"):
        raise SpecError(
            f"unknown sweep kind {kind!r} (size|time)", field="kind"
        )
    if thetas is None:
        return names, FIG6_THETAS if kind == "size" else FIG7_THETAS
    if not all(
        isinstance(theta, (int, float)) and not isinstance(theta, bool)
        and theta >= 0
        for theta in thetas
    ):
        raise SpecError("thetas must be non-negative numbers", field="thetas")
    return names, tuple(thetas)


def grid_cells(
    kind: str, names: tuple[str, ...], scale: float,
    thetas: tuple[float, ...],
) -> list[Cell]:
    """The cells of a size or time sweep, benchmark-major, θ-minor."""
    return [
        (kind, name, scale, SquashConfig(theta=map_theta(theta_paper)))
        for name in names
        for theta_paper in thetas
    ]


def grid_rows(
    kind: str, names: tuple[str, ...], scale: float,
    thetas: tuple[float, ...], results: dict[Cell, dict],
) -> list[SizeRow] | list[TimeRow]:
    """The rows of a size or time sweep, in :func:`grid_cells` order,
    from its resolved cell *results*."""
    rows = []
    # One lookup per distinct cell: paper θs may map to one θ of ours.
    values: dict[tuple[str, float], dict] = {}
    for name in names:
        for theta_paper in thetas:
            theta = map_theta(theta_paper)
            value = values.get((name, theta))
            if value is None:
                value = values[name, theta] = results[
                    (kind, name, scale, SquashConfig(theta=theta))
                ]
            if kind == "size":
                rows.append(SizeRow(
                    name=name,
                    theta_paper=theta_paper,
                    theta_ours=theta,
                    reduction=value["reduction"],
                ))
            else:
                rows.append(TimeRow(
                    name=name,
                    theta_paper=theta_paper,
                    theta_ours=theta,
                    relative_time=value["relative_time"],
                ))
    return rows


def _sweep(
    kind: str, names: tuple[str, ...], scale: float,
    thetas: tuple[float, ...], parallel: bool,
) -> list[SizeRow] | list[TimeRow]:
    cells = grid_cells(kind, names, scale, thetas)
    results = compute_cells(cells, parallel=parallel, cache=parallel)
    return grid_rows(kind, names, scale, thetas, results)


def fig3_rows(
    names: tuple[str, ...],
    scale: float = 1.0,
    bounds: tuple[int, ...] = FIG3_BOUNDS,
    thetas: tuple[float, ...] = FIG3_THETAS,
    parallel: bool = True,
) -> list[Fig3Row]:
    configs = [
        (theta_paper, bound,
         SquashConfig(theta=map_theta(theta_paper)).with_buffer_bound(bound))
        for theta_paper in thetas
        for bound in bounds
    ]
    cells = [
        ("size", name, scale, config)
        for _, _, config in configs
        for name in names
    ]
    results = compute_cells(cells, parallel=parallel, cache=parallel)
    rows = []
    for theta_paper, bound, config in configs:
        ratios = []
        for name in names:
            value = results[("size", name, scale, config)]
            ratios.append(value["footprint_total"] / value["baseline_words"])
        rows.append(
            Fig3Row(
                bound_bytes=bound,
                theta_paper=theta_paper,
                relative_size=geometric_mean(ratios),
            )
        )
    return rows


def fig6_rows(
    names: tuple[str, ...] = MEDIABENCH,
    scale: float = 1.0,
    thetas: tuple[float, ...] = FIG6_THETAS,
    parallel: bool = True,
) -> list[SizeRow]:
    return _sweep("size", names, scale, thetas, parallel)


def fig7_size_rows(
    names: tuple[str, ...] = MEDIABENCH,
    scale: float = 1.0,
    parallel: bool = True,
) -> list[SizeRow]:
    return fig6_rows(
        names, scale=scale, thetas=FIG7_THETAS, parallel=parallel
    )


def fig7_time_rows(
    names: tuple[str, ...] = MEDIABENCH,
    scale: float = 1.0,
    thetas: tuple[float, ...] = FIG7_THETAS,
    parallel: bool = True,
) -> list[TimeRow]:
    return _sweep("time", names, scale, thetas, parallel)
