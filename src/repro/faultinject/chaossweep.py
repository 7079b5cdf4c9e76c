"""End-to-end chaos sweep: the execution path under process faults.

``repro chaossweep`` proves the supervised sweep harness converges to
the *exact* numbers a fault-free serial run produces, while absorbing
deterministic process-level chaos:

1. **Pass 1** computes every (fig3 ∪ fig6 ∪ fig7b) cell of one
   benchmark through :func:`repro.analysis.parallel.compute_cells`
   with a chaos plan armed — workers are killed (``os._exit``), hung
   past the supervisor deadline, and OOM-simulated, per the
   deterministic plan of :func:`repro.faultinject.chaos.
   plan_process_chaos`.  Completed cells are persisted to a private
   cache as they finish.
2. **Cache faults** are then applied to a subset of the persisted
   entries: torn writes (truncation), garbage bytes, payload bit flips
   under an intact seal, and resealed entries missing required keys.
3. **Pass 2** re-resolves every cell from that cache: every corrupted
   entry must be *detected* (tallied by reject reason) and recomputed;
   intact entries must be served as hits.
4. The figure rows are rebuilt from the surviving cache and compared —
   row for row, byte for byte of the rendered text — against a serial,
   fault-free sweep (the same drivers with ``parallel=False``: inline,
   no cache).

The sweep **fails** (non-zero exit) if any cell was lost, any planned
fault did not fire or was not accounted for, any corrupted entry went
undetected, or any row diverged.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.analysis import parallel as par
from repro.analysis.experiments import (
    FIG3_BOUNDS,
    FIG3_THETAS,
    FIG6_THETAS,
    FIG7_THETAS,
    map_theta,
)
from repro.core.pipeline import SquashConfig
from repro.faultinject import chaos
from repro.resilience import CacheStats, RetryPolicy, SupervisorConfig

__all__ = ["ChaosSweepReport", "chaos_cells", "run_chaos_sweep"]

Cell = tuple[str, str, float, SquashConfig]


@dataclass
class ChaosSweepReport:
    """Everything one chaos sweep observed, and its verdict."""

    name: str
    scale: float
    seed: int
    faults: int
    #: Planned process faults by kind (kill/hang/oom).
    planned_process: dict[str, int] = field(default_factory=dict)
    #: Process faults that actually fired, by kind.
    fired_process: dict[str, int] = field(default_factory=dict)
    #: Cache faults applied by mode.
    planned_cache: dict[str, int] = field(default_factory=dict)
    #: Pass-2 cache rejections by reason.
    cache_rejects: dict[str, int] = field(default_factory=dict)
    #: Supervision failure events of pass 1 by kind
    #: (crash/timeout/error/preempted).
    events: dict[str, int] = field(default_factory=dict)
    pool_rebuilds: int = 0
    cells: int = 0
    lost_cells: int = 0
    rows_match: bool = False

    @property
    def planned_total(self) -> int:
        return sum(self.planned_process.values()) + sum(
            self.planned_cache.values()
        )

    @property
    def process_faults_ok(self) -> bool:
        return self.fired_process == self.planned_process

    @property
    def cache_faults_ok(self) -> bool:
        return sum(self.cache_rejects.values()) == sum(
            self.planned_cache.values()
        )

    @property
    def ok(self) -> bool:
        return (
            self.lost_cells == 0
            and self.rows_match
            and self.process_faults_ok
            and self.cache_faults_ok
        )

    def render(self) -> str:
        def _fmt(counts: dict[str, int]) -> str:
            if not counts:
                return "none"
            return "  ".join(
                f"{kind} {count}" for kind, count in sorted(counts.items())
            )

        return "\n".join(
            [
                f"chaos sweep: {self.name} scale={self.scale} "
                f"seed={self.seed}, {self.planned_total} faults over "
                f"{self.cells} cells",
                f"  process faults planned: {_fmt(self.planned_process)}",
                f"  process faults fired:   {_fmt(self.fired_process)}"
                f"  [{'OK' if self.process_faults_ok else 'MISSING'}]",
                f"  supervision events:     {_fmt(self.events)}  "
                f"(pool rebuilds {self.pool_rebuilds})",
                f"  cache faults applied:   {_fmt(self.planned_cache)}",
                f"  cache faults detected:  {_fmt(self.cache_rejects)}"
                f"  [{'OK' if self.cache_faults_ok else 'UNDETECTED'}]",
                f"  cells lost: {self.lost_cells}   rows "
                f"{'identical to serial run' if self.rows_match else 'DIVERGED'}",
                f"  verdict: {'OK' if self.ok else 'FAILED'}",
            ]
        )


@contextlib.contextmanager
def _env(**pairs: str | None):
    saved = {key: os.environ.get(key) for key in pairs}
    for key, value in pairs.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def chaos_cells(
    name: str, scale: float, cell_sets: tuple[str, ...] = ("fig3", "fig6", "fig7b")
) -> list[Cell]:
    """The distinct experiment cells the sweep exercises."""
    cells: list[Cell] = []
    if "fig3" in cell_sets:
        for theta_paper in FIG3_THETAS:
            for bound in FIG3_BOUNDS:
                config = SquashConfig(
                    theta=map_theta(theta_paper)
                ).with_buffer_bound(bound)
                cells.append(("size", name, scale, config))
    if "fig6" in cell_sets:
        cells += par.grid_cells("size", (name,), scale, FIG6_THETAS)
    if "fig7b" in cell_sets:
        cells += par.grid_cells("time", (name,), scale, FIG7_THETAS)
    return list(dict.fromkeys(cells))


def _reference_rows(
    name: str, scale: float, cell_sets: tuple[str, ...], parallel: bool
):
    """The figure rows of *cell_sets*: through the cell cache when
    *parallel*, else the serial, uncached sweep."""
    rows = []
    if "fig3" in cell_sets:
        rows.append(par.fig3_rows((name,), scale=scale, parallel=parallel))
    if "fig6" in cell_sets:
        rows.append(par.fig6_rows((name,), scale=scale, parallel=parallel))
    if "fig7b" in cell_sets:
        rows.append(
            par.fig7_time_rows((name,), scale=scale, parallel=parallel)
        )
    return rows


def run_chaos_sweep(
    name: str,
    scale: float = 0.2,
    faults: int = 60,
    seed: int = 0,
    workers: int | None = None,
    deadline: float = 15.0,
    cache_root: str | None = None,
    cell_sets: tuple[str, ...] = ("fig3", "fig6", "fig7b"),
    max_hangs: int | None = None,
) -> ChaosSweepReport:
    """Run one full chaos sweep on *name*; see the module docstring."""
    # A chaos sweep needs a real pool even on a single-CPU host: kills
    # and hangs are only meaningful against disposable workers.
    if workers is None:
        workers = max(2, os.cpu_count() or 1)
    cells = chaos_cells(name, scale, cell_sets)
    digests = [par._cell_digest(*cell) for cell in cells]
    report = ChaosSweepReport(
        name=name, scale=scale, seed=seed, faults=faults, cells=len(cells)
    )

    # Fault budget: most faults are process-level; a fifth (at least
    # four, at most one per entry) are cache corruptions.
    cache_faults = min(len(cells), max(4, faults // 5))
    process_faults = max(0, faults - cache_faults)
    max_per_cell = max(1, -(-process_faults // len(cells)))  # ceil
    plan = chaos.plan_process_chaos(
        digests, process_faults, seed,
        max_per_cell=max_per_cell, max_hangs=max_hangs,
    )
    for kinds in plan.values():
        for kind in kinds:
            report.planned_process[kind] = (
                report.planned_process.get(kind, 0) + 1
            )

    root = pathlib.Path(cache_root) if cache_root else pathlib.Path(
        tempfile.mkdtemp(prefix="repro-chaos-")
    )
    counter_dir = root / ".chaos-exec"
    spec = chaos.ChaosSpec(
        seed=seed,
        plan=plan,
        hang_seconds=deadline * 3.0,
        counter_dir=str(counter_dir),
    )
    # Retry budget must outlast the worst-faulted cell plus collateral
    # (a neighbour's kill fails every in-flight future); the breaker is
    # disabled — every cell here shares one class, and convergence, not
    # fail-fast, is what the sweep asserts.
    chaos_config = SupervisorConfig(
        workers=workers,
        deadline=deadline,
        retry=RetryPolicy(
            max_attempts=max_per_cell + 3,
            backoff_base=0.02,
            backoff_cap=0.2,
            crash_cap_factor=16,
        ),
        breaker_threshold=0,
    )

    try:
        # -- pass 1: compute everything under process chaos ------------
        sink: list = []
        with _env(
            REPRO_CACHE_DIR=str(root), REPRO_CHAOS_SPEC=spec.to_env()
        ):
            results = par.compute_cells(
                cells, parallel=True, config=chaos_config,
                strict=False, report_sink=sink,
            )
        if sink:
            report.pool_rebuilds = sink[0].pool_rebuilds
            for event in sink[0].events:
                report.events[event.kind] = (
                    report.events.get(event.kind, 0) + 1
                )
        report.fired_process = chaos.fired_counts(counter_dir)
        report.lost_cells = len(cells) - len(results)

        # -- cache faults: corrupt persisted entries -------------------
        rng = random.Random(seed + 1)
        present = [
            path for path in (par.cell_path(root, cell) for cell in cells)
            if path.exists()
        ]
        targets = rng.sample(present, min(cache_faults, len(present)))
        for index, path in enumerate(targets):
            mode = chaos.CACHE_FAULT_KINDS[index % len(chaos.CACHE_FAULT_KINDS)]
            chaos.corrupt_entry(path, mode, rng)
            report.planned_cache[mode] = report.planned_cache.get(mode, 0) + 1

        # -- pass 2: resume from the damaged cache ---------------------
        stats = CacheStats()
        with _env(REPRO_CACHE_DIR=str(root), REPRO_CHAOS_SPEC=None):
            results = par.compute_cells(
                cells, parallel=False, stats=stats, strict=False,
            )
            report.cache_rejects = dict(stats.rejects)
            report.lost_cells = max(
                report.lost_cells, len(cells) - len(results)
            )

            # -- rows: the surviving cache vs a fault-free serial sweep -
            chaos_rows = _reference_rows(name, scale, cell_sets, True)
        serial_rows = _reference_rows(name, scale, cell_sets, False)
        report.rows_match = repr(chaos_rows) == repr(serial_rows)
    finally:
        if cache_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return report
