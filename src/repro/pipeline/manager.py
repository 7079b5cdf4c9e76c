"""Per-stage instrumentation: wall time and counters for each stage.

Squash runs its six stages (cold → plan → classify → layout → encode
→ emit, :func:`repro.core.pipeline.squash_program`) and squeeze its
four passes (:func:`repro.squeeze.pipeline.squeeze`) as ordinary calls
in a fixed order, each inside :meth:`StageReport.stage`.  That one
context manager times the stage, opens its ``stage.<name>`` span and
mirrors the stage into the metrics registry as
``pipeline.stage.<name>.executed``, ``.seconds`` and one counter per
stage counter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = ["StageReport", "StageTiming"]


@dataclass
class StageTiming:
    """One stage's contribution to a :class:`StageReport`."""

    name: str
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class StageReport:
    """Per-stage instrumentation for one pipeline run."""

    stages: list[StageTiming] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str) -> Iterator[dict[str, int]]:
        """Run the body as stage *name*; yields its counter dict.

        When the body returns, the stage's wall time and counters are
        appended to the report and mirrored into the metrics registry.
        A body that raises adds nothing to either (its span still
        closes).
        """
        counters: dict[str, int] = {}
        start = time.perf_counter()
        with get_tracer().span(f"stage.{name}", "pipeline"):
            yield counters
        elapsed = time.perf_counter() - start
        self.stages.append(StageTiming(name, elapsed, counters))
        metrics = get_registry()
        metrics.inc(f"pipeline.stage.{name}.executed")
        metrics.observe(f"pipeline.stage.{name}.seconds", elapsed)
        for key, value in counters.items():
            metrics.inc(f"pipeline.stage.{name}.{key}", value)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def timing(self, name: str) -> StageTiming:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def counter(self, stage: str, key: str, default: int = 0) -> int:
        return self.timing(stage).counters.get(key, default)

    def render(self) -> str:
        """An aligned, human-readable per-stage table."""
        rows = [("stage", "seconds", "counters")]
        for stage in self.stages:
            counters = ", ".join(
                f"{k}={v}" for k, v in sorted(stage.counters.items())
            )
            rows.append((stage.name, f"{stage.seconds:.4f}", counters))
        rows.append(("total", f"{self.total_seconds:.4f}", ""))
        widths = [max(len(row[col]) for row in rows) for col in range(2)]
        lines = []
        for index, row in enumerate(rows):
            line = "  ".join(
                [row[col].ljust(widths[col]) for col in range(2)]
                + ([row[2]] if row[2] else [])
            ).rstrip()
            lines.append(line)
            if index == 0:
                lines.append("-" * max(len(l) for l in lines))
        return "\n".join(lines)
