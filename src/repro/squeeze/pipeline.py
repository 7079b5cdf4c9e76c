"""The squeeze pipeline: the four compaction passes, in a fixed order.

Reachability runs first (it exposes nothing for later passes but
shrinks their work), then no-op removal, dead-store elimination, and
procedural abstraction.  Each pass is timed as one stage of a
:class:`~repro.pipeline.manager.StageReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.manager import StageReport
from repro.program.program import Program
from repro.squeeze.abstraction import AbstractionStats, abstract_repeats
from repro.squeeze.deadcode import DeadCodeStats, eliminate_dead_stores
from repro.squeeze.nops import NopStats, remove_nops
from repro.squeeze.unreachable import UnreachableStats, remove_unreachable

__all__ = ["SqueezeStats", "squeeze"]


@dataclass
class SqueezeStats:
    """Before/after sizes and per-pass statistics."""

    input_size: int = 0
    output_size: int = 0
    unreachable: UnreachableStats = field(default_factory=UnreachableStats)
    nops: NopStats = field(default_factory=NopStats)
    dead: DeadCodeStats = field(default_factory=DeadCodeStats)
    abstraction: AbstractionStats = field(default_factory=AbstractionStats)

    @property
    def reduction(self) -> float:
        """Fractional code-size reduction achieved."""
        if self.input_size == 0:
            return 0.0
        return 1.0 - self.output_size / self.input_size


def squeeze(
    program: Program, abstraction_rounds: int = 2
) -> tuple[Program, SqueezeStats]:
    """Compact *program*; returns a new program and statistics.

    Procedural abstraction runs *abstraction_rounds* rounds.
    """
    result = program.copy()
    stats = SqueezeStats(input_size=program.code_size)
    report = StageReport()
    for name, run in (
        ("unreachable", remove_unreachable),
        ("nops", remove_nops),
        ("dead", eliminate_dead_stores),
        ("abstraction",
         lambda prog: abstract_repeats(prog, rounds=abstraction_rounds)),
    ):
        with report.stage(name) as counters:
            before = result.code_size
            setattr(stats, name, run(result))
            counters["words_removed"] = before - result.code_size
    stats.output_size = result.code_size
    result.validate()
    return result, stats
