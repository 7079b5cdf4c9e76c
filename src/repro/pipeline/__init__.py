"""Per-stage wall time and counters of the squash pipeline and the
squeeze passes (:class:`~repro.pipeline.manager.StageReport`)."""

from repro.pipeline.manager import StageReport, StageTiming

__all__ = ["StageReport", "StageTiming"]
