"""Seeded fault-injection sweeps over a squashed image.

:func:`run_sweep` takes one clean :class:`~repro.core.pipeline.
SquashResult`, runs it once for a baseline, then applies *n* planned
faults (one fresh machine each) and classifies every run:

``detected``
    The run raised a :class:`~repro.errors.SquashError` subclass --
    the integrity machinery caught the fault.  Cache-poison faults
    whose tampered entry was rejected by its seal (and whose run then
    matched the baseline exactly) also count as detected.
``benign``
    The run completed with output, exit code, and cycle count
    identical to the clean baseline (e.g. a flip in a region this
    input never decompresses -- the whole-stream CRC only runs once
    the decompressor is first invoked).
``silent``
    The run completed but *diverged* from the baseline, or a poisoned
    cache entry was executed.  **This is the failure mode the
    integrity format must rule out; a sweep asserts zero of these.**
``escaped``
    The run died on a non-structured error (a raw machine fault).
    The fault was not silent, but it bypassed the taxonomy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core import runtime as runtime_mod
from repro.core.pipeline import SquashResult
from repro.core.runtime import SquashRuntime, clear_region_decode_cache
from repro.errors import SquashError
from repro.faultinject.inject import (
    CONTEXT_FAULT_KINDS,
    FAULT_KINDS,
    FaultSpec,
    apply_fault,
    plan_fault,
)
from repro.vm.machine import Machine, RunResult

__all__ = ["FaultOutcome", "SweepReport", "run_sweep", "sweep_program"]


@dataclass
class FaultOutcome:
    """Classification of one injected fault."""

    index: int
    spec: FaultSpec
    status: str  # detected | benign | silent | escaped
    error_type: str = ""
    message: str = ""


@dataclass
class SweepReport:
    """Aggregate result of one sweep."""

    seed: int
    faults: int
    detected: int = 0
    benign: int = 0
    silent: int = 0
    escaped: int = 0
    #: Every non-benign outcome (and every silent/escaped one).
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no fault misexecuted silently."""
        return self.silent == 0

    def record(self, outcome: FaultOutcome) -> None:
        setattr(self, outcome.status, getattr(self, outcome.status) + 1)
        if outcome.status != "benign":
            self.outcomes.append(outcome)

    def render(self) -> str:
        lines = [
            f"fault sweep: {self.faults} faults, seed {self.seed}",
            f"  detected {self.detected}  benign {self.benign}  "
            f"silent {self.silent}  escaped {self.escaped}",
            f"  verdict: {'OK' if self.ok else 'SILENT MISEXECUTION'}",
        ]
        for outcome in self.outcomes:
            if outcome.status in ("silent", "escaped"):
                lines.append(
                    f"  [{outcome.index}] {outcome.status.upper()}  "
                    f"{outcome.spec.describe()}  "
                    f"{outcome.error_type}: {outcome.message}"
                )
        return "\n".join(lines)


def _same_run(a: RunResult, b: RunResult) -> bool:
    return (
        a.exit_code == b.exit_code
        and a.output == b.output
        and a.cycles == b.cycles
    )


def _run_faulty(
    result: SquashResult,
    input_words,
    spec: FaultSpec,
    max_steps: int,
) -> tuple[RunResult | None, BaseException | None]:
    image, descriptor = apply_fault(result.image, result.descriptor, spec)
    runtime = SquashRuntime(descriptor, region_cache=False)
    machine = Machine(
        image, input_words=input_words, services=runtime.services()
    )
    try:
        return machine.run(max_steps=max_steps), None
    except BaseException as exc:  # classified by the caller
        return None, exc


def _run_cache_poison(
    result: SquashResult,
    input_words,
    clean: RunResult,
    spec: FaultSpec,
    rng: random.Random,
    max_steps: int,
    index: int,
) -> FaultOutcome:
    """Populate the region decode cache, tamper with one entry (keeping
    its now-stale seal), and re-run: the seal must reject the entry and
    the re-decoded run must match the baseline exactly."""
    clear_region_decode_cache()
    machine, _ = result.make_machine(input_words, region_cache=True)
    machine.run(max_steps=max_steps)
    cache = runtime_mod._REGION_DECODE_CACHE
    if not cache:
        clear_region_decode_cache()
        return FaultOutcome(
            index=index, spec=spec, status="benign",
            message="no cache entries to poison",
        )
    key = rng.choice(sorted(cache, key=repr))
    items, bits, seal = cache[key]
    if spec.mode == "bits" or not items:
        cache[key] = (items, bits + 64, seal)
    else:
        cache[key] = (items + (items[0],), bits, seal)
    machine, runtime = result.make_machine(input_words, region_cache=True)
    try:
        rerun = machine.run(max_steps=max_steps)
    except SquashError as exc:
        clear_region_decode_cache()
        return FaultOutcome(
            index=index, spec=spec, status="detected",
            error_type=type(exc).__name__, message=str(exc),
        )
    except BaseException as exc:
        clear_region_decode_cache()
        return FaultOutcome(
            index=index, spec=spec, status="escaped",
            error_type=type(exc).__name__, message=str(exc),
        )
    clear_region_decode_cache()
    if not _same_run(clean, rerun):
        return FaultOutcome(
            index=index, spec=spec, status="silent",
            message="poisoned cache entry changed the run",
        )
    if runtime.stats.cache_rejects:
        return FaultOutcome(
            index=index, spec=spec, status="detected",
            error_type="seal-reject",
            message=f"{runtime.stats.cache_rejects} poisoned "
            f"entries rejected; run identical",
        )
    return FaultOutcome(
        index=index, spec=spec, status="benign",
        message="poisoned entry never hit",
    )


def run_sweep(
    result: SquashResult,
    input_words,
    faults: int,
    seed: int = 0,
    kinds: tuple[str, ...] = FAULT_KINDS,
    max_steps: int = 500_000_000,
) -> SweepReport:
    """Inject *faults* seeded faults into *result* and classify each.

    All non-poison runs use a private runtime with the cross-runtime
    decode cache off, so faults cannot leak between runs.
    """
    clean, _ = result.run(
        input_words, max_steps=max_steps, region_cache=False
    )
    rng = random.Random(seed)
    report = SweepReport(seed=seed, faults=faults)
    for index in range(faults):
        kind = kinds[rng.randrange(len(kinds))]
        spec = plan_fault(kind, result.descriptor, rng, result.image)
        if kind == "cache-poison":
            report.record(
                _run_cache_poison(
                    result, input_words, clean, spec, rng, max_steps, index
                )
            )
            continue
        run, exc = _run_faulty(result, input_words, spec, max_steps)
        if exc is not None:
            if isinstance(exc, SquashError):
                report.record(
                    FaultOutcome(
                        index=index, spec=spec, status="detected",
                        error_type=type(exc).__name__, message=str(exc),
                    )
                )
            else:
                report.record(
                    FaultOutcome(
                        index=index, spec=spec, status="escaped",
                        error_type=type(exc).__name__, message=str(exc),
                    )
                )
        elif _same_run(clean, run):
            report.record(
                FaultOutcome(index=index, spec=spec, status="benign")
            )
        else:
            report.record(
                FaultOutcome(
                    index=index, spec=spec, status="silent",
                    message=f"run diverged: cycles {clean.cycles} -> "
                    f"{run.cycles}, output "
                    f"{'same' if run.output == clean.output else 'DIFFERS'}",
                )
            )
    return report


def sweep_program(
    name: str,
    scale: float,
    faults: int,
    seed: int = 0,
    theta: float = 0.0,
    bound: int = 512,
    kinds: tuple[str, ...] = FAULT_KINDS,
    codec_variant: str = "",
) -> SweepReport:
    """Convenience: squash one MediaBench benchmark and sweep it.

    *codec_variant* names a codec variant (see
    :data:`repro.compress.codec.CODEC_VARIANTS`).  When *kinds* is left
    at its default, the CodecModel fault kinds are appended
    automatically for images that qualify: ``context-seal-corrupt``
    whenever per-context seals are present, ``context-index-corrupt``
    when the codec conditions at least one stream.
    """
    from repro.analysis.experiments import squash_benchmark
    from repro.core.pipeline import SquashConfig
    from repro.workloads.mediabench import mediabench_program

    config = SquashConfig(
        theta=theta, codec_variant=codec_variant
    ).with_buffer_bound(bound)
    result = squash_benchmark(name, scale, config)
    if kinds is FAULT_KINDS:
        kinds = kinds + _applicable_context_kinds(result)
    bench = mediabench_program(name, scale=scale)
    return run_sweep(result, bench.timing_input, faults, seed, kinds)


def _applicable_context_kinds(result: SquashResult) -> tuple[str, ...]:
    """The :data:`CONTEXT_FAULT_KINDS` subset *result* can express."""
    integ = result.descriptor.integrity
    if integ is None or not integ.contexts:
        return ()
    kinds: tuple[str, ...] = ("context-seal-corrupt",)
    if any(record.ctx > 0 for record in integ.contexts):
        kinds += ("context-index-corrupt",)
    return kinds
