"""Deterministic fault injection for the squashed-image runtime.

The harness perturbs a squashed image (bit flips in the compressed
stream, codec tables, or offset table; stream truncation; offset-table
corruption; region-decode-cache poisoning; mis-sealed or mis-indexed
context tables of CodecModel images) and asserts that every fault
is *detected* -- the run raises a :class:`~repro.errors.SquashError`
subclass -- or *provably benign* -- the run's output, exit code, and
cycle count are identical to the clean run.  A fault that changes
behaviour without raising is a **silent misexecution**, the failure
mode the integrity format exists to rule out.

Alongside the bit-level harness, :mod:`repro.faultinject.chaos` and
:mod:`repro.faultinject.chaossweep` perturb the *execution* path:
deterministic worker kills, hangs, OOM simulations, and cache-entry
corruption injected into a supervised figure sweep, which must still
converge to rows identical to a fault-free serial run.
"""

from repro.faultinject.chaos import (
    CACHE_FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    STORE_FAULT_KINDS,
    ChaosSpec,
    StoreChaosSpec,
    corrupt_entry,
    maybe_inject,
    maybe_store_fault,
    plan_process_chaos,
)
from repro.faultinject.chaossweep import (
    ChaosSweepReport,
    chaos_cells,
    run_chaos_sweep,
)
from repro.faultinject.servechaos import (
    SCENARIOS as SERVE_CHAOS_SCENARIOS,
    ServeChaosReport,
    run_serve_chaos,
)
from repro.faultinject.inject import (
    CONTEXT_FAULT_KINDS,
    FAULT_KINDS,
    FaultSpec,
    apply_fault,
    plan_fault,
)
from repro.faultinject.sweep import (
    FaultOutcome,
    SweepReport,
    run_sweep,
    sweep_program,
)

__all__ = [
    "CONTEXT_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "apply_fault",
    "plan_fault",
    "FaultOutcome",
    "SweepReport",
    "run_sweep",
    "sweep_program",
    "PROCESS_FAULT_KINDS",
    "CACHE_FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "ChaosSpec",
    "StoreChaosSpec",
    "plan_process_chaos",
    "maybe_inject",
    "maybe_store_fault",
    "corrupt_entry",
    "ChaosSweepReport",
    "chaos_cells",
    "run_chaos_sweep",
    "SERVE_CHAOS_SCENARIOS",
    "ServeChaosReport",
    "run_serve_chaos",
]
