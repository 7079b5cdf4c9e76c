"""Stage 1 of the rewriter: cold code, exclusions, region formation.

Turns (program, profile, θ) into a :class:`RegionPlanResult`: the
working program copy (unswitching may rewrite cold jump-table
dispatches in place), the compressible block set, and the packed
regions that will be compressed as units.

Region construction is a plugin point: :data:`REGION_STRATEGIES` maps
strategy names to formation callables, so an alternative partitioner
(the paper's Section 9 future work, or the access-pattern and
function-granularity schemes of the related MIPS / APCC work) is added
by registering a function, not by editing this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compress.codec import CompressedBlob
from repro.core.coldcode import identify_cold_blocks
from repro.core.descriptor import BufferStrategy
from repro.core.regions import (
    Region,
    RegionContext,
    form_regions,
    form_regions_whole_function,
    pack_regions,
)
from repro.core.unswitch import UnswitchResult, unswitch_cold_tables
from repro.pipeline.registry import Registry
from repro.program.program import Program
from repro.vm.profiler import Profile

__all__ = [
    "REGION_STRATEGIES",
    "RegionPlanResult",
    "RewriteInfo",
    "data_referenced_labels",
    "plan_regions",
]

#: Region-formation plugins: name -> f(program, compressible, cost,
#: ctx) -> list[Region].  ``SquashConfig.region_strategy`` selects one.
REGION_STRATEGIES: Registry[Callable] = Registry("region strategy")
REGION_STRATEGIES.register("dfs", form_regions)
REGION_STRATEGIES.register("whole_function", form_regions_whole_function)


@dataclass
class RewriteInfo:
    """Measurements taken during rewriting (feeds the experiments)."""

    cold: set[str] = field(default_factory=set)
    compressible: set[str] = field(default_factory=set)
    compressed_blocks: set[str] = field(default_factory=set)
    regions: list[Region] = field(default_factory=list)
    safe_functions: set[str] = field(default_factory=set)
    unswitch: UnswitchResult = field(default_factory=UnswitchResult)
    entry_stub_count: int = 0
    xcall_sites: int = 0
    intra_region_calls: int = 0
    safe_calls: int = 0
    compressed_original_instrs: int = 0
    never_compressed_words: int = 0
    jump_table_words: int = 0
    blob: CompressedBlob | None = None

    @property
    def gamma_measured(self) -> float:
        """Measured compression factor: compressed words / original
        instruction words (tables included)."""
        if not self.compressed_original_instrs or self.blob is None:
            return 1.0
        return self.blob.total_words / self.compressed_original_instrs


@dataclass
class RegionPlanResult:
    """Everything region formation decided (the ``plan`` artifact)."""

    #: The working copy (unswitching may have rewritten it).
    program: Program
    cold: set[str]
    excluded: set[str]
    compressible: set[str]
    regions: list[Region]
    ctx: RegionContext
    data_ref_labels: set[str]
    unswitch: UnswitchResult
    compressed: set[str]


def data_referenced_labels(
    program: Program, entries: dict[str, str]
) -> set[str]:
    """Block labels reachable through data relocations (jump tables and
    function-pointer tables)."""
    labels: set[str] = set()
    for obj in program.data.values():
        for target in obj.relocs.values():
            if target in program.functions:
                labels.add(entries[target])
            else:
                labels.add(target)
    return labels


def plan_regions(
    program: Program,
    profile: Profile,
    config,
    info: RewriteInfo,
    cold: set[str] | None = None,
) -> RegionPlanResult:
    """Exclusions, unswitching, and region packing (Sections 4-5).

    *program* is mutated in place (unswitching); callers pass a copy.
    *cold* is the cold-code stage's output; when omitted it is derived
    here (Section 5).
    """
    cost = config.cost

    # -- cold code (Section 5) ------------------------------------------
    if cold is None:
        cold = set(identify_cold_blocks(profile, config.theta).cold)
    else:
        cold = set(cold)
    info.cold = set(cold)

    # -- unswitching / exclusions (Sections 2.2, 6.2) -------------------
    excluded: set[str] = set()
    if config.unswitch:
        info.unswitch = unswitch_cold_tables(program, cold, profile)
        excluded |= info.unswitch.excluded
    else:
        for _, block in program.all_blocks():
            if block.jump_table is not None:
                table = program.data[block.jump_table.data_symbol]
                excluded.add(block.label)
                excluded.update(table.relocs.values())

    for function in program.functions.values():
        if function.calls_setjmp:
            excluded.update(function.blocks)
        if any(
            block.ends_in_indirect_jump and block.jump_table is None
            for block in function.blocks.values()
        ):
            # Computed goto with unknown targets: exclude the function.
            excluded.update(function.blocks)
        if config.strategy is BufferStrategy.NO_CALLS:
            for block in function.blocks.values():
                if block.has_call:
                    excluded.add(block.label)

    compressible = cold - excluded
    info.compressible = set(compressible)

    # -- regions (Section 4) --------------------------------------------
    ctx = RegionContext.build(program)
    entries = ctx.entries
    data_refs = data_referenced_labels(program, entries)
    ctx.forced_entries |= data_refs

    form = REGION_STRATEGIES.get(config.region_strategy)
    regions = form(program, compressible, cost, ctx)
    if config.pack:
        regions = pack_regions(program, regions, cost, ctx)
    info.regions = regions

    compressed: set[str] = set()
    for region in regions:
        compressed.update(region.blocks)
    info.compressed_blocks = compressed

    return RegionPlanResult(
        program=program,
        cold=cold,
        excluded=excluded,
        compressible=compressible,
        regions=regions,
        ctx=ctx,
        data_ref_labels=data_refs,
        unswitch=info.unswitch,
        compressed=compressed,
    )
