"""Stage 1 of the rewriter: exclusions and region formation.

Turns (program, profile, cold set) into a :class:`RegionPlanResult`:
the working program (unswitching may rewrite cold jump-table
dispatches, in copies of the functions holding them), the
compressible block set, and the packed regions that will be
compressed as units.  :data:`REGION_STRATEGIES`
names the two ways to form regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compress.codec import CompressedBlob
from repro.core.descriptor import BufferStrategy
from repro.core.regions import (
    Region,
    RegionContext,
    form_regions,
    form_regions_whole_function,
    pack_regions,
)
from repro.core.unswitch import UnswitchResult, unswitch_cold_tables
from repro.program.program import Program
from repro.vm.profiler import Profile

__all__ = [
    "REGION_STRATEGIES",
    "RegionPlanResult",
    "RewriteInfo",
    "data_referenced_labels",
    "plan_regions",
]

#: Region formation: name -> f(program, compressible, cost, ctx) ->
#: list[Region].  ``SquashConfig.region_strategy`` selects one.
REGION_STRATEGIES: dict[str, Callable] = {
    "dfs": form_regions,
    "whole_function": form_regions_whole_function,
}


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

    #: The working program (unswitching may have rewritten functions).
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
    cold: set[str],
) -> RegionPlanResult:
    """Exclusions, unswitching, and region packing (Sections 4-5).

    *program* is not changed: unswitching rewrites copies of the
    functions it changes, in a working program that shares every other
    function and data object with *program*.  *profile* gains the
    counts of the blocks unswitching adds; callers pass a copy.  *cold*
    is the cold-code stage's output (Section 5).
    """
    cost = config.cost
    cold = set(cold)
    info.cold = set(cold)
    program = Program(
        name=program.name,
        functions=dict(program.functions),
        data=dict(program.data),
        entry=program.entry,
        address_taken=set(program.address_taken),
    )

    # -- unswitching (Section 6.2) --------------------------------------
    excluded: set[str] = set()
    if config.unswitch:
        info.unswitch = unswitch_cold_tables(program, cold, profile)
        excluded |= info.unswitch.excluded

    # One scan of the (unswitched) program serves every later stage.
    ctx = RegionContext.build(program)

    # -- exclusions (Sections 2.2, 6.2) ---------------------------------
    if not config.unswitch:
        for label, block in ctx.blocks.items():
            if block.jump_table is not None:
                table = program.data[block.jump_table.data_symbol]
                excluded.add(label)
                excluded.update(table.relocs.values())
    # Setjmp callers, and computed gotos with unknown targets: exclude
    # the whole function.
    for name in ctx.setjmp_functions | ctx.computed_goto_functions:
        excluded.update(program.functions[name].blocks)
    if config.strategy is BufferStrategy.NO_CALLS:
        excluded.update(
            label for label, block in ctx.blocks.items() if block.has_call
        )

    compressible = cold - excluded
    info.compressible = set(compressible)

    # -- regions (Section 4) --------------------------------------------
    entries = ctx.entries
    data_refs = data_referenced_labels(program, entries)
    ctx.forced_entries |= data_refs

    form = REGION_STRATEGIES.get(config.region_strategy)
    if form is None:
        raise ValueError(
            f"unknown region strategy {config.region_strategy!r}; "
            f"known: {', '.join(sorted(REGION_STRATEGIES))}"
        )
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
