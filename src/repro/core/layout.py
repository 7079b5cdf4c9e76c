"""Stage 3 of the rewriter: segment layout.

Assigns the address of every segment of the squashed image —
never-compressed text, entry stubs, decompressor, function offset
table, stub area, runtime buffer, data, compressed area — and of every
stub inside them, from the classified region plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import ClassifiedSites, RegionSitePlan
from repro.core.descriptor import (
    BufferStrategy,
    CompileTimeStubInfo,
    EntryStubInfo,
    RestoreStubScheme,
    SquashDescriptor,
)
from repro.core.plan import RegionPlanResult
from repro.core.regions import Region, RegionContext, entry_blocks
from repro.program.blocks import BasicBlock
from repro.program.layout import needs_fallthrough_br
from repro.program.program import Program

__all__ = ["SegmentLayout", "build_layout"]


@dataclass
class SegmentLayout:
    """Addresses of every segment and every stub."""

    text_base: int
    text_words: int
    text_block_addr: dict[str, int]
    entry_stub_base: int
    entry_stubs: list[EntryStubInfo]
    entry_stub_of: dict[str, int]  # label -> stub addr
    decomp_base: int
    decomp_words: int
    offset_table_addr: int
    n_regions: int
    stub_area_base: int
    stub_area_words: int
    stub_capacity: int
    ct_stub_bases: dict[tuple[int, int], int]
    ct_stub_infos: list[CompileTimeStubInfo]
    buffer_base: int
    buffer_words: int
    data_base: int
    data_addr: dict[str, int]
    data_words: int
    compressed_base: int
    entries: dict[str, str]
    text_plan: list[tuple[BasicBlock, str | None]]
    region_bases: dict[int, int]

    @classmethod
    def build(
        cls,
        prog: Program,
        compressed: set[str],
        plans: list[RegionSitePlan],
        regions: list[Region],
        ctx: RegionContext,
        config,
        data_ref_labels: set[str],
    ) -> "SegmentLayout":
        cost = config.cost
        # Text plan: remaining (never-compressed) blocks per function.
        text_plan: list[tuple[BasicBlock, str | None]] = []
        for function in prog.functions.values():
            remaining = [
                b for b in function.block_order() if b.label not in compressed
            ]
            for position, block in enumerate(remaining):
                next_label = (
                    remaining[position + 1].label
                    if position + 1 < len(remaining)
                    else None
                )
                text_plan.append((block, next_label))

        addr = config.text_base
        text_block_addr: dict[str, int] = {}
        for block, next_label in text_plan:
            text_block_addr[block.label] = addr
            addr += block.size
            if needs_fallthrough_br(block, next_label):
                addr += 1
        text_words = addr - config.text_base

        # Entry stubs: per region, blocks with external entries, in slot
        # order.
        entry_stub_base = addr
        entry_stubs: list[EntryStubInfo] = []
        entry_stub_of: dict[str, int] = {}
        for plan in plans:
            region_set = set(plan.region.blocks)
            needing = entry_blocks(region_set, ctx)
            for label in sorted(needing, key=lambda l: plan.block_slots[l]):
                stub_addr = (
                    entry_stub_base
                    + len(entry_stubs) * cost.entry_stub_words
                )
                entry_stubs.append(
                    EntryStubInfo(
                        label=label,
                        region=plan.region.index,
                        offset=plan.block_slots[label],
                        addr=stub_addr,
                    )
                )
                entry_stub_of[label] = stub_addr
        addr = entry_stub_base + len(entry_stubs) * cost.entry_stub_words

        # Decompressor (entry points at decomp_base + r).
        decomp_base = addr
        decomp_words = max(cost.decompressor_words, 64)
        addr += decomp_words

        # Function offset table.
        offset_table_addr = addr
        addr += len(regions)

        # Stub area.
        stub_area_base = addr
        ct_stub_bases: dict[tuple[int, int], int] = {}
        ct_stub_infos: list[CompileTimeStubInfo] = []
        if config.restore_scheme is RestoreStubScheme.COMPILE_TIME:
            cursor = stub_area_base
            for plan in plans:
                for ordinal in range(len(plan.ct_sites)):
                    ct_stub_bases[(plan.region.index, ordinal)] = cursor
                    cursor += SquashDescriptor.CT_STUB_WORDS
            stub_area_words = cursor - stub_area_base
            stub_capacity = 0
        else:
            stub_capacity = cost.stub_area_capacity
            stub_area_words = (
                stub_capacity * SquashDescriptor.RESTORE_STUB_WORDS
            )
        addr = stub_area_base + stub_area_words

        # Runtime buffer (or per-region areas).
        buffer_base = addr
        region_bases: dict[int, int] = {}
        if config.strategy is BufferStrategy.DECOMPRESS_ONCE:
            cursor = buffer_base
            for plan in plans:
                region_bases[plan.region.index] = cursor
                plan.base = cursor
                cursor += plan.expanded_size
            buffer_words = cursor - buffer_base
        else:
            buffer_words = max(
                (plan.expanded_size for plan in plans), default=0
            )
            for plan in plans:
                region_bases[plan.region.index] = buffer_base
                plan.base = buffer_base
        addr = buffer_base + buffer_words

        # Data.
        data_base = addr
        data_addr: dict[str, int] = {}
        for obj in prog.data.values():
            data_addr[obj.name] = addr
            addr += obj.size
        data_words = addr - data_base

        compressed_base = addr

        return cls(
            text_base=config.text_base,
            text_words=text_words,
            text_block_addr=text_block_addr,
            entry_stub_base=entry_stub_base,
            entry_stubs=entry_stubs,
            entry_stub_of=entry_stub_of,
            decomp_base=decomp_base,
            decomp_words=decomp_words,
            offset_table_addr=offset_table_addr,
            n_regions=len(regions),
            stub_area_base=stub_area_base,
            stub_area_words=stub_area_words,
            stub_capacity=stub_capacity,
            ct_stub_bases=ct_stub_bases,
            ct_stub_infos=ct_stub_infos,
            buffer_base=buffer_base,
            buffer_words=buffer_words,
            data_base=data_base,
            data_addr=data_addr,
            data_words=data_words,
            compressed_base=compressed_base,
            entries=ctx.entries,
            text_plan=text_plan,
            region_bases=region_bases,
        )

    def resolve_code_label(self, label: str) -> int:
        """Final address of a block: its text address, or its entry
        stub if it was compressed."""
        addr = self.text_block_addr.get(label)
        if addr is not None:
            return addr
        stub = self.entry_stub_of.get(label)
        if stub is None:
            raise KeyError(
                f"compressed block {label!r} is referenced but has no "
                f"entry stub"
            )
        return stub

    def resolve_func(self, name: str) -> int:
        return self.resolve_code_label(self.entries[name])

    def ct_stub_addr(self, region_index: int, ordinal: int) -> int:
        return self.ct_stub_bases[(region_index, ordinal)]


def build_layout(
    plan: RegionPlanResult,
    classified: ClassifiedSites,
    config,
) -> SegmentLayout:
    """The ``layout`` stage entry point."""
    return SegmentLayout.build(
        plan.program,
        plan.compressed,
        classified.plans,
        plan.regions,
        plan.ctx,
        config,
        plan.data_ref_labels,
    )
