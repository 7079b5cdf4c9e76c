"""Oracle for the squash compiler: sparse classify, run-wise encode and
the one program scan.

The earlier compiler stages are kept here verbatim as references:
``RegionContext.build`` (its separate passes, as
:func:`reference_context`), ``buffer_safe_functions`` (a rescan of
every caller until a fixpoint), the per-instruction
``RegionSitePlan.build`` with ``classify_site``, ``encode_region``
(one lookup or rebuilt ``Instruction`` per item), ``plan_regions``
(which took a whole-program copy and unswitched it in place),
``emit_image``, and the instruction-by-instruction
``encode_block_words`` (with the ``resolve_data_ref`` it called) that
the plain linker and the text of ``emit_image`` share.  Only the
conversion cache those called is gone: the reference converts each
unchanged instruction with ``instruction_to_codec``.

On generated programs × the whole :class:`SquashConfig` space (codec
variant, region strategy, buffer strategy, restore scheme, ``pack``,
``unswitch``, ``buffer_caching``, K and θ), the compiler must give the
files :meth:`SquashResult.file_bytes` writes and the ``RewriteInfo`` of
the reference pipeline, and the same error type and message when every
external branch displacement is forced out of range.  The one-scan
facts, entry blocks and buffer-safe sets are also compared directly,
and so are the plain linker's block words, or its error when every
branch and call target is out of reach or no data resolver is given.

Its sibling ``squash_oracle_scale.py`` runs the same property with
more examples; CI's ``squash-oracle`` job runs it at Hypothesis seeds
1-4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compress.codec import CODEC_VARIANTS, CompressedBlob, ProgramCodec
from repro.compress.streams import (
    CodecInstr,
    OP_XCALLD,
    OP_XCALLI,
    instruction_to_codec,
)
from repro.core.buffersafe import safe_functions
from repro.core.classify import (
    CATEGORY_CALL_CT,
    CATEGORY_CALL_INTRA,
    CATEGORY_CALL_SAFE,
    CATEGORY_ICALL_CT,
    CATEGORY_PLAIN,
    CATEGORY_XCALLD,
    CATEGORY_XCALLI,
    ClassifiedSites,
)
from repro.core.coldcode import identify_cold_blocks
from repro.core.config import SquashConfig
from repro.core.descriptor import (
    BufferStrategy,
    CompileTimeStubInfo,
    RegionDescriptor,
    RestoreStubScheme,
    SquashDescriptor,
)
from repro.core.integrity import blob_integrity
from repro.core.layout import SegmentLayout, build_layout
from repro.core.metrics import baseline_code_words, squashed_footprint
from repro.core.pipeline import SquashResult, squash_program
from repro.core.plan import (
    REGION_STRATEGIES,
    RegionPlanResult,
    RewriteInfo,
    data_referenced_labels,
)
from repro.core.regions import (
    Region,
    RegionContext,
    entry_blocks,
    pack_regions,
)
from repro.core.unswitch import unswitch_cold_tables
from repro.isa.encoding import encode
from repro.isa.fields import FieldKind, to_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, REG_AT, REG_ZERO
from repro.program.blocks import BasicBlock
from repro.program.cfg import block_predecessors, call_graph
from repro.program.image import LoadedImage, Segment
from repro.program.layout import (
    assign_addresses,
    branch_displacement,
    encode_block_words,
    layout,
    needs_fallthrough_br,
    split_hi_lo,
)
from repro.program.program import Program
from repro.squeeze import squeeze
from repro.vm.profiler import Profile, collect_profile
from repro.workloads import MEDIABENCH, build_workload, mediabench_spec
from repro.workloads.inputs import profiling_input

# -- the earlier compiler stages, verbatim ------------------------------------


def reference_context(program: Program) -> RegionContext:
    blocks = {b.label: b for _, b in program.all_blocks()}
    sizes = {label: b.size for label, b in blocks.items()}
    entries = {
        f.name: f.entry for f in program.functions.values() if f.entry
    }
    calls_in = {label: len(b.call_sites()) for label, b in blocks.items()}
    call_sites: dict[str, set[str]] = {}
    for function in program.functions.values():
        for block in function.blocks.values():
            for target in block.call_targets.values():
                call_sites.setdefault(entries[target], set()).add(
                    block.label
                )
    forced: set[str] = set()
    for name in program.address_taken:
        forced.add(entries[name])
    if program.entry is not None:
        forced.add(entries[program.entry])
    return RegionContext(
        program=program,
        blocks=blocks,
        sizes=sizes,
        preds=block_predecessors(program),
        block_func=program.block_function(),
        entries=entries,
        calls_in=calls_in,
        call_sites_of=call_sites,
        forced_entries=forced,
    )


def reference_buffer_safe_functions(
    program: Program,
    compressed_blocks: set[str],
) -> set[str]:
    """Names of buffer-safe functions.

    ``compressed_blocks`` is the union of all region blocks.
    """
    graph = call_graph(program)
    unsafe: set[str] = set()

    # Seed: functions with any compressed block.
    for function in program.functions.values():
        if any(
            block.label in compressed_blocks
            for block in function.blocks.values()
        ):
            unsafe.add(function.name)

    # Seed: indirect calls whose target set could contain unsafe code.
    # Conservatively, an indirect call is dangerous unless every
    # address-taken function is (eventually) safe; to stay monotone we
    # treat an indirect call as an edge to every address-taken function
    # (already encoded by call_graph), so no extra seeding is needed
    # unless there are indirect calls with *no* known targets.
    for function in program.functions.values():
        if function.has_indirect_call and not program.address_taken:
            unsafe.add(function.name)

    # Propagate: a caller of an unsafe function is unsafe.
    changed = True
    while changed:
        changed = False
        for name, callees in graph.items():
            if name in unsafe:
                continue
            if any(callee in unsafe for callee in callees):
                unsafe.add(name)
                changed = True
    return set(program.functions) - unsafe


#: Two-slot expansions (CreateStub, Figure 2).
_TWO_SLOT = (CATEGORY_XCALLD, CATEGORY_XCALLI)


def reference_classify_site(
    prog: Program,
    ctx: RegionContext,
    block: BasicBlock,
    index: int,
    instr,
    region_set: set[str],
    safe: set[str],
    all_indirect_safe: bool,
    decompress_once: bool,
    runtime_stubs: bool,
) -> str:
    """Category of one instruction inside a compressed region.

    *decompress_once*: decompressed code is never overwritten, so no
    call from a region needs protection.  *runtime_stubs*: protected
    calls expand to the two-instruction CreateStub pseudo ops rather
    than branching to pre-built stubs.
    """
    if index in block.call_targets:
        target = block.call_targets[index]
        if decompress_once:
            # DECOMPRESS_ONCE never overwrites decompressed code, so
            # every call can be ordinary: intra-region calls are
            # area-relative, the rest go to the callee (or its entry
            # stub) directly.
            if ctx.entries[target] in region_set:
                return CATEGORY_CALL_INTRA
            return CATEGORY_CALL_SAFE
        if target in safe:
            return CATEGORY_CALL_SAFE
        target_fn = prog.functions[target]
        if all(b in region_set for b in target_fn.blocks):
            # The callee lives wholly inside this region: its return
            # address stays valid because every escape from the region
            # during its execution is itself call-protected.
            return CATEGORY_CALL_INTRA
        return CATEGORY_XCALLD if runtime_stubs else CATEGORY_CALL_CT
    if instr.is_indirect_call:
        if decompress_once or all_indirect_safe:
            return CATEGORY_PLAIN
        return CATEGORY_XCALLI if runtime_stubs else CATEGORY_ICALL_CT
    return CATEGORY_PLAIN


@dataclass
class ReferenceSitePlan:
    """Pass-1 layout of one region: slots and call-site categories."""

    region: Region
    block_slots: dict[str, int]
    #: (block label, index) -> category
    categories: dict[tuple[str, int], str]
    #: (block label, index) -> compile-time stub ordinal
    ct_sites: dict[tuple[str, int], int]
    #: Blocks needing a trailing fallthrough br inside the buffer.
    trailing_br: set[str]
    expanded_size: int
    original_instrs: int
    base: int = 0  # assigned by SegmentLayout

    @classmethod
    def build(
        cls,
        prog: Program,
        region: Region,
        ctx: RegionContext,
        safe: set[str],
        all_indirect_safe: bool,
        config,
        info: RewriteInfo,
    ) -> "ReferenceSitePlan":
        decompress_once = config.strategy is BufferStrategy.DECOMPRESS_ONCE
        runtime_stubs = config.restore_scheme is RestoreStubScheme.RUNTIME
        region_set = set(region.blocks)
        block_slots: dict[str, int] = {}
        categories: dict[tuple[str, int], str] = {}
        ct_sites: dict[tuple[str, int], int] = {}
        trailing: set[str] = set()
        slot = 1  # slot 0 is the entry jump
        original = 0

        for position, label in enumerate(region.blocks):
            block = ctx.blocks[label]
            block_slots[label] = slot
            original += block.size
            for index, instr in enumerate(block.instrs):
                category = reference_classify_site(
                    prog, ctx, block, index, instr, region_set, safe,
                    all_indirect_safe, decompress_once, runtime_stubs,
                )
                categories[(label, index)] = category
                if category in (CATEGORY_CALL_CT, CATEGORY_ICALL_CT):
                    ct_sites[(label, index)] = len(ct_sites)
                if category in _TWO_SLOT:
                    info.xcall_sites += 1
                    slot += 2
                else:
                    slot += 1
                if category == CATEGORY_CALL_INTRA:
                    info.intra_region_calls += 1
                elif category == CATEGORY_CALL_SAFE:
                    info.safe_calls += 1
            next_label = (
                region.blocks[position + 1]
                if position + 1 < len(region.blocks)
                else None
            )
            if needs_fallthrough_br(block, next_label):
                trailing.add(label)
                slot += 1

        return cls(
            region=region,
            block_slots=block_slots,
            categories=categories,
            ct_sites=ct_sites,
            trailing_br=trailing,
            expanded_size=slot,
            original_instrs=original,
        )

    def site_slot(self, label: str, index: int) -> int:
        """Buffer slot of instruction *index* of block *label*."""
        slot = self.block_slots[label]
        for position in range(index):
            category = self.categories[(label, position)]
            slot += 2 if category in _TWO_SLOT else 1
        return slot


def reference_classify_sites(
    plan: RegionPlanResult,
    config,
    info: RewriteInfo,
) -> ClassifiedSites:
    """Buffer safety (Section 6.1) + per-region classification."""
    prog = plan.program
    safe = reference_buffer_safe_functions(prog, plan.compressed)
    info.safe_functions = safe
    all_indirect_safe = (
        bool(prog.address_taken) and prog.address_taken <= safe
    )
    plans = [
        ReferenceSitePlan.build(
            prog, region, plan.ctx, safe, all_indirect_safe, config, info
        )
        for region in plan.regions
    ]
    return ClassifiedSites(
        plans=plans,
        safe_functions=safe,
        all_indirect_safe=all_indirect_safe,
    )


def reference_encode_region(
    plan: ReferenceSitePlan,
    ctx: RegionContext,
    layout: SegmentLayout,
) -> list[CodecInstr]:
    """Pass 2: produce the final codec items for one region."""
    entries = ctx.entries
    region_set = set(plan.region.blocks)
    base = plan.base
    items: list[CodecInstr] = []
    slot = 1

    def resolve_external(label: str) -> int:
        return layout.resolve_code_label(label)

    for label in plan.region.blocks:
        block = ctx.blocks[label]
        last = len(block.instrs) - 1
        for index, instr in enumerate(block.instrs):
            category = plan.categories[(label, index)]
            here = base + slot
            if category == CATEGORY_PLAIN:
                if index in block.data_refs:
                    resolved = resolve_data_ref(
                        instr, layout.data_addr[block.data_refs[index]]
                    )
                    items.append(instruction_to_codec(resolved))
                elif index == last and (
                    instr.is_cond_branch or block.ends_in_uncond_branch
                ):
                    target_label = block.branch_target
                    assert target_label is not None
                    if target_label in region_set:
                        disp = plan.block_slots[target_label] - (slot + 1)
                    else:
                        disp = resolve_external(target_label) - (here + 1)
                    items.append(
                        instruction_to_codec(
                            Instruction(instr.op, ra=instr.ra, imm=disp)
                        )
                    )
                else:
                    # The program's own instruction, unchanged: converted
                    # once across every squash of the program.
                    items.append(instruction_to_codec(instr))
                slot += 1
            elif category in (CATEGORY_CALL_SAFE, CATEGORY_CALL_INTRA):
                target_fn = block.call_targets[index]
                entry = entries[target_fn]
                if category == CATEGORY_CALL_INTRA:
                    disp = plan.block_slots[entry] - (slot + 1)
                else:
                    disp = resolve_external(entry) - (here + 1)
                items.append(
                    instruction_to_codec(
                        Instruction(instr.op, ra=instr.ra, imm=disp)
                    )
                )
                slot += 1
            elif category in (CATEGORY_CALL_CT, CATEGORY_ICALL_CT):
                stub_addr = layout.ct_stub_addr(
                    plan.region.index, plan.ct_sites[(label, index)]
                )
                items.append(
                    instruction_to_codec(
                        Instruction(
                            Op.BR,
                            ra=REG_ZERO,
                            imm=branch_displacement(here, stub_addr),
                        )
                    )
                )
                slot += 1
            elif category == CATEGORY_XCALLD:
                target_fn = block.call_targets[index]
                entry = entries[target_fn]
                target = (
                    base + plan.block_slots[entry]
                    if entry in region_set
                    else resolve_external(entry)
                )
                # the expanded br sits at here + 1
                disp = target - (here + 2)
                items.append(
                    CodecInstr(
                        OP_XCALLD,
                        (instr.ra, to_bits(FieldKind.BDISP, disp)),
                    )
                )
                slot += 2
            elif category == CATEGORY_XCALLI:
                items.append(
                    CodecInstr(OP_XCALLI, (instr.ra, instr.rb))
                )
                slot += 2
        if label in plan.trailing_br:
            target_label = block.fallthrough
            assert target_label is not None
            here = base + slot
            if target_label in region_set:
                disp = plan.block_slots[target_label] - (slot + 1)
            else:
                disp = resolve_external(target_label) - (here + 1)
            items.append(
                instruction_to_codec(
                    Instruction(Op.BR, ra=REG_ZERO, imm=disp)
                )
            )
            slot += 1
    assert slot == plan.expanded_size, (slot, plan.expanded_size)
    return items


def reference_plan_regions(
    program: Program,
    profile: Profile,
    config,
    info: RewriteInfo,
    cold: set[str],
) -> RegionPlanResult:
    """Exclusions, unswitching, and region packing (Sections 4-5).

    *program* is mutated in place (unswitching); callers pass a copy.
    *cold* is the cold-code stage's output (Section 5).
    """
    cost = config.cost
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
    ctx = reference_context(program)
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


def resolve_data_ref(instr: Instruction, addr: int) -> Instruction:
    """Materialise a data relocation into an ``lda``/``ldah`` immediate."""
    hi, lo = split_hi_lo(addr)
    imm = hi if instr.op is Op.LDAH else lo
    return Instruction(instr.op, ra=instr.ra, rb=instr.rb, imm=imm)


def reference_encode_block_words(
    block: BasicBlock,
    addr: int,
    resolve_label: Callable[[str], int],
    resolve_func: Callable[[str], int],
    next_label: str | None,
    resolve_data: Callable[[str], int] | None = None,
) -> list[int]:
    """Encode *block* at *addr*, resolving branches, calls, fallthrough.

    ``next_label`` is the label laid out immediately after this block
    (or None); an explicit ``br`` to the fallthrough successor is
    appended when they differ.  This helper is shared by the plain
    linker and the squash rewriter (which resolves labels of compressed
    blocks to their entry stubs).
    """
    words: list[int] = []
    for index, instr in enumerate(block.instrs):
        here = addr + index
        if index in block.data_refs:
            if resolve_data is None:
                raise ValueError(
                    f"block {block.label!r} has data refs but no resolver"
                )
            instr = resolve_data_ref(
                instr, resolve_data(block.data_refs[index])
            )
        elif index in block.call_targets:
            target = resolve_func(block.call_targets[index])
            instr = Instruction(
                instr.op, ra=instr.ra, imm=branch_displacement(here, target)
            )
        elif index == len(block.instrs) - 1 and (
            instr.is_cond_branch or block.ends_in_uncond_branch
        ):
            assert block.branch_target is not None
            target = resolve_label(block.branch_target)
            instr = Instruction(
                instr.op, ra=instr.ra, imm=branch_displacement(here, target)
            )
        words.append(encode(instr))
    if needs_fallthrough_br(block, next_label):
        assert block.fallthrough is not None
        here = addr + len(words)
        target = resolve_label(block.fallthrough)
        words.append(
            encode(
                Instruction(
                    Op.BR,
                    ra=REG_ZERO,
                    imm=branch_displacement(here, target),
                )
            )
        )
    return words


def reference_emit_image(
    ctx: RegionContext,
    layout: SegmentLayout,
    plans: list[ReferenceSitePlan],
    blob: CompressedBlob,
    config,
) -> tuple[LoadedImage, SquashDescriptor]:
    """Materialise the squashed image and its runtime descriptor."""
    prog = ctx.program
    cost = config.cost
    memory: list[int] = []

    # Text.
    for block, next_label in layout.text_plan:
        memory.extend(
            reference_encode_block_words(
                block,
                layout.text_block_addr[block.label],
                layout.resolve_code_label,
                layout.resolve_func,
                next_label,
                lambda sym: layout.data_addr[sym],
            )
        )
    assert len(memory) == layout.text_words

    # Entry stubs: bsr $at, decomp_entry($at); tag.
    for stub in layout.entry_stubs:
        call = Instruction(
            Op.BSR,
            ra=REG_AT,
            imm=branch_displacement(stub.addr, layout.decomp_base + REG_AT),
        )
        memory.append(encode(call))
        memory.append((stub.region << 16) | stub.offset)

    # Decompressor area (entry points + body; the body's execution is
    # modelled by the runtime service, its space is real).
    memory.extend([0] * layout.decomp_words)

    # Function offset table: per-region bit offsets.
    memory.extend(blob.region_bit_offsets)
    assert layout.offset_table_addr + layout.n_regions == layout.stub_area_base

    # Stub area.
    if config.restore_scheme is RestoreStubScheme.COMPILE_TIME:
        memory.extend(_reference_emit_ct_stubs(ctx, layout, plans))
    else:
        memory.extend([0] * layout.stub_area_words)

    # Runtime buffer / region areas.
    memory.extend([0] * layout.buffer_words)

    # Data.
    for obj in prog.data.values():
        for index, word in enumerate(obj.words):
            target = obj.relocs.get(index)
            if target is not None:
                if target in prog.functions:
                    word = layout.resolve_func(target)
                else:
                    word = layout.resolve_code_label(target)
            memory.append(word & 0xFFFFFFFF)

    # Compressed area, last: tables then stream.
    table_addr = layout.compressed_base
    memory.extend(blob.table_words)
    stream_addr = table_addr + len(blob.table_words)
    memory.extend(blob.stream_words)

    base = layout.text_base
    segments = [
        Segment("text", base, layout.text_words),
        Segment(
            "entry_stubs",
            layout.entry_stub_base,
            len(layout.entry_stubs) * cost.entry_stub_words,
        ),
        Segment("decompressor", layout.decomp_base, layout.decomp_words),
        Segment("offset_table", layout.offset_table_addr, layout.n_regions),
        Segment("stub_area", layout.stub_area_base, layout.stub_area_words),
        Segment("runtime_buffer", layout.buffer_base, layout.buffer_words),
        Segment("data", layout.data_base, layout.data_words),
        Segment(
            "compressed",
            layout.compressed_base,
            len(blob.table_words) + len(blob.stream_words),
        ),
    ]

    symbols: dict[str, int] = dict(layout.text_block_addr)
    for name, entry in layout.entries.items():
        if name in prog.functions:
            try:
                symbols[name] = layout.resolve_code_label(entry)
            except KeyError:
                pass
    symbols.update(layout.data_addr)

    image = LoadedImage(
        memory=memory,
        base=base,
        entry_pc=layout.resolve_func(prog.entry),  # type: ignore[arg-type]
        segments=segments,
        symbols=symbols,
        block_heads={
            addr: label for label, addr in layout.text_block_addr.items()
        },
    )

    descriptor = SquashDescriptor(
        strategy=config.strategy,
        restore_scheme=config.restore_scheme,
        cost=cost,
        decomp_base=layout.decomp_base,
        decomp_words=layout.decomp_words,
        offset_table_addr=layout.offset_table_addr,
        table_addr=table_addr,
        table_words=len(blob.table_words),
        stream_addr=stream_addr,
        stream_words=len(blob.stream_words),
        stub_area_base=layout.stub_area_base,
        stub_area_words=layout.stub_area_words,
        stub_capacity=layout.stub_capacity,
        buffer_base=layout.buffer_base,
        buffer_words=layout.buffer_words,
        regions=[
            RegionDescriptor(
                index=plan.region.index,
                bit_offset=blob.region_bit_offsets[plan.region.index],
                expanded_size=plan.expanded_size,
                base=plan.base,
                block_slots=dict(plan.block_slots),
                original_instrs=plan.original_instrs,
            )
            for plan in plans
        ],
        entry_stubs=list(layout.entry_stubs),
        compile_time_stubs=list(layout.ct_stub_infos),
        buffer_caching=config.buffer_caching,
        integrity=blob_integrity(blob),
    )
    return image, descriptor


def _reference_emit_ct_stubs(
    ctx: RegionContext,
    layout: SegmentLayout,
    plans: list[ReferenceSitePlan],
) -> list[int]:
    """Materialise compile-time restore stubs:
    ``call ; bsr $at, decomp ; tag``."""
    words: list[int] = []
    for plan in plans:
        for (label, index), ordinal in sorted(
            plan.ct_sites.items(), key=lambda kv: kv[1]
        ):
            stub_addr = layout.ct_stub_addr(plan.region.index, ordinal)
            block = ctx.blocks[label]
            instr = block.instrs[index]
            if index in block.call_targets:
                callee_entry = layout.entries[block.call_targets[index]]
                if callee_entry in plan.block_slots:
                    # Callee entry is inside this region: call its
                    # buffer slot (the region is buffered while the
                    # stub runs).
                    target = plan.base + plan.block_slots[callee_entry]
                else:
                    target = layout.resolve_func(block.call_targets[index])
                call = Instruction(
                    instr.op,
                    ra=instr.ra,
                    imm=branch_displacement(stub_addr, target),
                )
            else:  # indirect call
                call = Instruction(Op.JSR, ra=instr.ra, rb=instr.rb)
            decomp_call = Instruction(
                Op.BSR,
                ra=REG_AT,
                imm=branch_displacement(
                    stub_addr + 1, layout.decomp_base + REG_AT
                ),
            )
            # Return offset: the slot after the call site in the buffer.
            return_offset = plan.site_slot(label, index) + 1
            tag = (plan.region.index << 16) | return_offset
            words.extend([encode(call), encode(decomp_call), tag])
            layout.ct_stub_infos.append(
                CompileTimeStubInfo(
                    addr=stub_addr,
                    region=plan.region.index,
                    return_offset=return_offset,
                )
            )
    return words
def reference_entry_blocks(
    region_blocks: set[str], ctx: RegionContext
) -> set[str]:
    """Blocks of the region that need an entry stub (the set Y).

    A block needs an entry stub if control can enter it from outside
    the region: an intra-procedural edge or a direct call from a block
    not in the region, an indirect call (address-taken entries), a data
    reference, or being the program entry.  A helper whose every caller
    is packed into the same region needs no stub -- this is where
    Section 4's packing savings come from.
    """
    entries: set[str] = set()
    for label in region_blocks:
        if (
            label in ctx.forced_entries
            or any(s not in region_blocks for s in ctx.preds.get(label, ()))
            or any(
                s not in region_blocks
                for s in ctx.call_sites_of.get(label, ())
            )
        ):
            entries.add(label)
    return entries


def reference_squash(
    program: Program, profile: Profile, config: SquashConfig,
    baseline_words: int,
) -> SquashResult:
    """The earlier ``squash_program``'s stages, over the references."""
    info = RewriteInfo()
    cold = identify_cold_blocks(profile, config.theta).cold
    plan = reference_plan_regions(
        program.copy(),
        Profile(
            counts=dict(profile.counts),
            sizes=dict(profile.sizes),
            tot_instr_ct=profile.tot_instr_ct,
        ),
        config,
        info,
        cold,
    )
    classified = reference_classify_sites(plan, config, info)
    segments = build_layout(plan, classified, config)
    info.entry_stub_count = len(segments.entry_stubs)
    info.never_compressed_words = segments.text_words
    region_items = [
        reference_encode_region(site_plan, plan.ctx, segments)
        for site_plan in classified.plans
    ]
    if region_items:
        _, blob = ProgramCodec.build(region_items, config.effective_codec())
    else:
        blob = CompressedBlob(
            table_words=[], stream_words=[], region_bit_offsets=[],
            table_bits=0, stream_bits=0,
        )
    info.blob = blob
    info.compressed_original_instrs = sum(
        p.original_instrs for p in classified.plans
    )
    info.jump_table_words = sum(
        obj.size for obj in plan.program.data.values() if obj.is_jump_table
    )
    image, descriptor = reference_emit_image(
        plan.ctx, segments, classified.plans, blob, config
    )
    return SquashResult(
        image=image,
        descriptor=descriptor,
        info=info,
        footprint=squashed_footprint(image, info.jump_table_words),
        baseline_words=baseline_words,
        config=config,
    )


# -- the property --------------------------------------------------------------


@lru_cache(maxsize=None)
def generated(name: str, seed: int, scale: float):
    """A squeezed, profiled ``repro.workloads`` program and its
    baseline size."""
    spec = replace(mediabench_spec(name, scale), seed=seed)
    workload = build_workload(spec)
    squeezed, _ = squeeze(workload.program)
    base = layout(squeezed)
    profile = collect_profile(squeezed, base.image, profiling_input(workload))
    return squeezed, profile, baseline_code_words(base, squeezed)


@dataclass(frozen=True)
class Case:
    name: str
    seed: int
    scale: float
    config: SquashConfig


def cases():
    """Generated programs × the whole configuration space."""
    configs = st.builds(
        SquashConfig,
        theta=st.one_of(
            st.sampled_from((0.0, 1e-3, 1.0)),
            st.floats(1e-6, 1.0, allow_nan=False),
        ),
        strategy=st.sampled_from(BufferStrategy),
        restore_scheme=st.sampled_from(RestoreStubScheme),
        pack=st.booleans(),
        unswitch=st.booleans(),
        buffer_caching=st.booleans(),
        region_strategy=st.sampled_from(sorted(REGION_STRATEGIES)),
        codec_variant=st.sampled_from(sorted(CODEC_VARIANTS)),
    )
    return st.builds(
        Case,
        name=st.sampled_from(MEDIABENCH),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from((0.02, 0.04)),
        config=st.tuples(
            configs, st.sampled_from((64, 128, 512, 2048))
        ).map(lambda pair: pair[0].with_buffer_bound(pair[1])),
    )


def _outcome(squash, *args):
    """``file_bytes()`` and ``RewriteInfo`` of a squash, or the type
    and message of the error it raised."""
    try:
        result = squash(*args)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return result.file_bytes(), result.info


def _words(encode_block, *args):
    """The words *encode_block* gives, or the type and message of the
    error it raised."""
    try:
        return encode_block(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def check_plain_linker(program: Program) -> None:
    """``encode_block_words`` against the reference on every block at
    its linked address: resolved, with every branch and call target
    moved out of reach, and with no data resolver."""
    addrs = assign_addresses(program)
    for shift, resolve_data in (
        (0, addrs.data_addr.__getitem__),
        (1 << 21, addrs.data_addr.__getitem__),
        (0, None),
    ):
        def resolve_label(label, shift=shift):
            return addrs.block_addr[label] + shift

        def resolve_func(name, shift=shift):
            return addrs.func_addr[name] + shift

        for block, next_label in addrs.plan:
            args = (
                block, addrs.block_addr[block.label], resolve_label,
                resolve_func, next_label, resolve_data,
            )
            assert _words(encode_block_words, *args) == _words(
                reference_encode_block_words, *args
            )


def _far(resolve):
    """*resolve* moved past the reach of any branch displacement."""

    def far(self, label):
        return resolve(self, label) + (1 << 21)

    return far


def check_against_reference(case: Case, monkeypatch) -> None:
    program, profile, baseline = generated(case.name, case.seed, case.scale)
    args = (program, profile, case.config, baseline)

    # The one-scan facts, entry blocks and buffer-safe sets.
    ctx, ref_ctx = RegionContext.build(program), reference_context(program)
    for field in (
        "blocks", "sizes", "preds", "block_func", "entries", "calls_in",
        "call_sites_of", "forced_entries",
    ):
        assert getattr(ctx, field) == getattr(ref_ctx, field), field
    for function in program.functions.values():
        labels = set(function.blocks)
        assert entry_blocks(labels, ctx) == reference_entry_blocks(
            labels, ref_ctx
        )
        assert safe_functions(ctx, labels) == (
            reference_buffer_safe_functions(program, labels)
        )

    check_plain_linker(program)
    assert _outcome(squash_program, *args) == _outcome(reference_squash, *args)

    # Every external displacement out of range: the same error.
    with monkeypatch.context() as patch:
        patch.setattr(
            SegmentLayout, "resolve_code_label",
            _far(SegmentLayout.resolve_code_label),
        )
        want = _outcome(reference_squash, *args)
        got = _outcome(squash_program, *args)
    assert got == want


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(case=cases())
def test_compiler_matches_reference(case, monkeypatch):
    check_against_reference(case, monkeypatch)


def test_forced_displacement_error_is_pinned(monkeypatch):
    """One pinned case where the forced error is raised: a protected
    call at θ = 1 under the runtime scheme (an XCALLD) and one under
    the compile-time scheme, on adpcm."""
    program, profile, baseline = generated("adpcm", 1, 0.04)
    for scheme in RestoreStubScheme:
        config = SquashConfig(theta=1.0, restore_scheme=scheme)
        with monkeypatch.context() as patch:
            patch.setattr(
                SegmentLayout, "resolve_code_label",
                _far(SegmentLayout.resolve_code_label),
            )
            want = _outcome(reference_squash, program, profile, config, baseline)
            got = _outcome(squash_program, program, profile, config, baseline)
        assert want[0] is ValueError and "out of range" in want[1]
        assert got == want
