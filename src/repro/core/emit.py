"""Stage 4 of the rewriter: region encoding and image emission.

Pass 2 over the classified regions produces the final codec items
(branch displacements resolved against the segment layout), the
program codec compresses them into one blob (Section 3), and the
emitter materialises the image words and the runtime descriptor.
"""

from __future__ import annotations

from repro.compress.codec import CodecConfig, CompressedBlob, ProgramCodec
from repro.compress.streams import (
    CodecInstr,
    OP_XCALLD,
    OP_XCALLI,
    codec_item,
    program_codec_items,
)
from repro.core.classify import (
    CATEGORY_CALL_CT,
    CATEGORY_CALL_INTRA,
    CATEGORY_CALL_SAFE,
    CATEGORY_ICALL_CT,
    CATEGORY_XCALLD,
    RegionSitePlan,
)
from repro.core.descriptor import (
    CompileTimeStubInfo,
    RegionDescriptor,
    RestoreStubScheme,
    SquashDescriptor,
)
from repro.core.integrity import blob_integrity
from repro.core.layout import SegmentLayout
from repro.core.regions import RegionContext
from repro.isa.encoding import encode
from repro.isa.fields import FieldKind, to_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, REG_AT, REG_ZERO
from repro.program.image import LoadedImage, Segment
from repro.program.layout import (
    branch_displacement,
    data_ref_imm,
    encode_block_words,
    rewritten_indices,
)

__all__ = ["encode_region", "build_blob", "emit_image"]


def encode_region(
    plan: RegionSitePlan,
    ctx: RegionContext,
    layout: SegmentLayout,
) -> list[CodecInstr]:
    """Pass 2: produce the final codec items for one region.

    A block's instructions are converted in one step; then only the
    items whose output depends on the layout are rebuilt, packed
    straight into codec items: branches, calls, data references and
    trailing ``br``s.
    """
    entries = ctx.entries
    block_slots = plan.block_slots
    base = plan.base
    region_index = plan.region.index
    data_addr = layout.data_addr
    resolve_external = layout.resolve_code_label
    items: list[CodecInstr] = []
    slot = 1
    ordinal = 0  # of the next compile-time stub

    for label in plan.region.blocks:
        block = ctx.blocks[label]
        instrs = block.instrs
        block_items = program_codec_items(instrs)
        positions = rewritten_indices(block)
        sites = plan.sites.get(label)
        categories = dict(sites) if sites else {}
        if len(categories) > len(block.call_targets):
            # Protected jsrs: rebuilt too.
            positions = sorted({*positions, *categories})
        extra = 0  # second slots of the block's expansions so far
        for index in positions:
            at = slot + index + extra  # the instruction's buffer slot
            here = base + at
            instr = instrs[index]
            category = categories.get(index)
            if category is None:
                symbol = block.data_refs.get(index)
                if symbol is not None:
                    item = codec_item(
                        instr.op, instr.ra, instr.rb,
                        data_ref_imm(instr.op, data_addr[symbol]),
                    )
                else:  # the terminating branch
                    target_label = block.branch_target
                    assert target_label is not None
                    target_slot = block_slots.get(target_label)
                    if target_slot is not None:
                        disp = target_slot - (at + 1)
                    else:
                        disp = resolve_external(target_label) - (here + 1)
                    item = codec_item(instr.op, instr.ra, disp)
            elif category in (CATEGORY_CALL_SAFE, CATEGORY_CALL_INTRA):
                entry = entries[block.call_targets[index]]
                if category == CATEGORY_CALL_INTRA:
                    disp = block_slots[entry] - (at + 1)
                else:
                    disp = resolve_external(entry) - (here + 1)
                item = codec_item(instr.op, instr.ra, disp)
            elif category in (CATEGORY_CALL_CT, CATEGORY_ICALL_CT):
                stub_addr = layout.ct_stub_addr(region_index, ordinal)
                ordinal += 1
                item = codec_item(
                    Op.BR, REG_ZERO, branch_displacement(here, stub_addr)
                )
            elif category == CATEGORY_XCALLD:
                entry = entries[block.call_targets[index]]
                target_slot = block_slots.get(entry)
                target = (
                    base + target_slot
                    if target_slot is not None
                    else resolve_external(entry)
                )
                # the expanded br sits at here + 1
                disp = target - (here + 2)
                item = CodecInstr(
                    OP_XCALLD, (instr.ra, to_bits(FieldKind.BDISP, disp))
                )
                extra += 1
            else:  # CATEGORY_XCALLI
                item = CodecInstr(OP_XCALLI, (instr.ra, instr.rb))
                extra += 1
            block_items[index] = item
        items += block_items
        slot += len(instrs) + extra
        if label in plan.trailing_br:
            target_label = block.fallthrough
            assert target_label is not None
            target_slot = block_slots.get(target_label)
            if target_slot is not None:
                disp = target_slot - (slot + 1)
            else:
                disp = resolve_external(target_label) - (base + slot + 1)
            items.append(codec_item(Op.BR, REG_ZERO, disp))
            slot += 1
    assert slot == plan.expanded_size, (slot, plan.expanded_size)
    return items


def build_blob(
    plans: list[RegionSitePlan],
    ctx: RegionContext,
    layout: SegmentLayout,
    codec_config: CodecConfig,
) -> CompressedBlob:
    """Encode every region and compress the merged stream."""
    region_items = [encode_region(plan, ctx, layout) for plan in plans]
    if region_items:
        _, blob = ProgramCodec.build(region_items, codec_config)
    else:
        blob = CompressedBlob(
            table_words=[],
            stream_words=[],
            region_bit_offsets=[],
            table_bits=0,
            stream_bits=0,
        )
    return blob


def emit_image(
    ctx: RegionContext,
    layout: SegmentLayout,
    plans: list[RegionSitePlan],
    blob: CompressedBlob,
    config,
) -> tuple[LoadedImage, SquashDescriptor]:
    """Materialise the squashed image and its runtime descriptor."""
    prog = ctx.program
    cost = config.cost
    memory: list[int] = []

    # Text.
    for block, next_label in layout.text_plan:
        memory += encode_block_words(
            block,
            layout.text_block_addr[block.label],
            layout.resolve_code_label,
            layout.resolve_func,
            next_label,
            layout.data_addr.__getitem__,
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
        memory.extend(_emit_ct_stubs(ctx, layout, plans))
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


def _emit_ct_stubs(
    ctx: RegionContext,
    layout: SegmentLayout,
    plans: list[RegionSitePlan],
) -> list[int]:
    """Materialise compile-time restore stubs:
    ``call ; bsr $at, decomp ; tag``."""
    words: list[int] = []
    for plan in plans:
        for ordinal, (label, index) in enumerate(plan.ct_sites):
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
