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
    instruction_to_codec,
)
from repro.core.classify import (
    CATEGORY_CALL_CT,
    CATEGORY_CALL_INTRA,
    CATEGORY_CALL_SAFE,
    CATEGORY_ICALL_CT,
    CATEGORY_PLAIN,
    CATEGORY_XCALLD,
    CATEGORY_XCALLI,
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
    encode_block_words,
    resolve_data_ref,
)

__all__ = ["encode_region", "build_blob", "emit_image"]


def encode_region(
    plan: RegionSitePlan,
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
        for index, instr in enumerate(block.instrs):
            category = plan.categories[(label, index)]
            here = base + slot
            is_terminator = index == len(block.instrs) - 1
            if category == CATEGORY_PLAIN and index in block.data_refs:
                resolved = resolve_data_ref(
                    instr, layout.data_addr[block.data_refs[index]]
                )
                items.append(instruction_to_codec(resolved))
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
            elif is_terminator and (
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
                slot += 1
            else:
                items.append(instruction_to_codec(instr))
                slot += 1
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
        memory.extend(
            encode_block_words(
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
