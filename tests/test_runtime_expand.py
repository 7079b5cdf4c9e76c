"""Decoded regions are materialised without ``Instruction`` objects.

``codec_word`` packs a real-opcode item straight from its opcode's field
plan, and ``SquashRuntime._expand`` packs the two words of an XCALL the
same way.  The oracle is the instruction path they replaced:
``encode(codec_to_instruction(item))`` per item, and the Figure 2
expansion built from ``Instruction`` objects, which must give the same
words and raise the same ``ValueError`` for a field out of range.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import map_theta, squash_benchmark
from repro.compress.codec import ProgramCodec
from repro.compress.streams import (
    OP_SENTINEL,
    OP_XCALLD,
    OP_XCALLI,
    CodecInstr,
    codec_fields,
    codec_to_instruction,
    codec_word,
)
from repro.core.pipeline import SquashConfig
from repro.core.runtime import SquashRuntime
from repro.isa.encoding import encode
from repro.isa.fields import FIELD_WIDTHS, FieldKind, from_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, REG_ZERO
from repro.program.layout import branch_displacement

REAL_OPCODES = [int(op) for op in Op if op is not Op.ILLEGAL]


def _outcome(build, *args):
    """What *build* returns, or the type and message it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _reference_expand(items, base: int, decomp_base: int) -> list[int]:
    """The materialisation through ``Instruction`` objects."""
    words: list[int] = []
    slot = 1
    for item in items:
        if item.opcode == OP_XCALLD:
            link = item.fields[0]
            disp = from_bits(FieldKind.BDISP, item.fields[1])
            words.append(encode(Instruction(
                Op.BSR, ra=link,
                imm=branch_displacement(base + slot, decomp_base + link),
            )))
            words.append(encode(Instruction(Op.BR, ra=REG_ZERO, imm=disp)))
            slot += 2
        elif item.opcode == OP_XCALLI:
            link, rb = item.fields
            words.append(encode(Instruction(
                Op.BSR, ra=link,
                imm=branch_displacement(base + slot, decomp_base + link),
            )))
            words.append(encode(Instruction(Op.JSR, ra=REG_ZERO, rb=rb)))
            slot += 2
        else:
            words.append(encode(codec_to_instruction(item)))
            slot += 1
    return words


@st.composite
def _items(draw, opcodes):
    """An item of one of *opcodes*, each field's bit pattern mostly in
    range and sometimes just outside it."""
    opcode = draw(st.sampled_from(opcodes))
    fields = []
    for kind in codec_fields(opcode):
        top = (1 << FIELD_WIDTHS[kind]) - 1
        fields.append(draw(
            st.integers(0, top)
            | st.sampled_from((0, top >> 1, (top >> 1) + 1, top))
            | st.sampled_from((-1, top + 1, top + 2))
        ))
    return CodecInstr(opcode=opcode, fields=tuple(fields))


@functools.lru_cache(maxsize=None)
def _golden_cell():
    """adpcm at paper θ = 1 and the golden scale: every block is cold,
    so the regions hold calls (XCALL items) as well as plain code."""
    return squash_benchmark("adpcm", 0.2, SquashConfig(theta=map_theta(1.0)))


@settings(max_examples=400, deadline=None)
@given(item=_items(REAL_OPCODES + [OP_XCALLD, OP_XCALLI, OP_SENTINEL]))
def test_codec_word_matches_the_instruction_path(item):
    assert _outcome(codec_word, item) == _outcome(
        lambda item: encode(codec_to_instruction(item)), item
    )


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(_items(REAL_OPCODES + [OP_XCALLD, OP_XCALLI]), max_size=12),
    base=st.integers(0, 1 << 22),
)
def test_expand_matches_the_instruction_path(items, base):
    runtime = SquashRuntime(_golden_cell().descriptor)
    decomp_base = runtime.desc.decomp_base
    assert _outcome(runtime._expand, items, base) == _outcome(
        _reference_expand, items, base, decomp_base
    )


def test_every_region_of_a_golden_cell():
    result = _golden_cell()
    blob = result.info.blob
    codec = ProgramCodec.from_table_words(blob.table_words)
    runtime = SquashRuntime(result.descriptor)
    opcodes = set()
    for region in result.descriptor.regions:
        items, _ = codec.decode_region(blob.stream_words, region.bit_offset)
        opcodes.update(item.opcode for item in items)
        assert runtime._expand(items, region.base) == _reference_expand(
            items, region.base, result.descriptor.decomp_base
        ), region.index
    assert {OP_XCALLD, OP_XCALLI} <= opcodes
    assert len(opcodes) > 10
