"""Splitting instructions into typed field streams (Section 3).

Besides the real opcodes, the compressed form uses three pseudo-opcodes
that exist only inside compressed regions:

* ``OP_XCALLD`` -- a direct call that the decompressor must expand into
  the two-instruction ``bsr $r, CreateStub ; br target`` sequence of
  Figure 2 (the single original call becomes two instructions in the
  runtime buffer).
* ``OP_XCALLI`` -- the analogous expansion for an indirect call
  (``bsr $r, CreateStub ; jsr r31, (rb)``).
* ``OP_SENTINEL`` -- the end-of-region sentinel; the decompressor stops
  when it decodes one (Section 2.1).

Pseudo-opcodes occupy reserved primary-opcode values, so they live in
the ordinary opcode stream and the opcode still fully determines which
field streams follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.isa.encoding import FIELD_SLOTS, encode
from repro.isa.fields import FieldKind, check_field, from_bits
from repro.isa.instruction import FIELD_PLANS, Instruction
from repro.isa.opcodes import Op

#: Reserved opcode values for the compressed form.
OP_XCALLD = 0x30
OP_XCALLI = 0x31
OP_SENTINEL = 0x3F

#: Map real opcode value -> (opcode, its field plans without the SBZ
#: pad), for reconstructing real instructions.
_REAL: dict[int, tuple] = {
    int(_op): (_op, tuple(p for p in FIELD_PLANS[_op] if p[1] is not None))
    for _op in Op
    if _op is not Op.ILLEGAL
}

#: Field layout of each opcode value as seen by the codec.
#: Pseudo-opcodes get their own layouts; SBZ pads are dropped (they
#: carry no information and the decompressor re-inserts zeros).
_CODEC_FIELDS: dict[int, tuple[FieldKind, ...]] = {
    opcode: tuple(p[0] for p in plans)
    for opcode, (_, plans) in _REAL.items()
}
_CODEC_FIELDS[OP_XCALLD] = (FieldKind.RA, FieldKind.BDISP)
_CODEC_FIELDS[OP_XCALLI] = (FieldKind.RA, FieldKind.RB)
_CODEC_FIELDS[OP_SENTINEL] = ()


@dataclass(frozen=True)
class CodecInstr:
    """One instruction as the codec sees it.

    ``opcode`` is a 6-bit opcode value (real or pseudo); ``fields``
    holds the raw unsigned bit patterns of its typed fields, in format
    order.
    """

    opcode: int
    fields: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kinds = codec_fields(self.opcode)
        if len(kinds) != len(self.fields):
            raise ValueError(
                f"opcode {self.opcode:#x} needs {len(kinds)} fields, "
                f"got {len(self.fields)}"
            )


def codec_fields(opcode: int) -> tuple[FieldKind, ...]:
    """Field kinds of *opcode* (real or pseudo), in stream order."""
    try:
        return _CODEC_FIELDS[opcode]
    except KeyError:
        raise ValueError(f"opcode {opcode:#x} unknown to the codec") from None


def instruction_to_codec(instr: Instruction) -> CodecInstr:
    """Convert a real instruction to its codec representation.

    Every field is range-checked again, with ``check_field``'s error.
    """
    opcode = int(instr.op)
    fields = []
    for kind, attr, _, lo, hi, mask in FIELD_PLANS[instr.op]:
        if attr is not None:
            value = getattr(instr, attr)
            if not lo <= value <= hi:
                check_field(kind, value)
            fields.append(value & mask)
    return CodecInstr(opcode=opcode, fields=tuple(fields))


#: Bound on the distinct instructions :func:`program_instruction_to_codec`
#: keeps converted (a few programs' worth).
CONVERSION_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=CONVERSION_CACHE_SIZE)
def program_instruction_to_codec(instr: Instruction) -> CodecInstr:
    """:func:`instruction_to_codec`, remembered per instruction.

    For a program's own instructions, which every squash of the
    program converts again (block copies share them); instructions
    rebuilt per squash, such as resolved branches, should take the
    uncached :func:`instruction_to_codec`.  A range error is raised
    again on every call: exceptions are never cached.
    """
    return instruction_to_codec(instr)


def codec_to_instruction(item: CodecInstr) -> Instruction:
    """Convert a real-opcode codec item back to an instruction.

    Pseudo-opcodes have no single-instruction equivalent and are
    rejected; the decompressor expands them instead.
    """
    real = _REAL.get(item.opcode)
    if real is None:
        raise ValueError(
            f"opcode {item.opcode:#x} is a pseudo-op; expand it instead"
        )
    op, plans = real
    kwargs = {}
    for (kind, attr, _, _, hi, mask), bits in zip(plans, item.fields):
        if not 0 <= bits <= mask:
            from_bits(kind, bits)
        # Above the kind's max only for signed kinds: sign-extend.
        kwargs[attr] = bits - mask - 1 if bits > hi else bits
    return Instruction(op, **kwargs)


#: Per real opcode value: its word with every field zero, and the bit
#: position and mask of each codec field.  Every bit pattern within the
#: mask is a valid field (a signed kind's upper half are its negative
#: values), so a pattern is packed as it is.
_WORD_SLOTS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
    int(op): (word, tuple((shift, mask) for _, shift, _, _, mask in slots))
    for op, (word, slots) in FIELD_SLOTS.items()
    if op is not Op.ILLEGAL
}


def codec_word(item: CodecInstr) -> int:
    """``encode(codec_to_instruction(item))``, packed straight from the
    opcode's field plan: the same word, and the same ``ValueError`` for
    a pseudo-op or a field bit pattern out of range."""
    slots = _WORD_SLOTS.get(item.opcode)
    if slots is not None:
        word, fields = slots
        for (shift, mask), bits in zip(fields, item.fields):
            if not 0 <= bits <= mask:
                break
            word |= bits << shift
        else:
            return word
    # Raises the error the instruction path raises.
    return encode(codec_to_instruction(item))


def sentinel_item() -> CodecInstr:
    """The end-of-region marker."""
    return CodecInstr(opcode=OP_SENTINEL)


def split_streams(items: list[CodecInstr]) -> dict[FieldKind, list[int]]:
    """Split *items* into one value stream per field kind.

    The OPCODE stream gets every item's opcode; each other stream gets
    the field values of that kind in instruction order.  This is the
    "splitting streams" decomposition of Section 3.
    """
    streams: dict[FieldKind, list[int]] = {FieldKind.OPCODE: []}
    for item in items:
        streams[FieldKind.OPCODE].append(item.opcode)
        for kind, value in zip(codec_fields(item.opcode), item.fields):
            streams.setdefault(kind, []).append(value)
    return streams
