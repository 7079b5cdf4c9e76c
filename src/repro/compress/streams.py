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

from functools import partial
from operator import itemgetter
from typing import Sequence

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


class CodecInstr(tuple):
    """One instruction as the codec sees it: the pair ``(opcode,
    fields)``.

    ``opcode`` is a 6-bit opcode value (real or pseudo); ``fields``
    holds the raw unsigned bit patterns of its typed fields, in format
    order.  An item is the pair itself, so it hashes and compares as the
    plain tuple ``(opcode, fields)`` and is its own key in the encoder's
    counts.
    """

    __slots__ = ()

    def __new__(cls, opcode: int, fields: tuple[int, ...] = ()):
        kinds = codec_fields(opcode)
        if len(kinds) != len(fields):
            raise ValueError(
                f"opcode {opcode:#x} needs {len(kinds)} fields, "
                f"got {len(fields)}"
            )
        return tuple.__new__(cls, (opcode, fields))

    opcode = property(itemgetter(0))
    fields = property(itemgetter(1))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"CodecInstr(opcode={self[0]!r}, fields={self[1]!r})"


#: An item from a pair already known to fit its opcode's layout,
#: without the check :class:`CodecInstr` makes.
new_codec_item = partial(tuple.__new__, CodecInstr)


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
    fields = []
    for kind, attr, _, lo, hi, mask in FIELD_PLANS[instr.op]:
        if attr is not None:
            value = getattr(instr, attr)
            if not lo <= value <= hi:
                check_field(kind, value)
            fields.append(value & mask)
    return CodecInstr(int(instr.op), tuple(fields))


#: Per real opcode: ``(kind, min, max, mask)`` of each field that holds
#: a value, in format order (the SBZ pad left out).
_ITEM_SLOTS: dict[Op, tuple[tuple[FieldKind, int, int, int], ...]] = {
    op: tuple((kind, lo, hi, mask) for kind, _, lo, hi, mask in slots)
    for op, (_, slots) in FIELD_SLOTS.items()
}


def codec_item(op: Op, *values: int) -> CodecInstr:
    """:func:`instruction_to_codec` of the instruction with *values* in
    *op*'s fields (format order, the SBZ pad left out): the same item,
    and the same ``ValueError`` for a value out of range, without
    building the instruction."""
    slots = _ITEM_SLOTS[op]
    if len(values) != len(slots):
        raise TypeError(f"{op.name} takes {len(slots)} field values")
    fields = []
    for (kind, lo, hi, mask), value in zip(slots, values):
        if not lo <= value <= hi:
            check_field(kind, value)
        fields.append(value & mask)
    return new_codec_item((int(op), tuple(fields)))


#: Bound on the instructions :func:`program_codec_items` keeps
#: converted (a few programs' worth).
CONVERSION_CACHE_SIZE = 1 << 14

#: id(instruction) -> (instruction, its codec item).  An entry holds its
#: instruction, so while it lives no other object can have that id.
_CONVERTED: dict[int, tuple[Instruction, CodecInstr]] = {}
_ITEM = itemgetter(1)
#: Each distinct item in ``_CONVERTED``, so that equal instructions
#: share one item.
_ITEMS: dict[CodecInstr, CodecInstr] = {}


def _convert(instr: Instruction) -> tuple[Instruction, CodecInstr]:
    entry = _CONVERTED.get(id(instr))
    if entry is None:
        item = instruction_to_codec(instr)
        if len(_CONVERTED) >= CONVERSION_CACHE_SIZE:
            _CONVERTED.clear()
            _ITEMS.clear()
        entry = (instr, _ITEMS.setdefault(item, item))
        _CONVERTED[id(instr)] = entry
    return entry


def program_codec_items(instrs: Sequence[Instruction]) -> list[CodecInstr]:
    """:func:`instruction_to_codec` of each of a run of a program's own
    instructions, remembered per instruction object.

    Block copies share their (immutable) instructions, so every squash
    of a program converts the same objects again; a run of them is
    looked up by identity in one step, without hashing or comparing an
    instruction.  Equal instructions share one item.  Instructions
    rebuilt per squash, such as resolved branches, are packed by
    :func:`codec_item` instead and never fill the cache.  A conversion
    that raises is not kept, so its range error is raised again on
    every call.
    """
    try:
        entries = list(map(_CONVERTED.__getitem__, map(id, instrs)))
    except KeyError:
        entries = list(map(_convert, instrs))
    return list(map(_ITEM, entries))


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
