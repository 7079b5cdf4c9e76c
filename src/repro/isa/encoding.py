"""Binary encoding of instructions to and from 32-bit words."""

from __future__ import annotations

from repro.isa.fields import FIELD_WIDTHS, FieldKind, check_field
from repro.isa.instruction import FIELD_PLANS, Instruction
from repro.isa.opcodes import Op

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
#: Bytes per instruction word; code sizes in bytes use this.
WORD_BYTES = 4


class DecodeError(Exception):
    """Raised when a word does not decode to a legal instruction."""


_VALID_OPCODES = {int(op): op for op in Op}
#: Bit position of the opcode field.
_OPCODE_SHIFT = WORD_BITS - FIELD_WIDTHS[FieldKind.OPCODE]


def encode(instr: Instruction) -> int:
    """Pack *instr* into its 32-bit word.

    Every field is range-checked again: an instruction forced out of
    range after construction raises ``check_field``'s ``ValueError``.
    """
    word = int(instr.op)
    for kind, attr, width, lo, hi, mask in FIELD_PLANS[instr.op]:
        value = 0 if attr is None else getattr(instr, attr)
        if not lo <= value <= hi:
            check_field(kind, value)
        word = (word << width) | (value & mask)
    return word


def _field_slots(op: Op) -> tuple[int, tuple[tuple[FieldKind, int, int, int, int], ...]]:
    """*op*'s word with every field zero, and (kind, bit position, min,
    max, mask) of each field that holds a value, in format order."""
    slots = []
    shift = _OPCODE_SHIFT
    for kind, attr, width, lo, hi, mask in FIELD_PLANS[op]:
        shift -= width
        if attr is not None:
            slots.append((kind, shift, lo, hi, mask))
    return int(op) << _OPCODE_SHIFT, tuple(slots)


#: :func:`_field_slots` of every opcode.
FIELD_SLOTS = {op: _field_slots(op) for op in FIELD_PLANS}


def encode_fields(op: Op, *values: int) -> int:
    """The word of *op* with *values* in its fields (format order, the
    SBZ pad left out): :func:`encode` of that instruction, with the same
    ``ValueError`` for a value out of range, without building it."""
    word, slots = FIELD_SLOTS[op]
    if len(values) != len(slots):
        raise TypeError(f"{op.name} takes {len(slots)} field values")
    for (kind, shift, lo, hi, mask), value in zip(slots, values):
        if not lo <= value <= hi:
            check_field(kind, value)
        word |= (value & mask) << shift
    return word


def decode(word: int) -> Instruction:
    """Unpack a 32-bit word into an :class:`Instruction`.

    Raises :class:`DecodeError` for reserved opcodes (including the
    sentinel, whose opcode is :data:`Op.ILLEGAL` -- callers that want to
    treat the sentinel as data must check for it first).
    """
    if not 0 <= word <= WORD_MASK:
        raise DecodeError(f"word {word:#x} is not a 32-bit value")
    opbits = word >> _OPCODE_SHIFT
    op = _VALID_OPCODES.get(opbits)
    if op is None:
        raise DecodeError(f"unknown opcode {opbits:#04x} in word {word:#010x}")
    kwargs: dict[str, int] = {}
    shift = _OPCODE_SHIFT
    for _, attr, width, _, hi, mask in FIELD_PLANS[op]:
        shift -= width
        bits = (word >> shift) & mask
        if attr is None:
            if bits != 0:
                raise DecodeError(
                    f"non-zero SBZ field in word {word:#010x}"
                )
        else:
            # Above the kind's max only for signed kinds: sign-extend.
            kwargs[attr] = bits - mask - 1 if bits > hi else bits
    if shift != 0:
        raise DecodeError(f"format of {op.name} does not fill 32 bits")
    return Instruction(op, **kwargs)


def encode_program(instrs: list[Instruction]) -> list[int]:
    """Encode a sequence of instructions to words."""
    return [encode(i) for i in instrs]


def decode_program(words: list[int]) -> list[Instruction]:
    """Decode a sequence of words to instructions."""
    return [decode(w) for w in words]
