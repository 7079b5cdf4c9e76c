"""Per-opcode field plans: every range check and error text kept.

``encode``, ``Instruction`` construction and the codec split read the
precomputed ``FIELD_PLANS`` instead of the field tables; a value out
of range must still raise ``check_field``'s exact ``ValueError``.
``BitWriter`` is checked against a bit-at-a-time reference writer.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.streams import codec_to_instruction, instruction_to_codec
from repro.isa.encoding import decode, encode
from repro.isa.fields import (
    FIELD_WIDTHS,
    check_field,
    field_max,
    field_min,
    to_bits,
)
from repro.isa.instruction import FIELD_PLANS, Instruction
from repro.isa.opcodes import FORMAT_FIELDS, OP_FORMAT, Op

#: (op, [(kind, attr)]) for every opcode, SBZ pads left out.
OP_FIELDS = [
    (op, [(k, a) for k, a in FORMAT_FIELDS[OP_FORMAT[op]] if a is not None])
    for op in Op
]


def _in_range(kind):
    return st.integers(field_min(kind), field_max(kind))


def _any_value(kind):
    """In range, just outside it, or far outside it."""
    lo, hi = field_min(kind), field_max(kind)
    return st.one_of(
        _in_range(kind),
        st.sampled_from((lo - 1, hi + 1)),
        st.integers(hi + 1, hi + 2**40),
        st.integers(lo - 2**40, lo - 1),
    )


def _check_error(kind, value):
    """``check_field``'s message for *value*, or None if it fits."""
    try:
        check_field(kind, value)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def instructions(draw, ops=tuple(Op)):
    """A valid instruction of any opcode in *ops*."""
    op = draw(st.sampled_from(ops))
    fields = dict(OP_FIELDS)[op]
    return Instruction(
        op, **{attr: draw(_in_range(kind)) for kind, attr in fields}
    )


def reference_encode(instr):
    """Field by field through the field tables, as before the plans."""
    word = int(instr.op)
    for kind, attr in FORMAT_FIELDS[OP_FORMAT[instr.op]]:
        value = 0 if attr is None else getattr(instr, attr)
        word = (word << FIELD_WIDTHS[kind]) | to_bits(kind, value)
    return word


def test_plans_cover_every_opcode_and_field():
    assert set(FIELD_PLANS) == set(Op)
    for op in Op:
        plans = FIELD_PLANS[op]
        assert [(p[0], p[1]) for p in plans] == list(
            FORMAT_FIELDS[OP_FORMAT[op]]
        )
        for kind, _, width, lo, hi, mask in plans:
            assert (width, lo, hi, mask) == (
                FIELD_WIDTHS[kind], field_min(kind), field_max(kind),
                (1 << FIELD_WIDTHS[kind]) - 1,
            )


@given(data=st.data())
def test_construction_raises_check_field_message(data):
    op, fields = data.draw(st.sampled_from([f for f in OP_FIELDS if f[1]]))
    kind, attr = data.draw(st.sampled_from(fields))
    value = data.draw(_any_value(kind))
    expected = _check_error(kind, value)
    if expected is None:
        assert getattr(Instruction(op, **{attr: value}), attr) == value
    else:
        with pytest.raises(ValueError) as info:
            Instruction(op, **{attr: value})
        assert str(info.value) == expected


@given(data=st.data())
def test_encoders_recheck_a_forced_out_of_range_field(data):
    op, fields = data.draw(st.sampled_from([f for f in OP_FIELDS if f[1]]))
    instr = data.draw(instructions((op,)))
    kind, attr = data.draw(st.sampled_from(fields))
    value = data.draw(_any_value(kind))
    object.__setattr__(instr, attr, value)
    expected = _check_error(kind, value)
    encoders = [encode]
    if op is not Op.ILLEGAL:  # the sentinel opcode is codec-only
        encoders.append(instruction_to_codec)
    for encoder in encoders:
        if expected is None:
            encoder(instr)
        else:
            with pytest.raises(ValueError) as info:
                encoder(instr)
            assert str(info.value) == expected


@given(instr=instructions())
def test_encode_matches_field_tables_and_round_trips(instr):
    word = encode(instr)
    assert word == reference_encode(instr)
    assert decode(word) == instr


@given(instr=instructions(tuple(op for op in Op if op is not Op.ILLEGAL)))
def test_codec_round_trip(instr):
    item = instruction_to_codec(instr)
    assert item.opcode == int(instr.op)
    assert list(item.fields) == [
        to_bits(kind, getattr(instr, attr))
        for kind, attr in dict(OP_FIELDS)[instr.op]
    ]
    assert codec_to_instruction(item) == instr


# -- BitWriter against a bit-at-a-time reference ------------------------------


class ReferenceWriter:
    """One bit at a time, MSB first, with BitWriter's two rejections."""

    def __init__(self):
        self.bits: list[int] = []

    def write_bits(self, value, nbits):
        if nbits < 0:
            raise ValueError("negative bit count")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for shift in range(nbits - 1, -1, -1):
            self.bits.append((value >> shift) & 1)

    def to_words(self):
        bits = self.bits + [0] * (-len(self.bits) % 32)
        return [
            int("".join(map(str, bits[at:at + 32])), 2)
            for at in range(0, len(bits), 32)
        ]


def _fits(nbits):
    return st.integers(0, (1 << nbits) - 1).map(lambda v: (v, nbits))


_WRITES = st.one_of(
    st.integers(0, 70).flatmap(_fits),
    # rejected: negative bit count
    st.tuples(st.integers(0, 8), st.integers(-40, -1)),
    # rejected: value wider than the count, or negative
    st.tuples(st.integers(0, 40), st.integers(1, 2**40)).map(
        lambda t: ((1 << t[0]) + t[1] - 1, t[0])
    ),
    st.tuples(st.integers(-2**40, -1), st.integers(0, 40)),
)


def _outcome(write, value, nbits):
    try:
        write(value, nbits)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(writes=st.lists(_WRITES, max_size=60))
def test_bit_writer_matches_reference(writes):
    writer, reference = BitWriter(), ReferenceWriter()
    for value, nbits in writes:
        assert _outcome(writer.write_bits, value, nbits) == _outcome(
            reference.write_bits, value, nbits
        )
        assert writer.bit_length == len(reference.bits)
    assert writer.to_words() == reference.to_words()
    reader = BitReader(writer.to_words())
    assert [reader.read_bit() for _ in reference.bits] == reference.bits
