"""The table-driven region decoder agrees bit-for-bit with DECODE.

The paper-verbatim DECODE loop (the ``reference`` backend) stays the
oracle; the one fast decoder, the ``table`` backend's first-level K-bit
table + overflow loop, must decode the same items, consume the same
number of bits and fail with the same error at the same bit offset on
every region -- including codes whose longest codeword exceeds the
table width (``FAST_TABLE_BITS``), single-symbol codes, and opcode
streams conditioned on the previous opcode.

MediaBench codes stay below the table width, so these cases use
hand-built codecs and encode their regions directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitstream import BitWriter
from repro.compress.canonical import FAST_TABLE_BITS, CanonicalCode
from repro.compress.codec import CodecConfig, ProgramCodec
from repro.compress.model import StreamModel, context_domain
from repro.compress.streams import (
    OP_SENTINEL,
    CodecInstr,
    codec_fields,
    sentinel_item,
)
from repro.errors import CorruptBlobError, TruncatedStreamError
from repro.isa.fields import FIELD_WIDTHS, FieldKind


def _valid_opcodes() -> list[int]:
    ops = []
    for op in range(64):
        if op == OP_SENTINEL:
            continue
        try:
            codec_fields(op)
        except ValueError:
            continue
        ops.append(op)
    return ops


#: Opcodes of the codec alphabet, sentinel excluded.
OPCODES = _valid_opcodes()

#: The opcode whose only field is PALF (26 bits wide): room for a deep
#: field code.
OP_PALF = 0x00


def _deep_lengths(symbols, depth):
    """Codeword lengths 1 .. depth-2 plus two of length depth-1 over the
    first *depth* of *symbols*: a complete code whose longest codeword
    is depth-1 bits."""
    lengths = {symbol: i + 1 for i, symbol in enumerate(symbols[: depth - 1])}
    lengths[symbols[depth - 1]] = depth - 1
    return lengths


def _deep_opcode_lengths(order, depth, sentinel_at):
    """:func:`_deep_lengths` over *order* with the sentinel spliced in
    at index *sentinel_at* (< *depth*)."""
    symbols = [*order[:sentinel_at], OP_SENTINEL, *order[sentinel_at:]]
    return _deep_lengths(symbols, depth)


def _codec(opcode_code, field_codes=None, op_model=None):
    """A huffman ProgramCodec over every stream: *opcode_code* for the
    opcode stream, *field_codes* where given and a two-symbol code over
    {0, 1} elsewhere; *op_model* conditions the opcode stream."""
    field_codes = field_codes or {}
    codes = {FieldKind.OPCODE: opcode_code}
    for kind in FIELD_WIDTHS:
        if kind is not FieldKind.OPCODE:
            codes[kind] = field_codes.get(
                kind, CanonicalCode.from_lengths({0: 1, 1: 1})
            )
    models = {}
    if op_model is not None:
        assert op_model.tables[0] is opcode_code
        models[FieldKind.OPCODE] = op_model
    return ProgramCodec(codes=codes, models=models)


def _encode(codec, regions):
    """The merged stream of *regions* (sentinel appended to each) and
    each region's starting bit offset."""
    op_model = codec.models.get(FieldKind.OPCODE)
    writer = BitWriter()
    offsets = []
    for region in regions:
        offsets.append(writer.bit_length)
        prev = OP_SENTINEL
        for item in [*region, sentinel_item()]:
            if op_model is not None:
                op_code = op_model.tables[op_model.context_of(prev)]
            else:
                op_code = codec.codes[FieldKind.OPCODE]
            op_code.encode(writer, item.opcode)
            prev = item.opcode
            for kind, value in zip(codec_fields(item.opcode), item.fields):
                codec.codes[kind].encode(writer, value)
    return writer.to_words(), offsets


def _item(opcode, field_value=0):
    """*opcode* with every field at *field_value*."""
    return CodecInstr(
        opcode=opcode,
        fields=tuple(field_value for _ in codec_fields(opcode)),
    )


def _outcome(codec, words, offset, backend):
    try:
        return ("ok", codec.decode_region(words, offset, backend=backend))
    except Exception as exc:  # noqa: BLE001 - shape-compared below
        return (
            "error",
            (type(exc), getattr(exc, "bit_offset", None), str(exc)),
        )


def _assert_table_matches_reference(codec, words, offsets):
    outcomes = []
    for offset in offsets:
        reference = _outcome(codec, words, offset, "reference")
        assert _outcome(codec, words, offset, "table") == reference
        outcomes.append(reference)
    return outcomes


def _assert_round_trip(codec, regions):
    words, offsets = _encode(codec, regions)
    outcomes = _assert_table_matches_reference(codec, words, offsets)
    assert [result[0] for _, result in outcomes] == [
        list(region) for region in regions
    ]
    return words, offsets


def _chunks(items, sizes):
    regions, start = [], 0
    for size in sizes:
        regions.append(items[start : start + size])
        start += size
    regions.append(items[start:])
    return regions


@given(
    st.dictionaries(
        st.integers(0, 300),
        st.integers(1, 10_000),
        min_size=1,
        max_size=80,
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_table_decode_matches_reference(frequencies, data):
    """A random field code, region by region: same items, same bits."""
    code = CanonicalCode.from_frequencies(frequencies)
    codec = _codec(
        CanonicalCode.from_lengths({OP_PALF: 1, OP_SENTINEL: 1}),
        {FieldKind.PALF: code},
    )
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(frequencies)), max_size=200)
    )
    sizes = data.draw(st.lists(st.integers(0, 60), max_size=3))
    items = [CodecInstr(opcode=OP_PALF, fields=(s,)) for s in symbols]
    _assert_round_trip(codec, _chunks(items, sizes))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_decode_overflow_path(data):
    """Codes deeper than the first-level table take the overflow path:
    an opcode code, a field code, or a conditioned opcode stream whose
    context tables are deeper than ``FAST_TABLE_BITS``."""
    stream = data.draw(st.sampled_from(("opcode", "field", "context")))
    if stream == "field":
        depth = data.draw(st.integers(FAST_TABLE_BITS + 2, 24))
        lengths = _deep_lengths(list(range(1, depth + 1)), depth)
        code = CanonicalCode.from_lengths(lengths)
        codec = _codec(
            CanonicalCode.from_lengths({OP_PALF: 1, OP_SENTINEL: 1}),
            {FieldKind.PALF: code},
        )
        pool = [CodecInstr(opcode=OP_PALF, fields=(s,)) for s in lengths]
        deepest = code.max_length
    else:
        depth = data.draw(st.integers(FAST_TABLE_BITS + 2, len(OPCODES) + 1))
        order = data.draw(st.permutations(OPCODES))
        lengths = _deep_opcode_lengths(
            order, depth, data.draw(st.integers(0, depth - 1))
        )
        code = CanonicalCode.from_lengths(lengths)
        op_model = None
        if stream == "context":
            # A second context over the same opcodes, lengths reversed:
            # the previous opcode's parity picks the table.
            symbols = sorted(lengths, key=lengths.get)
            other = CanonicalCode.from_lengths(
                _deep_lengths(symbols[::-1], depth)
            )
            mapping = tuple(
                prev % 2 for prev in range(context_domain(FieldKind.OPCODE))
            )
            op_model = StreamModel(FieldKind.OPCODE, (code, other), mapping)
        codec = _codec(code, op_model=op_model)
        pool = [_item(op, 1) for op in lengths if op != OP_SENTINEL]
        deepest = code.max_length
    assert deepest > FAST_TABLE_BITS
    regions = data.draw(
        st.lists(
            st.lists(st.sampled_from(pool), max_size=60),
            min_size=1,
            max_size=3,
        )
    )
    _assert_round_trip(codec, regions)


def test_table_decode_beyond_default_table_width():
    depth = FAST_TABLE_BITS + 4
    field = CanonicalCode.from_lengths(
        _deep_lengths(list(range(1, depth + 1)), depth)
    )
    # PALF gets the one-bit codeword, the sentinel the deepest one.
    order = [OP_PALF, *(op for op in OPCODES[::-1] if op != OP_PALF)]
    opcode = CanonicalCode.from_lengths(
        _deep_opcode_lengths(order, depth, depth - 1)
    )
    assert field.max_length == opcode.max_length == FAST_TABLE_BITS + 3
    codec = _codec(opcode, {FieldKind.PALF: field})
    palf = [CodecInstr(opcode=OP_PALF, fields=(s,)) for s in field.values]
    others = [
        _item(op, 1)
        for op in opcode.values
        if op not in (OP_SENTINEL, OP_PALF)
    ]
    _assert_round_trip(codec, [palf * 5, others * 5, [], palf + others])


def test_single_symbol_code():
    """A one-symbol code spends one bit per symbol, in both loops."""
    codec = _codec(
        CanonicalCode.from_lengths({OP_PALF: 1, OP_SENTINEL: 1}),
        {FieldKind.PALF: CanonicalCode.from_lengths({7: 1})},
    )
    words, offsets = _assert_round_trip(
        codec, [[CodecInstr(opcode=OP_PALF, fields=(7,))] * 10]
    )
    assert codec.decode_region(words, offsets[0])[1] == 21
    # An opcode stream holding only the sentinel: empty regions.
    only_sentinel = _codec(CanonicalCode.from_lengths({OP_SENTINEL: 1}))
    words, offsets = _assert_round_trip(only_sentinel, [[], [], []])
    assert offsets == [0, 1, 2]


def test_decode_table_cached_per_width():
    code = CanonicalCode.from_frequencies({1: 5, 2: 3, 3: 1})
    assert code.decode_table() is code.decode_table()
    assert code.decode_table(2) is code.decode_table(2)
    assert code.encoder() is code.encoder()


def test_table_decode_rejects_corrupt_stream():
    """Both loops fail rather than loop, with the same error at the
    same bit offset: a bit no codeword starts with, a stream cut
    inside a codeword longer than the table, and an empty stream."""
    # The PALF code's only codeword is "0": a 1 bit runs past it.
    codec = _codec(
        CanonicalCode.from_lengths({OP_PALF: 1, OP_SENTINEL: 1}),
        {FieldKind.PALF: CanonicalCode.from_lengths({7: 1})},
    )
    region = [CodecInstr(opcode=OP_PALF, fields=(7,))] * 4
    words, offsets = _encode(codec, [region])
    corrupt = [words[0] | (1 << 30)]  # the first PALF codeword
    (outcome,) = _assert_table_matches_reference(codec, corrupt, offsets)
    assert outcome[0] == "error"
    assert outcome[1][:2] == (CorruptBlobError, 2)

    # A region ending in the deepest opcode codeword, cut one word
    # short: the overflow probe meets the end of the stream.
    depth = FAST_TABLE_BITS + 8
    opcode = CanonicalCode.from_lengths(
        _deep_opcode_lengths(OPCODES, depth, 0)
    )
    codec = _codec(opcode)
    deepest = [_item(op) for op in opcode.values[-2:] if op != OP_SENTINEL]
    words, offsets = _encode(codec, [deepest * 12])
    for cut in range(len(words)):
        outcomes = _assert_table_matches_reference(
            codec, words[:cut], offsets
        )
        assert outcomes[0][0] == "error"
        assert outcomes[0][1][0] is TruncatedStreamError

    outcomes = _assert_table_matches_reference(codec, [], [0])
    assert outcomes[0][1][0] is TruncatedStreamError
    with pytest.raises(EOFError):
        codec.decode_region([], 0, backend="table")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_deep_code_damage_parity(data):
    """Truncated or bit-flipped streams over codes deeper than the
    table fail identically in both loops."""
    depth = data.draw(st.integers(FAST_TABLE_BITS + 2, len(OPCODES) + 1))
    order = data.draw(st.permutations(OPCODES))
    opcode = CanonicalCode.from_lengths(
        _deep_opcode_lengths(
            order, depth, data.draw(st.integers(0, depth - 1))
        )
    )
    field = CanonicalCode.from_lengths(
        _deep_lengths(list(range(depth)), depth)
    )
    codec = _codec(opcode, {FieldKind.RA: field})
    pool = [
        CodecInstr(
            opcode=op,
            fields=tuple(
                depth - 1 if kind is FieldKind.RA else 1
                for kind in codec_fields(op)
            ),
        )
        for op in opcode.values
        if op != OP_SENTINEL
    ]
    regions = data.draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=30),
            min_size=1,
            max_size=3,
        )
    )
    words, offsets = _encode(codec, regions)
    damaged = list(words)
    if data.draw(st.booleans()):
        damaged = damaged[: data.draw(st.integers(0, len(words) - 1))]
    else:
        index = data.draw(st.integers(0, len(words) - 1))
        damaged[index] ^= 1 << data.draw(st.integers(0, 31))
    _assert_table_matches_reference(codec, damaged, offsets)


def test_decode_region_fast_flag_equivalent():
    """ProgramCodec.decode_region decodes identically with the table
    path on and off (items and bits consumed)."""
    regions = [
        [
            CodecInstr(opcode=0x08, fields=(1, 2, 37)),
            CodecInstr(opcode=0x10, fields=(26, 4)),
        ],
        [CodecInstr(opcode=0x08, fields=(4, 5, 1000))] * 7,
    ]
    codec, blob = ProgramCodec.build(regions, CodecConfig())
    for offset in blob.region_bit_offsets:
        slow = codec.decode_region(
            blob.stream_words, offset, backend="reference"
        )
        fast = codec.decode_region(blob.stream_words, offset, backend="table")
        assert slow == fast
