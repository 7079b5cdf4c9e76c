"""The table-driven decode path agrees bit-for-bit with DECODE.

The paper-verbatim DECODE loop stays the reference implementation;
``CanonicalCode.fast_decode`` (first-level K-bit table + overflow) must
return the same symbol and consume the same number of bits on every
stream, including codes whose longest codeword exceeds the table width.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.canonical import FAST_TABLE_BITS, CanonicalCode
from repro.compress.codec import CodecConfig, ProgramCodec
from repro.compress.streams import CodecInstr
from repro.isa.fields import FieldKind


def _roundtrip_check(code: CanonicalCode, symbols, table_bits=None):
    writer = BitWriter()
    for symbol in symbols:
        code.encode(writer, symbol)
    words = writer.to_words()
    reference = BitReader(words)
    fast = BitReader(words)
    for symbol in symbols:
        assert code.decode(reference) == symbol
        assert code.fast_decode(fast, table_bits) == symbol
        assert fast.bit_pos == reference.bit_pos, (
            "table decode consumed a different number of bits"
        )


@given(
    st.dictionaries(
        st.integers(0, 300),
        st.integers(1, 10_000),
        min_size=1,
        max_size=80,
    ),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_fast_decode_matches_reference(frequencies, data):
    code = CanonicalCode.from_frequencies(frequencies)
    alphabet = sorted(frequencies)
    symbols = data.draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=200)
    )
    _roundtrip_check(code, symbols)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fast_decode_overflow_path(data):
    """Codes deeper than the first-level table exercise the overflow
    path: lengths 1..L-1 plus two codewords of length L-1 satisfy Kraft
    exactly, and table_bits < L forces long codewords through it."""
    depth = data.draw(st.integers(6, 20))
    lengths = {symbol: symbol for symbol in range(1, depth)}
    lengths[depth] = depth - 1  # second codeword at the deepest level
    code = CanonicalCode.from_lengths(lengths)
    table_bits = data.draw(st.integers(1, depth - 2))
    symbols = data.draw(
        st.lists(
            st.sampled_from(sorted(lengths)), min_size=1, max_size=150
        )
    )
    assert code.max_length > table_bits
    _roundtrip_check(code, symbols, table_bits=table_bits)


def test_fast_decode_beyond_default_table_width():
    depth = FAST_TABLE_BITS + 4
    lengths = {symbol: symbol for symbol in range(1, depth)}
    lengths[depth] = depth - 1
    code = CanonicalCode.from_lengths(lengths)
    assert code.max_length == FAST_TABLE_BITS + 3
    _roundtrip_check(code, sorted(lengths) * 5)


def test_single_symbol_code():
    code = CanonicalCode.from_lengths({7: 1})
    _roundtrip_check(code, [7] * 10)


def test_decode_table_cached_per_width():
    code = CanonicalCode.from_frequencies({1: 5, 2: 3, 3: 1})
    assert code.decode_table() is code.decode_table()
    assert code.decode_table(2) is code.decode_table(2)
    assert code.encoder() is code.encoder()


def test_fast_decode_rejects_corrupt_stream():
    # Incomplete codes are rejected at construction, so build a valid
    # 2-symbol code and feed it a stream of ones past the longest code:
    # both decoders must fail rather than loop.
    code = CanonicalCode.from_lengths({0: 1, 1: 1})
    assert code.fast_decode(BitReader([0x80000000])) == 1
    truncated = BitReader([], bit_offset=0)
    with pytest.raises(EOFError):
        code.fast_decode(truncated)


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
