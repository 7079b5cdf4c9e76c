"""Bit-granular I/O."""

import pytest
from hypothesis import given, strategies as st

from repro.compress.bitstream import BitReader, BitWriter


def test_write_read_single_bits():
    writer = BitWriter()
    for bit in (1, 0, 1, 1, 0):
        writer.write_bit(bit)
    reader = BitReader(writer.to_words())
    assert [reader.read_bit() for _ in range(5)] == [1, 0, 1, 1, 0]


def test_msb_first_within_word():
    writer = BitWriter()
    writer.write_bits(1, 1)
    assert writer.to_words()[0] >> 31 == 1


def test_cross_word_value():
    writer = BitWriter()
    writer.write_bits(0, 20)
    writer.write_bits(0xABCDE, 20)  # spans the word boundary
    reader = BitReader(writer.to_words(), bit_offset=20)
    assert reader.read_bits(20) == 0xABCDE


def test_bit_length_tracks():
    writer = BitWriter()
    writer.write_bits(0x3, 2)
    writer.write_bits(0x1F, 5)
    assert writer.bit_length == 7
    assert len(writer.to_words()) == 1


def test_value_too_wide_rejected():
    writer = BitWriter()
    with pytest.raises(ValueError):
        writer.write_bits(4, 2)
    with pytest.raises(ValueError):
        writer.write_bits(-1, 8)
    with pytest.raises(ValueError):
        writer.write_bits(1, -1)


def test_reader_eof():
    writer = BitWriter()
    writer.write_bits(0b101, 3)
    reader = BitReader(writer.to_words()[:0])
    with pytest.raises(EOFError):
        reader.read_bit()


def test_reader_seek_and_pos():
    writer = BitWriter()
    writer.write_bits(0b1010_1010, 8)
    reader = BitReader(writer.to_words())
    reader.read_bits(3)
    assert reader.bit_pos == 3
    reader.seek(1)
    assert reader.read_bit() == 0


def test_append_writer():
    a = BitWriter()
    a.write_bits(0b110, 3)
    b = BitWriter()
    b.write_bits(0xDEADBEEF, 32)
    b.write_bits(0b01, 2)
    a.append_writer(b)
    assert a.bit_length == 37
    reader = BitReader(a.to_words(), bit_offset=3)
    assert reader.read_bits(32) == 0xDEADBEEF
    assert reader.read_bits(2) == 0b01


@given(
    st.lists(
        st.tuples(st.integers(0, (1 << 24) - 1), st.integers(1, 24)),
        min_size=1,
        max_size=60,
    )
)
def test_roundtrip_arbitrary_sequences(pairs):
    writer = BitWriter()
    for value, width in pairs:
        writer.write_bits(value & ((1 << width) - 1), width)
    reader = BitReader(writer.to_words())
    for value, width in pairs:
        assert reader.read_bits(width) == value & ((1 << width) - 1)
    assert reader.bit_pos == writer.bit_length


@given(st.integers(0, 200), st.data())
def test_read_from_arbitrary_offset(prefix_bits, data):
    writer = BitWriter()
    for _ in range(prefix_bits):
        writer.write_bit(data.draw(st.integers(0, 1)))
    payload = data.draw(st.integers(0, (1 << 16) - 1))
    writer.write_bits(payload, 16)
    reader = BitReader(writer.to_words(), bit_offset=prefix_bits)
    assert reader.read_bits(16) == payload


@given(
    st.lists(st.tuples(st.integers(0, 255), st.integers(1, 8)), max_size=30),
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(1, 8)), max_size=30
    ),
)
def test_append_writer_aligned_fast_path(head, tail):
    """append_writer is bit-exact whether or not the destination is
    word-aligned (the aligned case takes the word-adoption fast path)."""
    flat = BitWriter()
    other = BitWriter()
    for value, width in tail:
        flat.write_bits(value & ((1 << width) - 1), width)
        other.write_bits(value & ((1 << width) - 1), width)
    aligned = BitWriter()
    aligned.append_writer(other)
    assert aligned.bit_length == flat.bit_length
    assert aligned.to_words() == flat.to_words()

    expect = BitWriter()
    combined = BitWriter()
    for value, width in head:
        expect.write_bits(value & ((1 << width) - 1), width)
        combined.write_bits(value & ((1 << width) - 1), width)
    for value, width in tail:
        expect.write_bits(value & ((1 << width) - 1), width)
    combined.append_writer(other)
    assert combined.bit_length == expect.bit_length
    assert combined.to_words() == expect.to_words()


def test_append_writer_fast_path_keeps_partial_word():
    a = BitWriter()
    b = BitWriter()
    b.write_bits(0xABC, 12)
    a.append_writer(b)  # aligned: adopts b's partial word
    a.write_bits(0x5, 3)  # must continue where b left off
    reader = BitReader(a.to_words())
    assert reader.read_bits(12) == 0xABC
    assert reader.read_bits(3) == 0x5


def test_words_are_32bit():
    writer = BitWriter()
    writer.write_bits((1 << 40) - 1, 40)
    for word in writer.to_words():
        assert 0 <= word < (1 << 32)
