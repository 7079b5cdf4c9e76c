"""Bit-granular I/O over 32-bit word arrays.

The compressed code lives in the image as 32-bit words; the function
offset table holds *bit* offsets into it (regions start at arbitrary
bit positions).  Bits are written and read most-significant-first
within each word.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.errors import TruncatedStreamError

WORD_BITS = 32


class BitWriter:
    """Accumulates bits MSB-first into 32-bit words."""

    def __init__(self) -> None:
        self._words: list[int] = []
        self._current = 0
        self._filled = 0  # bits in _current
        self._length = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._length

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit & 1, 1)

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low *nbits* of *value*, MSB first."""
        if nbits < 0:
            raise ValueError("negative bit count")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._length += nbits
        # _current holds the _filled (< 32) bits not yet in a word.
        current = (self._current << nbits) | value
        filled = self._filled + nbits
        while filled >= WORD_BITS:
            filled -= WORD_BITS
            self._words.append(current >> filled)
            current &= (1 << filled) - 1
        self._filled = filled
        self._current = current

    def append_writer(self, other: "BitWriter") -> None:
        """Append all bits of *other* (used to concatenate regions)."""
        if self._filled == 0:
            # Word-aligned fast path: adopt the other writer's words
            # wholesale instead of re-splitting each through write_bits.
            self._words.extend(other._words)
            self._current = other._current
            self._filled = other._filled
            self._length += other.bit_length
            return
        remaining = other.bit_length
        for word in other._words:
            take = min(remaining, WORD_BITS)
            self.write_bits(word >> (WORD_BITS - take), take)
            remaining -= take
        if remaining > 0:
            self.write_bits(other._current, remaining)

    def to_words(self) -> list[int]:
        """The bits as whole words, zero-padded at the end."""
        words = list(self._words)
        if self._filled:
            words.append(self._current << (WORD_BITS - self._filled))
        return words


def bits_to_words(bits: str) -> list[int]:
    """The ``"0"``/``"1"`` string *bits* as MSB-first 32-bit words,
    zero-padded at the end: what :meth:`BitWriter.to_words` returns
    after the same bits were written."""
    nwords = -(-len(bits) // WORD_BITS)
    if not nwords:
        return []
    value = int(bits, 2) << (nwords * WORD_BITS - len(bits))
    return list(
        struct.unpack(f">{nwords}I", value.to_bytes(4 * nwords, "big"))
    )


class BitReader:
    """Reads bits MSB-first from a word sequence, from any bit offset.

    ``words`` may be any indexable word source -- including a slice of
    VM memory, which is how the runtime decompressor reads the
    compressed area of the image.

    Any attempt to read past the end of the stream raises
    :class:`~repro.errors.TruncatedStreamError`, so a truncated
    compressed blob can never silently decode as trailing zeros.
    """

    def __init__(self, words: Sequence[int], bit_offset: int = 0):
        self._words = words
        self._pos = bit_offset

    @property
    def bit_pos(self) -> int:
        """Current absolute bit position."""
        return self._pos

    def seek(self, bit_offset: int) -> None:
        self._pos = bit_offset

    def read_bit(self) -> int:
        pos = self._pos
        word_index, bit_index = divmod(pos, WORD_BITS)
        try:
            word = self._words[word_index]
        except IndexError:
            raise TruncatedStreamError(
                f"bit position {pos} past end of stream", bit_offset=pos
            ) from None
        self._pos = pos + 1
        return (word >> (WORD_BITS - 1 - bit_index)) & 1

    def read_bits(self, nbits: int) -> int:
        """Read *nbits* bits MSB-first as an unsigned integer."""
        value = 0
        remaining = nbits
        while remaining > 0:
            word_index, bit_index = divmod(self._pos, WORD_BITS)
            take = min(remaining, WORD_BITS - bit_index)
            try:
                word = self._words[word_index]
            except IndexError:
                raise TruncatedStreamError(
                    f"bit position {self._pos} past end of stream",
                    bit_offset=self._pos,
                ) from None
            chunk = (word >> (WORD_BITS - bit_index - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._pos += take
            remaining -= take
        return value
