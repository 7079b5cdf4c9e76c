"""Bit-granular I/O over 32-bit word arrays.

The compressed code lives in the image as 32-bit words; the function
offset table holds *bit* offsets into it (regions start at arbitrary
bit positions).  Bits are written and read most-significant-first
within each word.
"""

from __future__ import annotations

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


class BitReader:
    """Reads bits MSB-first from a word sequence, from any bit offset.

    ``words`` may be any indexable word source -- including a slice of
    VM memory, which is how the runtime decompressor reads the
    compressed area of the image.

    Beyond the consuming ``read_bit``/``read_bits``, the reader offers
    buffered ``peek_bits``/``skip_bits`` primitives: ``peek_bits``
    returns upcoming bits without consuming them (zero-padded past the
    end of the stream) through a cached multi-word window, which is what
    makes table-driven Huffman decoding fast.

    Zero-padding is a *lookahead* convenience only: any attempt to
    consume bits past the end of the stream -- ``read_bit``,
    ``read_bits``, or ``skip_bits`` -- raises
    :class:`~repro.errors.TruncatedStreamError`, so a truncated
    compressed blob can never silently decode as trailing zeros.
    """

    #: Words held in the peek window; bounds the largest peek at
    #: ``(_WINDOW_WORDS - 1) * WORD_BITS`` bits from any bit offset.
    _WINDOW_WORDS = 3

    def __init__(self, words: Sequence[int], bit_offset: int = 0):
        self._words = words
        self._pos = bit_offset
        # Cached peek window: _WINDOW_WORDS consecutive words starting
        # at word index _win_index (zero-padded past EOF).  The stream
        # is immutable while being read, so the window never goes stale.
        self._win_index = -1
        self._win = 0
        self._total_bits: int | None = None

    @property
    def bit_pos(self) -> int:
        """Current absolute bit position."""
        return self._pos

    def seek(self, bit_offset: int) -> None:
        self._pos = bit_offset

    def _fill_window(self, word_index: int) -> None:
        win = 0
        words = self._words
        for index in range(word_index, word_index + self._WINDOW_WORDS):
            try:
                word = words[index]
            except IndexError:
                word = 0
            win = (win << WORD_BITS) | word
        self._win_index = word_index
        self._win = win

    def peek_bits(self, nbits: int) -> int:
        """The next *nbits* bits without consuming them.

        Bits past the end of the stream read as zero; consuming them
        (via ``read_bits`` or ``skip_bits``) still raises ``EOFError``.
        """
        max_peek = (self._WINDOW_WORDS - 1) * WORD_BITS
        if not 0 <= nbits <= max_peek:
            raise ValueError(f"peek width {nbits} not in [0, {max_peek}]")
        word_index, bit_index = divmod(self._pos, WORD_BITS)
        if word_index != self._win_index:
            self._fill_window(word_index)
        shift = self._WINDOW_WORDS * WORD_BITS - bit_index - nbits
        return (self._win >> shift) & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        """Advance past *nbits* bits (previously peeked)."""
        if nbits < 0:
            raise ValueError("negative bit count")
        pos = self._pos + nbits
        total = self._total_bits
        if total is None:
            total = self._total_bits = len(self._words) * WORD_BITS
        if pos > total:
            raise TruncatedStreamError(
                f"bit position {pos} past end of stream", bit_offset=pos
            )
        self._pos = pos

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
