"""Canonical Huffman codes (Section 3 of the paper).

A canonical Huffman code assigns, to the ``N[i]`` symbols that received
an ``i``-bit Huffman codeword, the consecutive ``i``-bit values
``b_i, b_i + 1, ..., b_i + N[i] - 1`` where::

    b_1 = 0      and      b_i = 2 * (b_{i-1} + N[i-1])   for i >= 2

The decoder needs only the ``N[i]`` array and the value list ``D``
(symbols ordered by codeword value); decoding follows the paper's
DECODE loop verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compress.bitstream import BitReader, BitWriter
from repro.compress.huffman import huffman_code_lengths
from repro.errors import CodecTableError, CorruptBlobError

#: Hard cap on codeword length accepted by the (de)serialised tables.
MAX_CODE_LENGTH = 40

#: First-level width (in bits) of the table-driven decoder.  Codewords
#: no longer than this decode with a single peek + table lookup; longer
#: ones take the overflow path.  2^K table entries are built lazily per
#: code, so K trades table-build time against overflow frequency.
FAST_TABLE_BITS = 12


@dataclass(frozen=True)
class CanonicalCode:
    """A canonical Huffman code over integer symbols.

    ``counts[i]`` is ``N[i]``, the number of codewords of length ``i``
    (``counts[0]`` is always 0); ``values`` is ``D``, the symbols in
    codeword order.
    """

    counts: tuple[int, ...]
    values: tuple[int, ...]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_frequencies(cls, frequencies: dict[int, int]) -> "CanonicalCode":
        """Build the canonical code for a frequency table."""
        lengths = huffman_code_lengths(frequencies)
        return cls.from_lengths(lengths)

    @classmethod
    def from_lengths(cls, lengths: dict[int, int]) -> "CanonicalCode":
        """Build from per-symbol codeword lengths.

        The canonical ordering assigns smaller codeword values to
        symbols with shorter codes, breaking ties by symbol value.
        """
        if not lengths:
            raise ValueError("empty code")
        max_len = max(lengths.values())
        if max_len > MAX_CODE_LENGTH:
            raise ValueError(f"codeword length {max_len} exceeds limit")
        counts = [0] * (max_len + 1)
        for length in lengths.values():
            if length <= 0:
                raise ValueError("codeword lengths must be positive")
            counts[length] += 1
        ordered = sorted(zip(lengths.values(), lengths))
        return cls(
            counts=tuple(counts), values=tuple(sym for _, sym in ordered)
        )

    def __post_init__(self) -> None:
        if sum(self.counts) != len(self.values):
            raise ValueError("N[] totals do not match value list length")
        # Kraft equality must hold for a complete prefix code.
        kraft = sum(
            count / (1 << i) for i, count in enumerate(self.counts) if i
        )
        if self.values and abs(kraft - 1.0) > 1e-9 and len(self.values) > 1:
            raise ValueError(f"incomplete or overfull code (Kraft={kraft})")

    # -- derived tables ------------------------------------------------------

    @property
    def max_length(self) -> int:
        return len(self.counts) - 1

    def first_codewords(self) -> list[int]:
        """The ``b_i`` values for i = 1 .. max length (paper recurrence)."""
        firsts = []
        b = 0
        for i in range(1, len(self.counts)):
            if i == 1:
                b = 0
            else:
                b = 2 * (b + self.counts[i - 1])
            firsts.append(b)
        return firsts

    def codewords(self) -> dict[int, tuple[int, int]]:
        """Map symbol -> (codeword value, length)."""
        table: dict[int, tuple[int, int]] = {}
        firsts = self.first_codewords()
        index = 0
        for i in range(1, len(self.counts)):
            base = firsts[i - 1]
            for offset in range(self.counts[i]):
                table[self.values[index]] = (base + offset, i)
                index += 1
        return table

    # -- encode / decode -----------------------------------------------------

    def encoder(self) -> dict[int, tuple[int, int]]:
        """Precomputed symbol -> (codeword, length) map for encoding.

        Built once per code and cached (the instance is frozen and the
        table is derived purely from ``counts``/``values``).
        """
        cached = self.__dict__.get("_encoder_table")
        if cached is None:
            cached = self.codewords()
            object.__setattr__(self, "_encoder_table", cached)
        return cached

    def encode(self, writer: BitWriter, symbol: int) -> None:
        code, length = self.encoder()[symbol]
        writer.write_bits(code, length)

    def decode(self, reader: BitReader) -> int:
        """The paper's DECODE procedure, verbatim.

        ``v`` accumulates bits; ``b`` tracks the first codeword of the
        current length; ``j`` counts symbols of shorter lengths.
        """
        counts = self.counts
        max_i = len(counts) - 1
        v = 0
        b = 0
        j = 0
        i = 0
        while True:
            v = 2 * v + reader.read_bit()
            b = 2 * (b + counts[i])
            j = j + counts[i]
            i = i + 1
            if v < b + counts[i]:
                return self.values[j + v - b]
            if i >= max_i:
                raise CorruptBlobError(
                    "corrupt bitstream: ran past longest code",
                    bit_offset=reader.bit_pos,
                )

    # -- table-driven decode -------------------------------------------------
    #
    # The reference DECODE above pulls one bit per iteration; a real
    # decoder peeks a K-bit chunk and resolves codewords of length <= K
    # with one table lookup ("MIPS code compression" uses the same
    # trick).  The tables below feed the codec's table loop
    # (ProgramCodec._decode_region_table), which decodes the same
    # symbols and consumes the same number of bits as DECODE, so every
    # modelled per-bit cost stays unchanged.

    def decode_table(
        self, table_bits: int | None = None
    ) -> tuple[int, list[tuple[int, int] | None]]:
        """The first-level lookup table, built lazily and cached.

        Returns ``(K, table)`` where ``table[prefix]`` is
        ``(symbol, length)`` for every K-bit *prefix* whose leading bits
        form a codeword of length <= K, and ``None`` where the codeword
        is longer than K (the overflow path handles those).
        """
        if table_bits is None:
            table_bits = FAST_TABLE_BITS
        k = max(1, min(table_bits, self.max_length))
        tables = self.__dict__.get("_decode_tables")
        if tables is None:
            tables = {}
            object.__setattr__(self, "_decode_tables", tables)
        cached = tables.get(k)
        if cached is None:
            table: list[tuple[int, int] | None] = [None] * (1 << k)
            firsts = self.first_codewords()
            index = 0
            for length in range(1, len(self.counts)):
                base = firsts[length - 1]
                for offset in range(self.counts[length]):
                    symbol = self.values[index]
                    index += 1
                    if length > k:
                        continue
                    start = (base + offset) << (k - length)
                    entry = (symbol, length)
                    for prefix in range(start, start + (1 << (k - length))):
                        table[prefix] = entry
            cached = (k, table)
            tables[k] = cached
        return cached

    def overflow_tables(self) -> tuple[list[int], list[int]]:
        """``(firsts, leads)`` for decoding codewords longer than the
        first-level table: ``firsts[L-1]`` is the first codeword of
        length L, ``leads[L]`` the number of symbols with codewords
        shorter than L (the paper's ``j``)."""
        cached = self.__dict__.get("_overflow")
        if cached is None:
            firsts = self.first_codewords()
            leads = [0] * (len(self.counts) + 1)
            for length in range(1, len(self.counts) + 1):
                leads[length] = leads[length - 1] + self.counts[length - 1]
            cached = (firsts, leads)
            object.__setattr__(self, "_overflow", cached)
        return cached

    # -- serialisation -------------------------------------------------------

    def serialise(self, writer: BitWriter, value_bits: int) -> None:
        """Write the code representation and value list to *writer*.

        Layout: 6 bits max length, then ``N[i]`` (16 bits each, i = 1 ..
        max length), then the ``D`` array with each value in
        *value_bits* bits.  This is the space the compressed program
        pays for its tables.
        """
        writer.write_bits(self.max_length, 6)
        for i in range(1, self.max_length + 1):
            if self.counts[i] >= (1 << 16):
                raise ValueError("too many codewords of one length")
            writer.write_bits(self.counts[i], 16)
        for value in self.values:
            writer.write_bits(value, value_bits)

    @classmethod
    def deserialise(cls, reader: BitReader, value_bits: int) -> "CanonicalCode":
        """Inverse of :meth:`serialise`.

        Structurally invalid tables (over-long codes, N[]/D mismatches,
        Kraft violations) raise :class:`~repro.errors.CodecTableError`.
        """
        max_length = reader.read_bits(6)
        if max_length == 0 or max_length > MAX_CODE_LENGTH:
            raise CodecTableError(
                f"corrupt tables: codeword length {max_length} outside "
                f"[1, {MAX_CODE_LENGTH}]",
                bit_offset=reader.bit_pos,
            )
        counts = [0] + [reader.read_bits(16) for _ in range(max_length)]
        total = sum(counts)
        values = tuple(reader.read_bits(value_bits) for _ in range(total))
        try:
            return cls(counts=tuple(counts), values=values)
        except CodecTableError:
            raise
        except ValueError as exc:
            raise CodecTableError(
                f"corrupt tables: {exc}", bit_offset=reader.bit_pos
            ) from exc

    def serialised_bits(self, value_bits: int) -> int:
        """Exact size of the serialised tables, in bits."""
        return 6 + 16 * self.max_length + value_bits * len(self.values)
