"""CRC32 integrity metadata over the compressed areas of an image.

A squashed image carries three areas the runtime decompressor trusts
blindly: the serialized codec tables, the merged compressed stream, and
the function offset table.  This module computes (at rewrite time) and
re-checks (at load time and before every first decode of a region) CRC32
checksums over each of them, plus one per region over the exact bit
range the region occupies in the stream -- so a single flipped bit
anywhere in the compressed image is *detected* before the decoder can
materialise wrong instructions into the buffer.

The metadata travels with the :class:`~repro.core.descriptor.
SquashDescriptor` (it is the squashed executable's header) and survives
``save``/``load_squashed`` via the descriptor JSON.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import Sequence
from zlib import crc32

from repro.errors import CodecTableError, CorruptBlobError, OffsetTableError

__all__ = [
    "RegionIntegrity",
    "ContextIntegrity",
    "ImageIntegrity",
    "words_crc",
    "bytes_crc",
    "bit_range_crc",
    "blob_integrity",
    "check_offset_table",
    "check_area_crc",
    "check_context_seals",
]


def words_crc(words: Sequence[int]) -> int:
    """CRC32 over a 32-bit word sequence (little-endian byte order)."""
    return crc32(array("I", [w & 0xFFFFFFFF for w in words]).tobytes())


def bytes_crc(data: bytes) -> int:
    """CRC32 over raw bytes (the seal used by on-disk cache entries)."""
    return crc32(data)


def bit_range_crc(words: Sequence[int], start_bit: int, end_bit: int) -> int:
    """CRC32 over the MSB-first bit range ``[start_bit, end_bit)``.

    *words* may be any word-indexable source (a list, or the runtime's
    view of machine memory); a trailing partial byte is left-aligned.
    The covering words are read once, by index and masked to 32 bits,
    and the range is cut out of them as one integer.
    """
    if not 0 <= start_bit <= end_bit:
        raise ValueError(f"bad bit range [{start_bit}, {end_bit})")
    nbits = end_bit - start_bit
    if not nbits:
        return crc32(b"")
    first = start_bit >> 5
    last = (end_bit - 1) >> 5
    covering = [words[i] & 0xFFFFFFFF for i in range(first, last + 1)]
    value = int.from_bytes(
        struct.pack(f">{len(covering)}I", *covering), "big"
    )
    value = (value >> ((last + 1) * 32 - end_bit)) & ((1 << nbits) - 1)
    pad = -nbits % 8
    return crc32((value << pad).to_bytes((nbits + pad) // 8, "big"))


@dataclass
class RegionIntegrity:
    """Checksum of one region's exact bit range in the stream."""

    start_bit: int
    end_bit: int
    crc: int


@dataclass
class ContextIntegrity:
    """Checksum of one context table's bit range in the table area.

    ``kind`` is the stream's :class:`~repro.isa.fields.FieldKind` value
    (stored as an int so the descriptor stays JSON-plain) and ``ctx``
    the context id within that stream; order-0 streams contribute one
    entry with ``ctx`` 0.  A per-context seal lets the verifier name
    *which* table of a context-modeled codec is damaged instead of just
    failing the whole-area CRC.
    """

    kind: int
    ctx: int
    start_bit: int
    end_bit: int
    crc: int


@dataclass
class ImageIntegrity:
    """Checksums over every trusted area of a squashed image."""

    table_crc: int
    stream_crc: int
    offset_table_crc: int
    table_bits: int
    stream_bits: int
    regions: list[RegionIntegrity] = field(default_factory=list)
    #: Per-context seals over the table area (empty for pre-CodecModel
    #: images, which then only get the whole-area ``table_crc`` check).
    contexts: list[ContextIntegrity] = field(default_factory=list)


def blob_integrity(blob) -> ImageIntegrity:
    """Integrity metadata for a :class:`~repro.compress.codec.
    CompressedBlob` (computed once, at rewrite time)."""
    offsets = blob.region_bit_offsets
    regions = []
    for index, start in enumerate(offsets):
        end = (
            offsets[index + 1]
            if index + 1 < len(offsets)
            else blob.stream_bits
        )
        regions.append(
            RegionIntegrity(
                start_bit=start,
                end_bit=end,
                crc=bit_range_crc(blob.stream_words, start, end),
            )
        )
    contexts = [
        ContextIntegrity(
            kind=kind,
            ctx=ctx,
            start_bit=start,
            end_bit=end,
            crc=bit_range_crc(blob.table_words, start, end),
        )
        for kind, ctx, start, end in getattr(blob, "context_spans", ())
    ]
    return ImageIntegrity(
        table_crc=words_crc(blob.table_words),
        stream_crc=words_crc(blob.stream_words),
        offset_table_crc=words_crc(offsets),
        table_bits=blob.table_bits,
        stream_bits=blob.stream_bits,
        regions=regions,
        contexts=contexts,
    )


def check_offset_table(
    offsets: Sequence[int],
    stream_bits: int,
    integrity: ImageIntegrity | None = None,
    fingerprint: str | None = None,
) -> None:
    """Validate the in-image function offset table.

    Offsets must be strictly increasing (every region ends with at
    least a one-bit sentinel) and in ``[0, stream_bits)``; with
    *integrity*, the table must also match its stored CRC.
    """
    previous = -1
    for index, offset in enumerate(offsets):
        if offset <= previous:
            raise OffsetTableError(
                f"offset table not monotonic at entry {index}: "
                f"{offset} after {previous}",
                region=index,
                bit_offset=offset,
                fingerprint=fingerprint,
            )
        if not 0 <= offset < max(stream_bits, 1):
            raise OffsetTableError(
                f"offset table entry {index} = {offset} outside the "
                f"{stream_bits}-bit stream",
                region=index,
                bit_offset=offset,
                fingerprint=fingerprint,
            )
        previous = offset
    if integrity is not None and words_crc(offsets) != integrity.offset_table_crc:
        raise OffsetTableError(
            "offset table CRC mismatch", fingerprint=fingerprint
        )


def check_context_seals(
    table_words: Sequence[int],
    integrity: ImageIntegrity,
    fingerprint: str | None = None,
) -> None:
    """Check every per-context table seal of a CodecModel image.

    Walked *before* the whole-area table CRC so a damaged context is
    named by stream and context id instead of collapsing into an
    anonymous area mismatch.  No-op for pre-CodecModel images (empty
    ``contexts``).
    """
    from repro.isa.fields import FieldKind

    table_bits = len(table_words) * 32
    for record in integrity.contexts:
        try:
            kind_name = FieldKind(record.kind).name
        except ValueError:
            kind_name = f"kind {record.kind}"
        if not 0 <= record.start_bit <= record.end_bit <= table_bits:
            raise CodecTableError(
                f"context table of stream {kind_name} spans bits "
                f"[{record.start_bit}, {record.end_bit}) outside the "
                f"{table_bits}-bit table area",
                context=record.ctx,
                bit_offset=record.start_bit,
                fingerprint=fingerprint,
            )
        actual = bit_range_crc(
            table_words, record.start_bit, record.end_bit
        )
        if actual != record.crc:
            raise CodecTableError(
                f"context table seal mismatch for stream {kind_name}: "
                f"stored {record.crc:#010x}, computed {actual:#010x}",
                context=record.ctx,
                bit_offset=record.start_bit,
                fingerprint=fingerprint,
            )


def check_area_crc(
    words: Sequence[int],
    expected: int,
    what: str,
    error_cls: type = CorruptBlobError,
    fingerprint: str | None = None,
) -> None:
    """Raise *error_cls* unless CRC32(words) equals *expected*."""
    actual = words_crc(words)
    if actual != expected:
        raise error_cls(
            f"{what} CRC mismatch: stored {expected:#010x}, "
            f"computed {actual:#010x}",
            fingerprint=fingerprint,
        )
