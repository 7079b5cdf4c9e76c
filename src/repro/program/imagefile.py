"""On-disk format for loaded images (a minimal executable format).

A real `squash` emits an executable file; this module gives the
reproduction the same property.  The format is little-endian 32-bit
words::

    magic 'SQIM' | version | base | entry_pc
    n_segments | per segment: name-length, name bytes (padded), start, size
    n_symbols  | per symbol:  name-length, name bytes (padded), address
    n_heads    | per head:    address, label-length, label bytes (padded)
    n_words    | memory words
    n_contexts | per context: kind, ctx, start_bit, end_bit, crc
                                        (version >= 3)
    crc32 over all preceding bytes      (version >= 2)

Version 2 appends the CRC32 footer so a bit-flipped or truncated file
is rejected at load time; version 3 adds the codec-context section --
the per-context table seals of the image's
:class:`~repro.compress.model.CodecModel` (one record per context of
each serialized stream, empty for order-0 codecs saved without seals)
-- so a squashed image is self-describing even without its descriptor
JSON.  Version-1 (no footer) and version-2 (no context section) files
still load.  Squashed images additionally need their runtime
descriptor; see :func:`repro.core.descriptor.descriptor_to_dict` and
:meth:`repro.core.pipeline.SquashResult.save`.
"""

from __future__ import annotations

import pathlib
import struct
import zlib

from repro.errors import CorruptBlobError
from repro.program.image import LoadedImage, Segment

MAGIC = 0x5351494D  # 'SQIM'
VERSION = 3
#: Oldest format version :func:`load_image` still accepts.
MIN_VERSION = 1


class ImageFormatError(CorruptBlobError):
    """Raised on a malformed image file."""


def _pack_str(parts: list[bytes], text: str) -> None:
    data = text.encode("utf-8")
    parts.append(struct.pack("<I", len(data)))
    padded = data + b"\0" * (-len(data) % 4)
    parts.append(padded)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u32(self) -> int:
        if self.pos + 4 > len(self.data):
            raise ImageFormatError("truncated image file")
        (value,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        return value

    def count(self, what: str) -> int:
        """A u32 element count, sanity-bounded by the file size (a
        corrupt count must not drive a huge allocation)."""
        value = self.u32()
        if value > len(self.data) // 4:
            raise ImageFormatError(
                f"implausible {what} count {value} in a "
                f"{len(self.data)}-byte file"
            )
        return value

    def text(self) -> str:
        length = self.u32()
        end = self.pos + length
        if end > len(self.data):
            raise ImageFormatError("truncated string")
        try:
            value = self.data[self.pos : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ImageFormatError(f"corrupt string: {exc}") from exc
        self.pos = end + (-length % 4)
        return value


def save_image(
    image: LoadedImage,
    path: str | pathlib.Path,
    contexts: object = (),
) -> None:
    """Write *image* to *path* (format version 3, with CRC footer)."""
    pathlib.Path(path).write_bytes(image_bytes(image, contexts))


def image_bytes(image: LoadedImage, contexts: object = ()) -> bytes:
    """The file :func:`save_image` writes for *image*, as bytes.

    *contexts* holds the per-context codec table seals: an iterable of
    ``(kind, ctx, start_bit, end_bit, crc)`` tuples or objects with
    those attributes (:class:`~repro.core.integrity.ContextIntegrity`).
    """
    parts: list[bytes] = [
        struct.pack("<IIII", MAGIC, VERSION, image.base, image.entry_pc)
    ]
    parts.append(struct.pack("<I", len(image.segments)))
    for seg in image.segments:
        _pack_str(parts, seg.name)
        parts.append(struct.pack("<II", seg.start, seg.size))
    parts.append(struct.pack("<I", len(image.symbols)))
    for name, addr in image.symbols.items():
        _pack_str(parts, name)
        parts.append(struct.pack("<I", addr))
    parts.append(struct.pack("<I", len(image.block_heads)))
    for addr, label in image.block_heads.items():
        parts.append(struct.pack("<I", addr))
        _pack_str(parts, label)
    parts.append(struct.pack("<I", len(image.memory)))
    parts.append(struct.pack(f"<{len(image.memory)}I", *image.memory))
    records = [
        ctx
        if isinstance(ctx, tuple)
        else (ctx.kind, ctx.ctx, ctx.start_bit, ctx.end_bit, ctx.crc)
        for ctx in contexts
    ]
    parts.append(struct.pack("<I", len(records)))
    for kind, ctx_id, start_bit, end_bit, crc in records:
        parts.append(
            struct.pack(
                "<IIIII",
                kind,
                ctx_id,
                start_bit,
                end_bit,
                crc & 0xFFFFFFFF,
            )
        )
    payload = b"".join(parts)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return payload + struct.pack("<I", crc)


def load_image(path: str | pathlib.Path) -> LoadedImage:
    """Read an image written by :func:`save_image`.

    Malformed files -- bad magic, unknown version, failed CRC footer,
    implausible counts, truncation -- raise :class:`ImageFormatError`
    (a :class:`~repro.errors.CorruptBlobError`).
    """
    data = pathlib.Path(path).read_bytes()
    if len(data) < 8:
        raise ImageFormatError("file too short for a header")
    magic, version = struct.unpack_from("<II", data, 0)
    if magic != MAGIC:
        raise ImageFormatError(f"bad magic {magic:#x}")
    if not MIN_VERSION <= version <= VERSION:
        raise ImageFormatError(f"unsupported version {version}")
    if version >= 2:
        # The last word is a CRC32 over everything before it.
        if len(data) < 12:
            raise ImageFormatError("file too short for a CRC footer")
        payload, footer = data[:-4], data[-4:]
        (expected,) = struct.unpack("<I", footer)
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != expected:
            raise ImageFormatError(
                f"image file fails its CRC "
                f"(stored {expected:#010x}, computed {actual:#010x})"
            )
        data = payload
    reader = _Reader(data)
    reader.pos = 8  # past magic + version
    base = reader.u32()
    entry_pc = reader.u32()
    segments = []
    for _ in range(reader.count("segment")):
        name = reader.text()
        start, size = reader.u32(), reader.u32()
        segments.append(Segment(name, start, size))
    symbols = {}
    for _ in range(reader.count("symbol")):
        name = reader.text()
        symbols[name] = reader.u32()
    heads = {}
    for _ in range(reader.count("block head")):
        addr = reader.u32()
        heads[addr] = reader.text()
    n_words = reader.count("memory word")
    end = reader.pos + 4 * n_words
    if end > len(reader.data):
        raise ImageFormatError("truncated memory")
    memory = list(struct.unpack_from(f"<{n_words}I", reader.data, reader.pos))
    reader.pos = end
    contexts: list[tuple[int, int, int, int, int]] = []
    if version >= 3:
        for _ in range(reader.count("codec context")):
            contexts.append(
                (
                    reader.u32(),
                    reader.u32(),
                    reader.u32(),
                    reader.u32(),
                    reader.u32(),
                )
            )
    return LoadedImage(
        memory=memory,
        base=base,
        entry_pc=entry_pc,
        segments=segments,
        symbols=symbols,
        block_heads=heads,
        codec_contexts=contexts,
    )
