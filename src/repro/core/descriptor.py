"""Shared descriptors for the squashed image.

Everything the runtime decompressor needs is physically present in the
image (the offset table, the serialized Huffman tables, the compressed
stream, the stub area); the descriptor carries the *addresses* of those
areas plus per-region layout facts, playing the role of the squashed
executable's header.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.core.costmodel import CostModel
from repro.core.integrity import (
    ContextIntegrity,
    ImageIntegrity,
    RegionIntegrity,
)


class BufferStrategy(enum.Enum):
    """Buffer-management options of Section 2.2."""

    #: Refuse to compress any block containing a function call
    #: (option 1 in the paper).
    NO_CALLS = "no_calls"
    #: Never discard decompressed code; each region gets a permanent
    #: area (option 2; JIT-like, large footprint).
    DECOMPRESS_ONCE = "decompress_once"
    #: One small buffer; calls out of it overwrite the caller, which is
    #: restored on return via restore stubs (option 3 -- the paper's).
    OVERWRITE = "overwrite"


class RestoreStubScheme(enum.Enum):
    """How restore stubs come into existence (Section 2.2)."""

    #: All restore stubs are created at compile time: every call site in
    #: compressed code gets a permanent 3-word stub.
    COMPILE_TIME = "compile_time"
    #: Restore stubs are created on demand by CreateStub and reference
    #: counted (the paper's scheme).
    RUNTIME = "runtime"


@dataclass
class RegionDescriptor:
    """Layout facts for one compressed region."""

    index: int
    #: Bit offset of the region in the compressed stream (this value is
    #: also stored in the in-image function offset table).
    bit_offset: int
    #: Expanded size in the buffer, in words, including the entry-jump
    #: slot 0.
    expanded_size: int
    #: Address the region is decompressed to (the runtime buffer, or a
    #: dedicated area under DECOMPRESS_ONCE).
    base: int
    #: Buffer slot of each member block (label -> slot; slot 0 is the
    #: entry jump).
    block_slots: dict[str, int] = field(default_factory=dict)
    #: Number of original instructions (pre-expansion, no sentinel).
    original_instrs: int = 0


@dataclass
class EntryStubInfo:
    """One entry stub: the in-image trampoline into a compressed block."""

    label: str
    region: int
    #: Buffer slot control should reach after decompression.
    offset: int
    #: Address of the stub itself.
    addr: int


@dataclass
class CompileTimeStubInfo:
    """One compile-time restore stub (COMPILE_TIME scheme only)."""

    addr: int
    region: int
    #: Buffer slot of the instruction after the call.
    return_offset: int


@dataclass
class SquashDescriptor:
    """Addresses and metadata of every squashed-image area."""

    strategy: BufferStrategy
    restore_scheme: RestoreStubScheme
    cost: CostModel
    #: Base of the decompressor; entry point for return-address register
    #: r is ``decomp_base + r`` (Section 2.3's multiple entry points).
    decomp_base: int
    decomp_words: int
    offset_table_addr: int
    table_addr: int
    table_words: int
    stream_addr: int
    stream_words: int
    stub_area_base: int
    stub_area_words: int
    #: Capacity in stubs (RUNTIME scheme).
    stub_capacity: int
    buffer_base: int
    buffer_words: int
    regions: list[RegionDescriptor] = field(default_factory=list)
    entry_stubs: list[EntryStubInfo] = field(default_factory=list)
    compile_time_stubs: list[CompileTimeStubInfo] = field(
        default_factory=list
    )
    #: Whether the decompressor skips decoding when the requested region
    #: is already buffered.
    buffer_caching: bool = True
    #: CRC32 checksums over the trusted areas (None for images produced
    #: before the integrity format, which then run unchecked).
    integrity: ImageIntegrity | None = None

    #: Words of one runtime restore stub: call, tag, usage count, key.
    RESTORE_STUB_WORDS = 4
    #: Words of one compile-time restore stub: call, decompressor call,
    #: tag.
    CT_STUB_WORDS = 3

    def region(self, index: int) -> RegionDescriptor:
        return self.regions[index]

    def in_buffer(self, addr: int) -> bool:
        """True if *addr* lies in the runtime buffer (or, under
        DECOMPRESS_ONCE, in any region's area)."""
        return self.buffer_base <= addr < self.buffer_base + self.buffer_words

    def in_stub_area(self, addr: int) -> bool:
        return (
            self.stub_area_base
            <= addr
            < self.stub_area_base + self.stub_area_words
        )

    def region_at(self, addr: int) -> RegionDescriptor | None:
        """The region whose decompression area contains *addr*
        (meaningful under DECOMPRESS_ONCE)."""
        for region in self.regions:
            if region.base <= addr < region.base + region.expanded_size:
                return region
        return None


def descriptor_to_dict(desc: SquashDescriptor) -> dict:
    """A JSON-serialisable form of the descriptor (the squashed
    executable's header, for :meth:`SquashResult.save`).

    Written out field by field, in dataclass field order, so its JSON
    bytes equal those of ``dataclasses.asdict``, which deep-copies every
    region, stub and seal of every saved or digested image.
    """
    integrity = desc.integrity
    if integrity is not None:
        integrity = {
            "table_crc": integrity.table_crc,
            "stream_crc": integrity.stream_crc,
            "offset_table_crc": integrity.offset_table_crc,
            "table_bits": integrity.table_bits,
            "stream_bits": integrity.stream_bits,
            "regions": [
                {
                    "start_bit": seal.start_bit,
                    "end_bit": seal.end_bit,
                    "crc": seal.crc,
                }
                for seal in integrity.regions
            ],
            "contexts": [
                {
                    "kind": seal.kind,
                    "ctx": seal.ctx,
                    "start_bit": seal.start_bit,
                    "end_bit": seal.end_bit,
                    "crc": seal.crc,
                }
                for seal in integrity.contexts
            ],
        }
    return {
        "strategy": desc.strategy.value,
        "restore_scheme": desc.restore_scheme.value,
        "cost": {
            f.name: getattr(desc.cost, f.name) for f in fields(desc.cost)
        },
        "decomp_base": desc.decomp_base,
        "decomp_words": desc.decomp_words,
        "offset_table_addr": desc.offset_table_addr,
        "table_addr": desc.table_addr,
        "table_words": desc.table_words,
        "stream_addr": desc.stream_addr,
        "stream_words": desc.stream_words,
        "stub_area_base": desc.stub_area_base,
        "stub_area_words": desc.stub_area_words,
        "stub_capacity": desc.stub_capacity,
        "buffer_base": desc.buffer_base,
        "buffer_words": desc.buffer_words,
        "regions": [
            {
                "index": region.index,
                "bit_offset": region.bit_offset,
                "expanded_size": region.expanded_size,
                "base": region.base,
                "block_slots": dict(region.block_slots),
                "original_instrs": region.original_instrs,
            }
            for region in desc.regions
        ],
        "entry_stubs": [
            {
                "label": stub.label,
                "region": stub.region,
                "offset": stub.offset,
                "addr": stub.addr,
            }
            for stub in desc.entry_stubs
        ],
        "compile_time_stubs": [
            {
                "addr": stub.addr,
                "region": stub.region,
                "return_offset": stub.return_offset,
            }
            for stub in desc.compile_time_stubs
        ],
        "buffer_caching": desc.buffer_caching,
        "integrity": integrity,
    }


def descriptor_from_dict(data: dict) -> SquashDescriptor:
    """Inverse of :func:`descriptor_to_dict`."""
    from repro.core.costmodel import CostModel

    data = dict(data)
    data["strategy"] = BufferStrategy(data["strategy"])
    data["restore_scheme"] = RestoreStubScheme(data["restore_scheme"])
    data["cost"] = CostModel(**data["cost"])
    data["regions"] = [
        RegionDescriptor(**region) for region in data["regions"]
    ]
    data["entry_stubs"] = [
        EntryStubInfo(**stub) for stub in data["entry_stubs"]
    ]
    data["compile_time_stubs"] = [
        CompileTimeStubInfo(**stub) for stub in data["compile_time_stubs"]
    ]
    integrity = data.get("integrity")
    if integrity is not None:
        integrity = dict(integrity)
        integrity["regions"] = [
            RegionIntegrity(**region) for region in integrity["regions"]
        ]
        # Descriptors written before the CodecModel layer carry no
        # per-context seals; default to the unsealed form.
        integrity["contexts"] = [
            ContextIntegrity(**ctx)
            for ctx in integrity.get("contexts", ())
        ]
        data["integrity"] = ImageIntegrity(**integrity)
    return SquashDescriptor(**data)
