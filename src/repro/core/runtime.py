"""The runtime system: decompressor + CreateStub (Sections 2.2-2.3).

The decompressor area of a squashed image has one entry point per
return-address register (``decomp_base + r``).  Reaching an entry traps
into this service, which reproduces the paper's combined
CreateStub/Decompress function:

* if the return address lies **inside the runtime buffer**, the caller
  is the ``bsr $r, CreateStub`` half of an expanded call: create (or
  reuse, bumping its usage count) the reference-counted restore stub
  for this call site, point ``$r`` at it, and resume at the following
  ``br``/``jsr`` which transfers to the callee;
* otherwise the return address points at a **tag word** (after an entry
  stub's or restore stub's call): read the region index and buffer
  offset from the tag, decrement-and-maybe-free the restore stub if
  that is where we came from, decompress the region into the buffer
  (writing the entry jump at slot 0), and jump to the buffer start.

Decompression cost is charged from *measured* work: the exact number of
compressed bits consumed by the canonical Huffman DECODE loop and the
number of instructions materialised, plus fixed invocation overhead.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence
from zlib import crc32

from repro.compress.codec import ProgramCodec
from repro.compress.streams import (
    OP_XCALLD,
    OP_XCALLI,
    CodecInstr,
    codec_to_instruction,
)
from repro.core.descriptor import (
    BufferStrategy,
    RestoreStubScheme,
    SquashDescriptor,
)
from repro.core.integrity import (
    bit_range_crc,
    check_area_crc,
    check_context_seals,
    check_offset_table,
)
from repro.errors import (
    BufferOverrunError,
    CodecTableError,
    CorruptBlobError,
    OffsetTableError,
    SquashError,
    StubAreaOverflow,
    TruncatedStreamError,
)
from repro import settings as _settings
from repro.isa.encoding import encode
from repro.isa.fields import FieldKind, from_bits
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.isa.instruction import Instruction
from repro.isa.opcodes import NUM_REGS, Op, REG_ZERO
from repro.program.layout import branch_displacement
from repro.vm.machine import Machine

__all__ = [
    "BufferStrategy",
    "RestoreStubScheme",
    "SquashRuntime",
    "RuntimeStats",
    "StubAreaOverflow",
    "clear_region_decode_cache",
    "region_cache_default",
    "region_decode_cache_info",
]

#: Unified metrics sink: the decode-cache counters mirror here so
#: ``repro metrics`` reports them alongside every other component.
_METRICS = get_registry()


def region_cache_default() -> bool:
    """Default for the cross-runtime region decode cache;
    ``REPRO_REGION_CACHE=0`` (or ``region_cache=False`` via
    :mod:`repro.settings`) disables it."""
    return _settings.current().region_cache

#: Entries kept in the region decode cache before the oldest is evicted.
REGION_CACHE_MAX_ENTRIES = 4096

# Decoded regions shared across SquashRuntime instances (and hence
# across repeated runs of the same squashed image): (blob digest, bit
# offset) -> (decoded items, bits consumed, seal).  This skips host-side
# bit-level work only; the *guest* is still charged the full modelled
# per-bit/per-instruction decode cost from the stored bit count, so
# cycle numbers are identical with the cache on or off.  The seal is a
# CRC over the entry contents: a poisoned entry (mutated after being
# cached) fails the seal on hit and is re-decoded from the blob instead
# of being executed.
_REGION_DECODE_CACHE: (
    "OrderedDict[tuple[bytes, int], tuple[tuple, int, int]]"
) = OrderedDict()
_REGION_CACHE_HITS = 0
_REGION_CACHE_MISSES = 0


def _entry_seal(items: tuple, bits: int) -> int:
    """Integrity seal of one region decode cache entry.

    ``repr`` of the (frozen-dataclass) item tuple is deterministic, so
    any in-place mutation of a cached entry changes the seal.
    """
    return crc32(repr((items, bits)).encode())


def clear_region_decode_cache() -> None:
    """Drop every entry of the cross-runtime region decode cache."""
    global _REGION_CACHE_HITS, _REGION_CACHE_MISSES
    _REGION_DECODE_CACHE.clear()
    _REGION_CACHE_HITS = 0
    _REGION_CACHE_MISSES = 0


def region_decode_cache_info() -> dict[str, int]:
    """Counters of the cross-runtime region decode cache."""
    return {
        "entries": len(_REGION_DECODE_CACHE),
        "hits": _REGION_CACHE_HITS,
        "misses": _REGION_CACHE_MISSES,
    }


@dataclass
class RuntimeStats:
    """Dynamic counters (Section 2.2's in-text numbers come from here)."""

    decompressions: int = 0
    buffer_hits: int = 0
    createstub_calls: int = 0
    stubs_created: int = 0
    stub_reuses: int = 0
    stubs_freed: int = 0
    max_live_stubs: int = 0
    restore_invocations: int = 0
    bits_decoded: int = 0
    instrs_materialised: int = 0
    decomp_cycles: int = 0
    #: Stale zero-refcount stubs reclaimed on StubAreaOverflow recovery.
    stub_reclaims: int = 0
    #: Cross-runtime cache entries rejected by their integrity seal.
    cache_rejects: int = 0


class _MemWords:
    """Word-indexable view of machine memory (the compressed stream)."""

    def __init__(self, machine: Machine, base: int, length: int):
        self._mem = machine.mem
        self._base = base
        self._length = length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._mem[self._base + index]

    def __len__(self) -> int:
        return self._length


class SquashRuntime:
    """Per-execution runtime state for one squashed image.

    Create one instance per :class:`Machine` and pass
    :meth:`services` to it; the instance tracks which region is
    buffered, the live restore stubs, and all statistics.
    """

    def __init__(
        self,
        descriptor: SquashDescriptor,
        region_cache: bool | None = None,
    ):
        self.desc = descriptor
        self.stats = RuntimeStats()
        self.current_region: int | None = None
        self._materialised: set[int] = set()
        self._codec: ProgramCodec | None = None
        self._live_stubs: dict[tuple[int, int], int] = {}
        self._slot_key: dict[int, tuple[int, int]] = {}
        self._free_slots = list(range(descriptor.stub_capacity))
        self._expanded_cache: dict[int, tuple[list[int], int]] = {}
        self._region_cache_enabled = (
            region_cache_default()
            if region_cache is None
            else bool(region_cache)
        )
        self._tracer = get_tracer()
        self._blob_digest: bytes | None = None
        self._image_verified = False

    def services(self) -> dict[int, Callable[[Machine], None]]:
        """Trap handlers for every decompressor entry point."""
        handlers: dict[int, Callable[[Machine], None]] = {}
        for reg in range(NUM_REGS):
            addr = self.desc.decomp_base + reg

            def handler(machine: Machine, reg: int = reg) -> None:
                self._dispatch(machine, reg)

            handlers[addr] = handler
        return handlers

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, machine: Machine, reg: int) -> None:
        retaddr = machine.regs[reg]
        desc = self.desc
        if (
            desc.strategy is not BufferStrategy.DECOMPRESS_ONCE
            and desc.in_buffer(retaddr)
        ):
            self._create_stub(machine, reg, retaddr)
        else:
            self._decompress(machine, retaddr)

    # -- CreateStub (runtime restore stubs) --------------------------------

    def _create_stub(self, machine: Machine, reg: int, retaddr: int) -> None:
        desc = self.desc
        if desc.restore_scheme is not RestoreStubScheme.RUNTIME:
            raise AssertionError(
                "CreateStub reached under the compile-time stub scheme"
            )
        if self.current_region is None:
            raise AssertionError("CreateStub with no region in the buffer")
        offset = retaddr - desc.buffer_base
        key = (self.current_region, offset)
        slot = self._live_stubs.get(key)
        if slot is None:
            if not self._free_slots and not self._reclaim_stubs(machine):
                raise StubAreaOverflow(
                    f"no free restore-stub slots for call site {key}",
                    region=self.current_region,
                )
            slot = min(self._free_slots)
            self._free_slots.remove(slot)
            stub_addr = self._stub_addr(slot)
            call = Instruction(
                Op.BSR,
                ra=reg,
                imm=branch_displacement(stub_addr, desc.decomp_base + reg),
            )
            machine.write_word(stub_addr, encode(call))
            machine.write_word(
                stub_addr + 1,
                (self.current_region << 16) | (offset + 1),
            )
            machine.write_word(stub_addr + 2, 1)
            machine.write_word(
                stub_addr + 3, (self.current_region << 16) | offset
            )
            self._live_stubs[key] = slot
            self._slot_key[slot] = key
            self.stats.stubs_created += 1
            self.stats.max_live_stubs = max(
                self.stats.max_live_stubs, len(self._live_stubs)
            )
            if self._tracer.enabled:
                self._tracer.emit(
                    "stub.create", "runtime", ts=machine.cycles,
                    region=self.current_region, offset=offset, slot=slot,
                )
        else:
            stub_addr = self._stub_addr(slot)
            count = machine.read_word(stub_addr + 2)
            machine.write_word(stub_addr + 2, count + 1)
            self.stats.stub_reuses += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "stub.reuse", "runtime", ts=machine.cycles,
                    region=self.current_region, offset=offset, slot=slot,
                )
        machine.regs[reg] = self._stub_addr(slot)
        machine.pc = retaddr  # resume at the br/jsr that reaches the callee
        self._charge(machine, desc.cost.createstub_cycles)
        self.stats.createstub_calls += 1

    def _stub_addr(self, slot: int) -> int:
        return (
            self.desc.stub_area_base
            + slot * SquashDescriptor.RESTORE_STUB_WORDS
        )

    def _reclaim_stubs(self, machine: Machine) -> int:
        """Graceful degradation on stub-area pressure: free any stub
        whose in-memory usage count is zero but whose slot is still
        marked live (a count word clobbered to zero, or a release that
        never went through the stub itself).  Returns slots freed."""
        freed = 0
        for slot in list(self._slot_key):
            if machine.read_word(self._stub_addr(slot) + 2) == 0:
                key = self._slot_key.pop(slot)
                self._live_stubs.pop(key, None)
                self._free_slots.append(slot)
                freed += 1
        if freed:
            self.stats.stub_reclaims += freed
            self.stats.stubs_freed += freed
            if self._tracer.enabled:
                self._tracer.emit(
                    "stub.reclaim", "runtime", ts=machine.cycles,
                    freed=freed,
                )
        return freed

    # -- Decompress ---------------------------------------------------------

    def _decompress(self, machine: Machine, retaddr: int) -> None:
        desc = self.desc
        tag = machine.read_word(retaddr)

        if desc.in_stub_area(retaddr):
            self.stats.restore_invocations += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "stub.restore_fire", "runtime", ts=machine.cycles,
                    retaddr=retaddr, tag_region=tag >> 16,
                )
            if desc.restore_scheme is RestoreStubScheme.RUNTIME:
                self._release_stub(machine, retaddr)

        region_index = tag >> 16
        offset = tag & 0xFFFF
        if region_index >= len(desc.regions):
            raise OffsetTableError(
                f"tag word at {retaddr:#x} names region {region_index}; "
                f"image has {len(desc.regions)} regions",
                region=region_index,
            )
        region = desc.region(region_index)
        if offset > region.expanded_size:
            raise BufferOverrunError(
                f"tag word at {retaddr:#x} re-enters region "
                f"{region_index} at slot {offset}, past its "
                f"{region.expanded_size}-word expansion",
                region=region_index,
            )

        hit = (
            region_index in self._materialised
            if desc.strategy is BufferStrategy.DECOMPRESS_ONCE
            else (desc.buffer_caching and self.current_region == region_index)
        )
        if hit:
            self.stats.buffer_hits += 1
            self._charge(machine, desc.cost.buffer_hit_cycles)
            if self._tracer.enabled:
                self._tracer.emit(
                    "buffer.hit", "runtime", ts=machine.cycles,
                    region=region_index,
                )
        else:
            self._fill(machine, region_index)
        # Entry jump at slot 0, then transfer to the buffer start --
        # exactly the paper's step 2/5 of Section 2.3.
        machine.write_word(
            region.base,
            encode(Instruction(Op.BR, ra=REG_ZERO, imm=offset - 1)),
        )
        machine.pc = region.base

    def _release_stub(self, machine: Machine, retaddr: int) -> None:
        stub_addr = retaddr - 1
        slot = (
            stub_addr - self.desc.stub_area_base
        ) // SquashDescriptor.RESTORE_STUB_WORDS
        count = machine.read_word(stub_addr + 2) - 1
        if count < 0:
            raise AssertionError("restore-stub usage count went negative")
        machine.write_word(stub_addr + 2, count)
        if count == 0:
            key = self._slot_key.pop(slot)
            del self._live_stubs[key]
            self._free_slots.append(slot)
            self.stats.stubs_freed += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "stub.free", "runtime", ts=machine.cycles, slot=slot,
                )

    def _fill(self, machine: Machine, region_index: int) -> None:
        """Decode a region into its area and charge the measured cost.

        Every fill on the decode path is integrity-checked: the offset
        table, codec tables, and stream CRCs once per runtime, plus the
        region's own bit-range CRC before its first decode.  All checks
        are host-side (the modelled decompressor folds them into its
        word fetches), so cycle accounting is identical to the
        unchecked runtime.
        """
        desc = self.desc
        self._verify_image(machine)
        trace = self._tracer.enabled
        if trace:
            if (
                desc.strategy is not BufferStrategy.DECOMPRESS_ONCE
                and self.current_region is not None
                and self.current_region != region_index
            ):
                # The single runtime buffer holds one region at a
                # time: filling it with a new region evicts the old.
                self._tracer.emit(
                    "buffer.evict", "runtime", ts=machine.cycles,
                    region=self.current_region, replaced_by=region_index,
                )
            self._tracer.emit(
                "region.decompress", "runtime", phase="B",
                ts=machine.cycles, region=region_index,
            )
        region = desc.region(region_index)
        if (
            region.base < desc.buffer_base
            or region.base + region.expanded_size
            > desc.buffer_base + desc.buffer_words
        ):
            raise BufferOverrunError(
                f"region {region_index} target [{region.base:#x}, "
                f"{region.base + region.expanded_size:#x}) outside the "
                f"runtime buffer",
                region=region_index,
            )
        codec = self._ensure_codec(machine)

        cached = self._expanded_cache.get(region_index)
        if cached is None:
            bit_offset = machine.read_word(
                desc.offset_table_addr + region_index
            )
            self._check_region_stream(machine, region_index, bit_offset)
            try:
                items, bits = self._decode_region(
                    machine, codec, bit_offset
                )
            except SquashError as exc:
                raise exc.with_context(
                    region=region_index,
                    bit_offset=bit_offset,
                    fingerprint=self._fingerprint_hex(machine),
                )
            words = self._expand(items, region.base)
            if len(words) + 1 != region.expanded_size:
                raise BufferOverrunError(
                    f"region {region_index}: expanded to {len(words) + 1} "
                    f"words, expected {region.expanded_size}",
                    region=region_index,
                    bit_offset=bit_offset,
                    fingerprint=self._fingerprint_hex(machine),
                )
            # Cache the host-side decode (a pure speed optimisation for
            # the simulation: the guest is still charged the full
            # measured decode cost below on every miss).
            self._expanded_cache[region_index] = (words, bits)
        else:
            words, bits = cached
        machine.write_words(region.base + 1, words)

        cost = desc.cost
        cycles = (
            cost.decomp_invoke_cycles
            + cost.decomp_per_bit_cycles * bits
            + cost.decomp_per_instr_cycles * len(words)
        )
        self._charge(machine, cycles)
        self.stats.decompressions += 1
        self.stats.bits_decoded += bits
        self.stats.instrs_materialised += len(words)
        if trace:
            self._tracer.emit(
                "region.decompress", "runtime", phase="E",
                ts=machine.cycles, region=region_index,
                bits=bits, words=len(words), cycles=cycles,
            )

        if desc.strategy is BufferStrategy.DECOMPRESS_ONCE:
            self._materialised.add(region_index)
        else:
            self.current_region = region_index

    def _decode_region(
        self, machine: Machine, codec: ProgramCodec, bit_offset: int
    ) -> tuple[tuple, int]:
        """Decode the compressed region at *bit_offset*, going through
        the cross-runtime decode cache when enabled.

        The cache is keyed by (blob digest, bit offset): the digest
        covers the serialised tables *and* the whole compressed stream,
        so two images share an entry only when their compressed bytes
        are identical -- in which case the decoded items are too.  The
        returned bit count always equals what a real decode would have
        measured, so cost charging is unaffected.
        """
        global _REGION_CACHE_HITS, _REGION_CACHE_MISSES
        desc = self.desc
        if not self._region_cache_enabled:
            stream = _MemWords(machine, desc.stream_addr, desc.stream_words)
            items, bits = codec.decode_region(stream, bit_offset)
            return tuple(items), bits
        key = (self._blob_fingerprint(machine), bit_offset)
        cached = _REGION_DECODE_CACHE.get(key)
        if cached is not None:
            items, bits, seal = cached
            if _entry_seal(items, bits) == seal:
                _REGION_DECODE_CACHE.move_to_end(key)
                _REGION_CACHE_HITS += 1
                _METRICS.inc("runtime.decode_cache.hits")
                if self._tracer.enabled:
                    self._tracer.emit(
                        "decode_cache.hit", "runtime",
                        ts=machine.cycles, bit_offset=bit_offset,
                    )
                return items, bits
            # A poisoned entry (mutated in place by another runtime or
            # a fault) is rejected rather than executed: drop it and
            # fall through to a fresh decode from the verified blob.
            del _REGION_DECODE_CACHE[key]
            self.stats.cache_rejects += 1
        _REGION_CACHE_MISSES += 1
        _METRICS.inc("runtime.decode_cache.misses")
        if self._tracer.enabled:
            self._tracer.emit(
                "decode_cache.miss", "runtime",
                ts=machine.cycles, bit_offset=bit_offset,
            )
        stream = _MemWords(machine, desc.stream_addr, desc.stream_words)
        items, bits = codec.decode_region(stream, bit_offset)
        items = tuple(items)
        _REGION_DECODE_CACHE[key] = (items, bits, _entry_seal(items, bits))
        while len(_REGION_DECODE_CACHE) > REGION_CACHE_MAX_ENTRIES:
            _REGION_DECODE_CACHE.popitem(last=False)
        return items, bits

    def _blob_fingerprint(self, machine: Machine) -> bytes:
        if self._blob_digest is None:
            desc = self.desc
            mem = machine.mem
            digest = hashlib.sha256()
            digest.update(
                array(
                    "I",
                    mem[desc.table_addr : desc.table_addr + desc.table_words],
                ).tobytes()
            )
            digest.update(
                array(
                    "I",
                    mem[
                        desc.stream_addr : desc.stream_addr
                        + desc.stream_words
                    ],
                ).tobytes()
            )
            self._blob_digest = digest.digest()
        return self._blob_digest

    def _expand(self, items: Sequence[CodecInstr], base: int) -> list[int]:
        """Materialise decoded items, expanding XCALL pseudo-ops into
        the two-instruction sequences of Figure 2."""
        desc = self.desc
        words: list[int] = []
        slot = 1
        for item in items:
            if item.opcode == OP_XCALLD:
                link = item.fields[0]
                disp = from_bits(FieldKind.BDISP, item.fields[1])
                words.append(
                    encode(
                        Instruction(
                            Op.BSR,
                            ra=link,
                            imm=branch_displacement(
                                base + slot, desc.decomp_base + link
                            ),
                        )
                    )
                )
                words.append(
                    encode(Instruction(Op.BR, ra=REG_ZERO, imm=disp))
                )
                slot += 2
            elif item.opcode == OP_XCALLI:
                link, rb = item.fields
                words.append(
                    encode(
                        Instruction(
                            Op.BSR,
                            ra=link,
                            imm=branch_displacement(
                                base + slot, desc.decomp_base + link
                            ),
                        )
                    )
                )
                words.append(
                    encode(Instruction(Op.JSR, ra=REG_ZERO, rb=rb))
                )
                slot += 2
            else:
                words.append(encode(codec_to_instruction(item)))
                slot += 1
        return words

    def _ensure_codec(self, machine: Machine) -> ProgramCodec:
        """Parse the Huffman tables out of image memory, once.

        The serialized table area is CRC-checked before parsing (when
        the image carries integrity metadata) and any parse failure
        surfaces as a :class:`~repro.errors.CodecTableError`.  Images
        with per-context seals have each context table checked first,
        so the error names the damaged context.
        """
        if self._codec is None:
            desc = self.desc
            table = [
                machine.mem[desc.table_addr + index]
                for index in range(desc.table_words)
            ]
            fingerprint = self._fingerprint_hex(machine)
            if desc.integrity is not None:
                check_context_seals(table, desc.integrity, fingerprint)
                check_area_crc(
                    table,
                    desc.integrity.table_crc,
                    "serialized codec tables",
                    CodecTableError,
                    fingerprint,
                )
            try:
                self._codec = ProgramCodec.from_table_words(table)
            except SquashError as exc:
                raise exc.with_context(fingerprint=fingerprint)
            except (ValueError, EOFError) as exc:
                raise CodecTableError(
                    f"unparseable codec tables: {exc}",
                    fingerprint=fingerprint,
                ) from exc
        return self._codec

    # -- integrity ----------------------------------------------------------

    def _fingerprint_hex(self, machine: Machine) -> str:
        """Short hex fingerprint of the blob, for error context."""
        return self._blob_fingerprint(machine).hex()[:12]

    def _verify_image(self, machine: Machine) -> None:
        """Once per runtime: validate the offset table (monotonicity,
        bounds, CRC) and the whole-stream CRC against the descriptor's
        integrity metadata.  Images without metadata still get the
        structural offset-table checks."""
        if self._image_verified:
            return
        self._image_verified = True
        desc = self.desc
        integ = desc.integrity
        fingerprint = self._fingerprint_hex(machine)
        if integ is not None and len(integ.regions) != len(desc.regions):
            raise CorruptBlobError(
                f"integrity metadata covers {len(integ.regions)} regions; "
                f"descriptor has {len(desc.regions)}",
                fingerprint=fingerprint,
            )
        offsets = [
            machine.read_word(desc.offset_table_addr + index)
            for index in range(len(desc.regions))
        ]
        stream_bits = (
            integ.stream_bits if integ is not None
            else desc.stream_words * 32
        )
        check_offset_table(offsets, stream_bits, integ, fingerprint)
        if integ is not None:
            stream = machine.mem[
                desc.stream_addr : desc.stream_addr + desc.stream_words
            ]
            check_area_crc(
                stream,
                integ.stream_crc,
                "compressed stream",
                CorruptBlobError,
                fingerprint,
            )

    def _check_region_stream(
        self, machine: Machine, region_index: int, bit_offset: int
    ) -> None:
        """Before decoding a region: its offset-table entry must match
        the descriptor, and its exact bit range must match its CRC."""
        desc = self.desc
        region = desc.region(region_index)
        if bit_offset != region.bit_offset:
            raise OffsetTableError(
                f"offset table entry {region_index} reads {bit_offset}; "
                f"descriptor says {region.bit_offset}",
                region=region_index,
                bit_offset=bit_offset,
                fingerprint=self._fingerprint_hex(machine),
            )
        integ = desc.integrity
        if integ is None:
            return
        record = integ.regions[region_index]
        if record.end_bit > desc.stream_words * 32:
            raise TruncatedStreamError(
                f"region {region_index} ends at bit {record.end_bit}; "
                f"stream holds only {desc.stream_words * 32} bits",
                region=region_index,
                bit_offset=record.end_bit,
                fingerprint=self._fingerprint_hex(machine),
            )
        stream = _MemWords(machine, desc.stream_addr, desc.stream_words)
        if (
            bit_range_crc(stream, record.start_bit, record.end_bit)
            != record.crc
        ):
            raise CorruptBlobError(
                f"region {region_index} bit range "
                f"[{record.start_bit}, {record.end_bit}) fails its CRC",
                region=region_index,
                bit_offset=bit_offset,
                fingerprint=self._fingerprint_hex(machine),
            )

    def _charge(self, machine: Machine, cycles: int) -> None:
        machine.charge(cycles)
        self.stats.decomp_cycles += cycles
