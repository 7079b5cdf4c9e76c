"""Footprint accounting.

Section 2.1: "when comparing the space usage of the original and
compressed programs, the latter must take into account the space
occupied by the stubs, the decompressor, the function offset table, the
compressed code, the runtime buffer, and the never-compressed original
program code."  Every one of those parts is a named field here and a
real segment in the image; the identity between the two is tested.

Jump tables are counted on both sides (they are code-adjacent read-only
data, and unswitching reclaims them), so their reclamation shows up as
a size win.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.program.image import LoadedImage
from repro.program.layout import AddressMap
from repro.program.program import Program


@dataclass(frozen=True)
class Footprint:
    """Code footprint of a squashed image, in words."""

    never_compressed: int
    entry_stubs: int
    decompressor: int
    offset_table: int
    stub_area: int
    runtime_buffer: int
    compressed: int
    jump_tables: int

    @property
    def total(self) -> int:
        """Total code footprint (the paper's measure)."""
        return (
            self.never_compressed
            + self.entry_stubs
            + self.decompressor
            + self.offset_table
            + self.stub_area
            + self.runtime_buffer
            + self.compressed
            + self.jump_tables
        )

    def reduction_vs(self, baseline_words: int) -> float:
        """Fractional size reduction relative to *baseline_words*."""
        if baseline_words == 0:
            return 0.0
        return 1.0 - self.total / baseline_words


def squashed_footprint(image: LoadedImage, jump_table_words: int) -> Footprint:
    """Read the footprint off the squashed image's segments."""
    def seg(name: str) -> int:
        return image.segment(name).size

    return Footprint(
        never_compressed=seg("text"),
        entry_stubs=seg("entry_stubs"),
        decompressor=seg("decompressor"),
        offset_table=seg("offset_table"),
        stub_area=seg("stub_area"),
        runtime_buffer=seg("runtime_buffer"),
        compressed=seg("compressed"),
        jump_tables=jump_table_words,
    )


def baseline_code_words(laid: AddressMap, program: Program) -> int:
    """Code footprint of an uncompressed (squeezed) image: its text
    plus its jump tables.  *laid* is the image's layout or just its
    address pass."""
    text = laid.text_words
    tables = sum(
        obj.size for obj in program.data.values() if obj.is_jump_table
    )
    return text + tables
