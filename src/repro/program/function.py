"""Functions: ordered collections of basic blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.program.blocks import BasicBlock


@dataclass
class Function:
    """A function with an entry block and layout-ordered blocks.

    ``blocks`` preserves insertion order, which is also the layout order
    used by the linker.  The paper's notion of "function" for
    compression purposes is more general (arbitrary code regions,
    Section 4); those regions are built elsewhere from these blocks.
    """

    name: str
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str | None = None

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Add *block*; the first block added becomes the entry."""
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        if self.entry is None:
            self.entry = block.label
        return block

    @property
    def entry_block(self) -> BasicBlock:
        if self.entry is None:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry]

    def block_order(self) -> list[BasicBlock]:
        """Blocks in layout order."""
        return list(self.blocks.values())

    @property
    def size(self) -> int:
        """Total instruction count."""
        return sum(b.size for b in self.blocks.values())

    def direct_callees(self) -> set[str]:
        """Names of functions called directly from this function."""
        callees: set[str] = set()
        for block in self.blocks.values():
            callees.update(block.call_targets.values())
        return callees

    @property
    def calls_setjmp(self) -> bool:
        """True if any instruction is a SETJMP.

        Functions that call setjmp are never compressed (Section 2.2):
        a longjmp can return past frames whose restore stubs would then
        leak or dangle.
        """
        return any(
            instr.is_setjmp
            for block in self.blocks.values()
            for instr in block.instrs
        )

    @property
    def has_indirect_call(self) -> bool:
        """True if the function contains a ``jsr``."""
        return any(
            instr.is_indirect_call
            for block in self.blocks.values()
            for instr in block.instrs
        )

    def copy(self) -> "Function":
        clone = Function(self.name)
        for block in self.blocks.values():
            clone.add_block(block.copy())
        clone.entry = self.entry
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Function({self.name!r}, {len(self.blocks)} blocks, {self.size} instrs)"
