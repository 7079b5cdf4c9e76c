"""Whole-program IR and validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.isa.opcodes import OP_FORMAT, REG_AT, Format, Op, SysOp
from repro.program.blocks import BasicBlock
from repro.program.data import DataObject
from repro.program.function import Function


#: Opcodes whose rb and rc, too, must not name the stub register.
_RB_RC_CHECKED_OPS = frozenset(
    op for op, fmt in OP_FORMAT.items()
    if fmt in (Format.OPR, Format.OPI, Format.JMP, Format.MEM, Format.MEMI)
)


class ValidationError(Exception):
    """Raised when a program violates an IR invariant."""


@dataclass
class Program:
    """A whole program: functions, data objects, and an entry point.

    ``address_taken`` lists functions whose addresses escape into data
    (function-pointer tables); indirect calls are assumed to target any
    of them.  This is the conservative assumption a binary rewriter must
    make, and it feeds the buffer-safe analysis of Section 6.1.
    """

    name: str = "program"
    functions: dict[str, Function] = field(default_factory=dict)
    data: dict[str, DataObject] = field(default_factory=dict)
    entry: str | None = None
    address_taken: set[str] = field(default_factory=set)

    # -- construction -------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        if self.entry is None:
            self.entry = function.name
        return function

    def add_data(self, obj: DataObject) -> DataObject:
        if obj.name in self.data:
            raise ValueError(f"duplicate data object {obj.name!r}")
        self.data[obj.name] = obj
        return obj

    # -- queries ------------------------------------------------------------

    @property
    def entry_function(self) -> Function:
        if self.entry is None:
            raise ValueError("program has no entry function")
        return self.functions[self.entry]

    def all_blocks(self) -> Iterator[tuple[Function, BasicBlock]]:
        """All (function, block) pairs in layout order."""
        for function in self.functions.values():
            for block in function.blocks.values():
                yield function, block

    def block_function(self) -> dict[str, str]:
        """Map block label -> owning function name."""
        return {
            block.label: function.name
            for function, block in self.all_blocks()
        }

    def find_block(self, label: str) -> tuple[Function, BasicBlock]:
        for function in self.functions.values():
            block = function.blocks.get(label)
            if block is not None:
                return function, block
        raise KeyError(label)

    @property
    def code_size(self) -> int:
        """Total instruction count across all functions."""
        return sum(f.size for f in self.functions.values())

    @property
    def data_size(self) -> int:
        """Total data size in words."""
        return sum(d.size for d in self.data.values())

    def copy(self) -> "Program":
        clone = Program(name=self.name)
        for function in self.functions.values():
            clone.add_function(function.copy())
        for obj in self.data.values():
            clone.add_data(obj.copy())
        clone.entry = self.entry
        clone.address_taken = set(self.address_taken)
        return clone

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check all IR invariants; raise :class:`ValidationError`."""
        if self.entry is None or self.entry not in self.functions:
            raise ValidationError(f"missing entry function {self.entry!r}")

        labels: dict[str, str] = {}
        for function in self.functions.values():
            if function.entry is None:
                raise ValidationError(f"function {function.name!r} is empty")
            for block in function.blocks.values():
                if block.label in labels:
                    raise ValidationError(
                        f"block label {block.label!r} defined in both "
                        f"{labels[block.label]!r} and {function.name!r}"
                    )
                labels[block.label] = function.name

        for function in self.functions.values():
            for block in function.blocks.values():
                self._validate_block(function, block, labels)

        for name in self.address_taken:
            if name not in self.functions:
                raise ValidationError(
                    f"address-taken function {name!r} does not exist"
                )
        for obj in self.data.values():
            for index, target in obj.relocs.items():
                if target not in labels and target not in self.functions:
                    raise ValidationError(
                        f"data {obj.name!r}[{index}] relocates to unknown "
                        f"label {target!r}"
                    )

    def _validate_block(
        self, function: Function, block: BasicBlock, labels: dict[str, str]
    ) -> None:
        where = f"block {block.label!r} in {function.name!r}"
        if not block.instrs:
            raise ValidationError(f"{where} is empty")

        last = len(block.instrs) - 1
        for index, instr in enumerate(block.instrs):
            if (
                instr.is_control_transfer
                and index != last
                and not instr.is_call
            ):
                raise ValidationError(
                    f"{where}: control transfer {instr} not at block end"
                )
            if instr.ra == REG_AT or (
                instr.op in _RB_RC_CHECKED_OPS
                and REG_AT in (instr.rb, instr.rc)
            ):
                raise ValidationError(
                    f"{where}: register r{REG_AT} is reserved for stubs"
                )
            if instr.is_direct_call and index not in block.call_targets:
                raise ValidationError(
                    f"{where}: direct call at index {index} has no target"
                )

        for index, target in block.call_targets.items():
            if index >= len(block.instrs):
                raise ValidationError(
                    f"{where}: call target index {index} out of range"
                )
            if not block.instrs[index].is_direct_call:
                raise ValidationError(
                    f"{where}: call_targets[{index}] is not a direct call"
                )
            if target not in self.functions:
                raise ValidationError(
                    f"{where}: call to unknown function {target!r}"
                )

        for index, symbol in block.data_refs.items():
            if index >= len(block.instrs):
                raise ValidationError(
                    f"{where}: data ref index {index} out of range"
                )
            if block.instrs[index].op not in (Op.LDA, Op.LDAH):
                raise ValidationError(
                    f"{where}: data_refs[{index}] is not lda/ldah"
                )
            if symbol not in self.data:
                raise ValidationError(
                    f"{where}: data ref to unknown symbol {symbol!r}"
                )

        term = block.terminator
        assert term is not None
        if term.is_cond_branch:
            if block.branch_target is None or block.fallthrough is None:
                raise ValidationError(
                    f"{where}: conditional branch needs branch_target "
                    f"and fallthrough"
                )
        elif block.ends_in_uncond_branch:
            if block.branch_target is None or block.fallthrough is not None:
                raise ValidationError(
                    f"{where}: unconditional branch needs branch_target only"
                )
        elif block.ends_in_indirect_jump:
            if block.fallthrough is not None or block.branch_target is not None:
                raise ValidationError(
                    f"{where}: indirect jump cannot have static successors"
                )
        elif term.is_return or (
            term.op is Op.SPC
            and term.imm in (SysOp.HALT, SysOp.EXIT, SysOp.LONGJMP)
        ):
            if block.fallthrough is not None or block.branch_target is not None:
                raise ValidationError(f"{where}: terminator has no successors")
        else:
            if block.branch_target is not None:
                raise ValidationError(
                    f"{where}: branch_target without branch terminator"
                )
            if block.fallthrough is None:
                raise ValidationError(
                    f"{where}: block falls off the end without fallthrough"
                )

        for target_label in (block.fallthrough, block.branch_target):
            if target_label is None:
                continue
            if labels.get(target_label) != function.name:
                raise ValidationError(
                    f"{where}: successor {target_label!r} is not a block of "
                    f"the same function"
                )

        if block.jump_table is not None:
            obj = self.data.get(block.jump_table.data_symbol)
            if obj is None or not obj.is_jump_table:
                raise ValidationError(
                    f"{where}: jump table {block.jump_table.data_symbol!r} "
                    f"missing or not marked as a jump table"
                )
            if set(obj.relocs) != set(range(len(obj.words))):
                raise ValidationError(
                    f"{where}: jump table {obj.name!r} has non-relocated slots"
                )
