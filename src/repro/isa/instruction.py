"""The immutable decoded-instruction value type."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from repro.isa.fields import (
    FIELD_WIDTHS,
    FieldKind,
    check_field,
    field_max,
    field_min,
)
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    DIRECT_CALL_OPS,
    FORMAT_FIELDS,
    OP_FORMAT,
    AluOp,
    Format,
    Op,
    REG_A0,
    REG_V0,
    REG_ZERO,
    SysOp,
)

#: One field of an encoded word: (kind, Instruction attribute or None
#: for the SBZ pad, width, min, max, mask).
FieldPlan = tuple[FieldKind, "str | None", int, int, int, int]

#: Per opcode, the fields after the opcode in word order.  Built once
#: from FORMAT_FIELDS and the field tables, so the hot paths (encode,
#: construction, the codec split) do no per-field table lookups.  A
#: value outside [min, max] goes to ``check_field``, which raises.
FIELD_PLANS: dict[Op, tuple[FieldPlan, ...]] = {
    op: tuple(
        (
            kind,
            attr,
            FIELD_WIDTHS[kind],
            field_min(kind),
            field_max(kind),
            (1 << FIELD_WIDTHS[kind]) - 1,
        )
        for kind, attr in FORMAT_FIELDS[fmt]
    )
    for op, fmt in OP_FORMAT.items()
}

# -- per-opcode instruction facts -------------------------------------------
#
# Built once at import, like FIELD_PLANS, so each Instruction predicate
# is a lookup or two.  Members are module constants because an
# ``Op.X`` lookup goes through the enum metaclass.

_SPC, _BR, _JMP, _JSR, _RET = Op.SPC, Op.BR, Op.JMP, Op.JSR, Op.RET

#: Opcodes that always call (BR also calls when it links; see is_call).
CALL_OPS = DIRECT_CALL_OPS | {Op.JSR}

#: Opcodes that can change the PC (SPC: see _PALF_TRANSFERS).
_TRANSFER_OPS = frozenset(
    op for op, fmt in OP_FORMAT.items() if fmt in (Format.BRA, Format.JMP)
)

#: Opcodes after which execution never continues at the next word (BR
#: unless it links; SPC: see _PALF_STOPS).
_STOP_OPS = frozenset({Op.JMP, Op.RET, Op.ILLEGAL})

#: Per opcode: the attribute naming the register it writes, or None.
_WRITE_FIELD: dict[Op, str | None] = {
    op: "rc" if fmt in (Format.OPR, Format.OPI)
    else "ra" if op in (Op.LDA, Op.LDAH, Op.LDW) or op in _TRANSFER_OPS
    else None
    for op, fmt in OP_FORMAT.items()
}


def _reader(*attrs: str) -> Callable[["Instruction"], tuple[int, ...]]:
    """A getter of the registers named by *attrs*, as a tuple."""
    if len(attrs) > 1:
        return attrgetter(*attrs)
    if attrs:
        get = attrgetter(*attrs)
        return lambda instr: (get(instr),)
    return lambda instr: ()


#: Per opcode: the registers it reads, in order, zero register included.
_READERS: dict[Op, Callable[["Instruction"], tuple[int, ...]]] = {
    op: _reader("ra", "rb") if op in (Op.OPR, Op.STW)
    else _reader("ra") if op is Op.OPI or op in COND_BRANCH_OPS
    else _reader("rb") if op in (Op.LDA, Op.LDAH, Op.LDW)
    or OP_FORMAT[op] is Format.JMP
    else _reader()
    for op in OP_FORMAT
}

#: What SPC does, per PALF value; a value outside SysOp does nothing.
_PALF_TRANSFERS = frozenset({SysOp.LONGJMP})
_PALF_STOPS = frozenset({SysOp.HALT, SysOp.EXIT, SysOp.LONGJMP})
#: READ writes v0 and t0, SETJMP v0; writes_reg reports v0.
_PALF_WRITES = {SysOp.READ: REG_V0, SysOp.SETJMP: REG_V0}
#: a0 and a1 (over-approximate: a1 only for longjmp).
_PALF_READS = dict.fromkeys(
    (SysOp.WRITE, SysOp.EXIT, SysOp.SETJMP, SysOp.LONGJMP),
    (REG_A0, REG_A0 + 1),
)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    Only the attributes used by the instruction's format are meaningful;
    the rest keep their defaults.  ``imm`` holds whichever scalar payload
    the format defines (BDISP, MDISP, IMM16, LIT8, JHINT or PALF).
    """

    op: Op
    ra: int = REG_ZERO
    rb: int = REG_ZERO
    rc: int = REG_ZERO
    func: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for kind, attr, _, lo, hi, _ in FIELD_PLANS[self.op]:
            if attr is not None:
                value = getattr(self, attr)
                if not lo <= value <= hi:
                    check_field(kind, value)

    @property
    def format(self) -> Format:
        """Instruction format, determined entirely by the opcode."""
        return OP_FORMAT[self.op]

    def fields(self) -> tuple[tuple[FieldKind, int], ...]:
        """The typed (field kind, value) pairs of this instruction.

        This is the decomposition that the splitting-streams compressor
        of Section 3 operates on; the OPCODE field is listed first.
        """
        parts: list[tuple[FieldKind, int]] = [(FieldKind.OPCODE, int(self.op))]
        for kind, attr in FORMAT_FIELDS[self.format]:
            if attr is None:
                parts.append((kind, 0))
            else:
                parts.append((kind, getattr(self, attr)))
        return tuple(parts)

    # -- classification helpers -------------------------------------------
    #
    # Each predicate is a lookup in the per-opcode tables above, plus the
    # one operand two opcodes need: BR calls when it links, and SPC
    # does what its PALF value says.

    @property
    def is_cond_branch(self) -> bool:
        """True for the conditional PC-relative branches."""
        return self.op in COND_BRANCH_OPS

    @property
    def is_uncond_branch(self) -> bool:
        """True for ``BR`` used as a plain jump (no live link register)."""
        return self.op is _BR and self.ra == REG_ZERO

    @property
    def is_direct_call(self) -> bool:
        """True for a direct call (``BSR``, or ``BR`` with a link)."""
        if self.op is _BR:
            return self.ra != REG_ZERO
        return self.op in DIRECT_CALL_OPS

    @property
    def is_indirect_call(self) -> bool:
        """True for ``JSR`` (indirect call through a register)."""
        return self.op is _JSR

    @property
    def is_call(self) -> bool:
        """True for any call instruction, direct or indirect."""
        if self.op is _BR:
            return self.ra != REG_ZERO
        return self.op in CALL_OPS

    @property
    def is_setjmp(self) -> bool:
        """True for the SETJMP system call."""
        return self.op is _SPC and self.imm == SysOp.SETJMP

    @property
    def is_return(self) -> bool:
        """True for ``RET``."""
        return self.op is _RET

    @property
    def is_indirect_jump(self) -> bool:
        """True for ``JMP`` (indirect jump, e.g. through a jump table)."""
        return self.op is _JMP

    @property
    def is_control_transfer(self) -> bool:
        """True for any instruction that can change the PC."""
        if self.op is _SPC:
            return self.imm in _PALF_TRANSFERS
        return self.op in _TRANSFER_OPS

    @property
    def has_fallthrough(self) -> bool:
        """True if execution can continue at the next instruction.

        Calls fall through (after the callee returns); unconditional
        branches, indirect jumps, returns, halt/exit and the sentinel do
        not.
        """
        if self.op is _SPC:
            return self.imm not in _PALF_STOPS
        if self.op is _BR:
            return self.ra != REG_ZERO
        return self.op not in _STOP_OPS

    @property
    def writes_reg(self) -> int | None:
        """The register this instruction writes, or None.

        Writes to the zero register are reported as None.  READ writes
        v0 and t0 and SETJMP writes v0; liveness analysis handles them
        specially, and v0 is reported here.
        """
        if self.op is _SPC:
            return _PALF_WRITES.get(self.imm)
        attr = _WRITE_FIELD[self.op]
        if attr is None:
            return None
        target = getattr(self, attr)
        return None if target == REG_ZERO else target

    def reads_regs(self) -> tuple[int, ...]:
        """Registers this instruction reads (zero register excluded)."""
        if self.op is _SPC:
            return _PALF_READS.get(self.imm, ())
        regs = _READERS[self.op](self)
        if REG_ZERO in regs:
            return tuple([reg for reg in regs if reg != REG_ZERO])
        return regs

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        from repro.isa.disassembler import disassemble_one

        return disassemble_one(self)


#: The encoded sentinel: the all-ones word (ILLEGAL opcode, all-ones PALF).
#: The decompressor stops when it decodes this (Section 2.1).
SENTINEL_WORD = 0xFFFFFFFF


def nop() -> Instruction:
    """A no-op."""
    return Instruction(Op.SPC, imm=SysOp.NOP)


def halt() -> Instruction:
    """Stop the machine with exit code 0."""
    return Instruction(Op.SPC, imm=SysOp.HALT)


def sentinel() -> Instruction:
    """The illegal-instruction sentinel appended to compressed regions."""
    return Instruction(Op.ILLEGAL, imm=(1 << 26) - 1)


def alu_rr(func: AluOp, ra: int, rb: int, rc: int) -> Instruction:
    """Register-register ALU operation ``rc <- ra func rb``."""
    return Instruction(Op.OPR, ra=ra, rb=rb, rc=rc, func=int(func))


def alu_ri(func: AluOp, ra: int, lit: int, rc: int) -> Instruction:
    """Register-immediate ALU operation ``rc <- ra func lit``."""
    return Instruction(Op.OPI, ra=ra, rc=rc, func=int(func), imm=lit)
