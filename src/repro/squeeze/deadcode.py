"""Dead-store elimination via per-function register liveness.

A backwards dataflow over each function's CFG computes live registers
at every instruction; ALU and address-forming instructions whose
destination is dead are deleted.  The analysis is conservative at
calls, returns, indirect jumps and system operations (standard ABI
summaries: calls read argument registers and define caller-saves;
returns keep the return value and callee-saves live).

Register sets are int bitmasks.  Each instruction's (uses, defs), each
block's successors and the live-out its terminator adds are computed
once per function, so the fixpoint iterates over ints only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import OP_FORMAT, Format, Op, SysOp
from repro.program.blocks import BasicBlock
from repro.program.cfg import block_successors
from repro.program.function import Function
from repro.program.program import Program
from repro.squeeze.abstraction import ABSTRACT_LINK_REG

#: Register sets as bitmasks (bit r for register r).
#: Registers a function must preserve / the caller may rely on after a
#: call: return value v0, saved s0-s5, fp, sp, and gp-style r29.
_LIVE_AT_RETURN = sum(1 << r for r in (0, 9, 10, 11, 12, 13, 14, 15, 29, 30))
#: Registers read by a call (arguments + sp).
_CALL_USES = sum(1 << r for r in (16, 17, 18, 19, 20, 21, 30))
#: Registers a call may define (caller-save: v0, t0-t7, a0-a5, t8-t11,
#: ra).  Everything else survives the call.
_CALL_DEFS = sum(
    1 << r
    for r in (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23, 24,
              25, 26)
)
_ALL_REGS = (1 << 31) - 1  # r31 is the zero register
#: (uses, defs) of SPC per PALF value; any other value touches nothing.
_SPC_USES_DEFS = {
    SysOp.READ: (0, 1 << 0 | 1 << 1),
    SysOp.WRITE: (1 << 16, 0),
    SysOp.EXIT: (1 << 16, 0),
    SysOp.SETJMP: (1 << 16 | 1 << 30 | 1 << 15 | 1 << 26, 1 << 0),
    SysOp.LONGJMP: (1 << 16 | 1 << 17, 1 << 0 | 1 << 30 | 1 << 15 | 1 << 26),
}
#: Opcodes with no effect beyond their register write.
_REMOVABLE_OPS = frozenset(
    op for op, fmt in OP_FORMAT.items()
    if fmt in (Format.OPR, Format.OPI) or op in (Op.LDA, Op.LDAH, Op.LDW)
)
_SPC, _RET, _JMP = Op.SPC, Op.RET, Op.JMP


@dataclass
class DeadCodeStats:
    stores_removed: int = 0


def _uses_defs(instr) -> tuple[int, int]:
    """(uses, defs) bitmasks of one instruction, with ABI summaries for
    calls."""
    if instr.is_call:
        if instr.is_direct_call and instr.ra == ABSTRACT_LINK_REG:
            # A call to an abstracted fragment is transparent: the
            # fragment reads and writes the caller's registers directly,
            # outside the normal ABI.  Treat it as fully opaque.
            return _ALL_REGS, 0
        uses = _CALL_USES
        if instr.is_indirect_call:
            uses |= 1 << instr.rb
        defs = _CALL_DEFS
        if instr.ra != 31:
            defs |= 1 << instr.ra
        return uses, defs
    if instr.op is _SPC:
        return _SPC_USES_DEFS.get(instr.imm, (0, 0))
    uses = 0
    for reg in instr.reads_regs():
        uses |= 1 << reg
    dest = instr.writes_reg
    return uses, 0 if dest is None else 1 << dest


def _terminator_live_out(block: BasicBlock) -> int:
    """Registers live after *block* whatever its successors need."""
    term = block.terminator
    if term is None:
        return 0
    if term.op is _RET:
        if term.rb == ABSTRACT_LINK_REG:
            # Returning from an abstracted fragment: every register may
            # be read by the continuation in the caller.
            return _ALL_REGS
        return _LIVE_AT_RETURN
    if term.op is _SPC and term.imm == SysOp.LONGJMP:
        return _LIVE_AT_RETURN
    if term.op is _JMP and block.jump_table is None:
        return _ALL_REGS  # unknown targets: assume everything live
    return 0


def eliminate_dead_stores(program: Program) -> DeadCodeStats:
    """Remove dead register writes from every function, in place."""
    stats = DeadCodeStats()
    for function in program.functions.values():
        stats.stores_removed += _process_function(program, function)
    return stats


def _process_function(program: Program, function: Function) -> int:
    # Everything the fixpoint reads is computed once: per block, each
    # instruction's (uses, defs), its successors, and the live-out its
    # terminator adds.
    blocks = [
        (
            label,
            block,
            [_uses_defs(instr) for instr in block.instrs],
            block_successors(program, block),
            _terminator_live_out(block),
        )
        for label, block in function.blocks.items()
    ]
    live_in = dict.fromkeys(function.blocks, 0)

    def live_out(succs: list[str], extra: int) -> int:
        live = extra
        for succ in succs:
            live |= live_in.get(succ, 0)
        return live

    changed = True
    while changed:
        changed = False
        for label, _, effects, succs, extra in reversed(blocks):
            live = live_out(succs, extra)
            for uses, defs in reversed(effects):
                live = live & ~defs | uses
            if live != live_in[label]:
                live_in[label] = live
                changed = True

    removed = 0
    for _, block, effects, succs, extra in blocks:
        live = live_out(succs, extra)
        instrs = block.instrs
        last = len(instrs) - 1
        kept: list[int] = []
        for index in range(last, -1, -1):
            uses, defs = effects[index]
            if (
                index != last  # keep terminators in place
                and defs
                and not live & defs
                and instrs[index].op in _REMOVABLE_OPS
            ):
                removed += 1
                continue
            live = live & ~defs | uses
            kept.append(index)
        kept.reverse()
        if len(kept) != len(instrs):
            block.rebuild(kept)
    return removed
