"""Unswitching indirect jumps in cold code (Section 6.2 of the paper).

A compressed region cannot contain an indirect jump through a jump
table: the table's addresses would point at the original code, not at
the runtime buffer.  Squash either updates the table or "unswitches"
the jump into a chain of conditional branches; like the paper's
implementation, we unswitch, after which the jump table's space is
reclaimed.  If the extent of a jump table cannot be determined (a real
hazard for a binary rewriter, modelled by ``JumpTableInfo.extent_known``),
the jump block and every possible target are excluded from compression.

The recogniser matches the canonical table-dispatch idiom::

    ldah rT, hi(table)(r31)
    lda  rT, lo(table)(rT)
    add  rT, rS, rT          ; rS = case index
    ldw  rT, 0(rT)
    jmp  (rT)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Op, REG_ZERO
from repro.program.blocks import BasicBlock
from repro.program.function import Function
from repro.program.program import Program
from repro.vm.profiler import Profile

#: Largest table that unswitching will expand (each case needs its
#: index as an 8-bit literal).
MAX_UNSWITCH_CASES = 64


@dataclass
class UnswitchResult:
    """What happened to cold jump-table blocks."""

    unswitched_blocks: int = 0
    new_blocks: list[str] = field(default_factory=list)
    reclaimed_words: int = 0
    #: Blocks excluded from compression (unknown-extent tables).
    excluded: set[str] = field(default_factory=set)


def _match_dispatch(block: BasicBlock) -> tuple[int, int] | None:
    """Return (rT, rS) if the block ends in the canonical idiom."""
    if len(block.instrs) < 5:
        return None
    ldah, lda, add, ldw, jmp = block.instrs[-5:]
    base = len(block.instrs) - 5
    if jmp.op is not Op.JMP:
        return None
    rt = jmp.rb
    if ldw.op is not Op.LDW or ldw.ra != rt or ldw.rb != rt or ldw.imm != 0:
        return None
    if add.op is not Op.OPR or add.func != AluOp.ADD or add.rc != rt:
        return None
    if rt not in (add.ra, add.rb):
        return None
    rs = add.rb if add.ra == rt else add.ra
    if rs == rt:
        return None  # selector must be distinct from the table pointer
    if lda.op is not Op.LDA or lda.ra != rt or lda.rb != rt:
        return None
    if ldah.op is not Op.LDAH or ldah.ra != rt or ldah.rb != REG_ZERO:
        return None
    if base not in block.data_refs or (base + 1) not in block.data_refs:
        return None
    return rt, rs


def unswitch_cold_tables(
    program: Program,
    cold: set[str],
    profile: Profile,
) -> UnswitchResult:
    """Unswitch cold jump-table blocks; update *cold* and *profile*
    with the new chain blocks.

    *program* gets a copy of each function it rewrites in place of the
    original and loses the tables it reclaims; the function and block
    objects it held are never changed.
    """
    result = UnswitchResult()
    for name in list(program.functions):
        function = program.functions[name]
        copied = False
        for label in list(function.blocks):
            block = function.blocks[label]
            if block.jump_table is None or label not in cold:
                continue
            table_obj = program.data[block.jump_table.data_symbol]
            targets = [
                table_obj.relocs[i] for i in sorted(table_obj.relocs)
            ]
            match = _match_dispatch(block)
            if (
                not block.jump_table.extent_known
                or match is None
                or len(targets) > MAX_UNSWITCH_CASES
                or len(targets) == 0
            ):
                result.excluded.add(label)
                result.excluded.update(targets)
                continue
            rt, rs = match
            if not copied:
                function = program.functions[name] = function.copy()
                copied = True
            _unswitch_block(
                function, function.blocks[label], targets, rt, rs,
                cold, profile, result,
            )

    # Reclaim tables no longer referenced by any block.
    used = {
        b.jump_table.data_symbol
        for _, b in program.all_blocks()
        if b.jump_table is not None
    }
    for name in list(program.data):
        obj = program.data[name]
        if obj.is_jump_table and name not in used:
            result.reclaimed_words += obj.size
            del program.data[name]
    return result


def _unswitch_block(
    function: Function,
    block: BasicBlock,
    targets: list[str],
    rt: int,
    rs: int,
    cold: set[str],
    profile: Profile,
    result: UnswitchResult,
) -> None:
    """Replace the dispatch idiom with a conditional-branch chain.

    The selector index is scaled by the case number directly: case k
    tests ``rS == k`` (rS held a word offset in the table idiom, but
    the generator indexes by words, so case k's offset is k).
    """
    freq = profile.freq(block.label)

    # The selector register held a word index; keep its value live.
    block.instrs = block.instrs[:-5]
    block.data_refs = {
        i: s for i, s in block.data_refs.items() if i < len(block.instrs)
    }
    block.jump_table = None

    chain_labels = [
        f"{block.label}.usw{k}" for k in range(len(targets) - 1)
    ]
    final_label = f"{block.label}.uswend"

    first = chain_labels[0] if chain_labels else final_label
    block.fallthrough = first
    block.branch_target = None
    if not block.instrs:
        # keep the block non-empty so the IR stays valid
        from repro.isa.instruction import nop

        block.instrs = [nop()]

    for k, chain_label in enumerate(chain_labels):
        next_label = (
            chain_labels[k + 1] if k + 1 < len(chain_labels) else final_label
        )
        test = BasicBlock(
            chain_label,
            instrs=[
                Instruction(Op.OPI, ra=rs, rc=rt, func=int(AluOp.CMPEQ), imm=k),
                Instruction(Op.BNE, ra=rt, imm=0),
            ],
            fallthrough=next_label,
            branch_target=targets[k],
        )
        function.add_block(test)
        result.new_blocks.append(chain_label)
        profile.counts[chain_label] = freq
        profile.sizes[chain_label] = test.size
        cold.add(chain_label)

    final = BasicBlock(
        final_label,
        instrs=[Instruction(Op.BR, ra=REG_ZERO, imm=0)],
        branch_target=targets[-1],
    )
    function.add_block(final)
    result.new_blocks.append(final_label)
    profile.counts[final_label] = freq
    profile.sizes[final_label] = final.size
    cold.add(final_label)
    result.unswitched_blocks += 1
