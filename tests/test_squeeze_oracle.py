"""The instruction predicates and the dead-store pass against their
earlier implementations, kept here verbatim as oracles.

``Instruction``'s predicates now read per-opcode tables built at
import, and the dead-store pass runs its liveness fixpoint on int
bitmasks.  Both must stay exact: every predicate equals its reference
on every opcode, register and immediate (including BR with a link and
SPC with any PALF value), the pass removes the same instructions as
the reference pass, and squeeze leaves the same programs and
statistics for every benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.instruction import FIELD_PLANS, Instruction
from repro.isa.opcodes import (
    COND_BRANCH_OPS,
    DIRECT_CALL_OPS,
    OP_FORMAT,
    REG_ZERO,
    Format,
    Op,
    SysOp,
)
from repro.program.blocks import BasicBlock
from repro.program.cfg import block_successors
from repro.program.function import Function
from repro.program.program import Program
from repro.program.serialize import program_to_dict
from repro.squeeze.abstraction import ABSTRACT_LINK_REG
from repro.squeeze.deadcode import eliminate_dead_stores
from repro.workloads import build_workload, mediabench_spec
from repro.workloads.mediabench import MEDIABENCH, mediabench_program
from tests.test_squash_golden import SCALE

# -- reference predicates (verbatim) -----------------------------------------


class ReferencePredicates:
    """``Instruction``'s classification helpers before the per-opcode
    tables, verbatim."""

    @property
    def format(self) -> Format:
        """Instruction format, determined entirely by the opcode."""
        return OP_FORMAT[self.op]

    @property
    def is_cond_branch(self) -> bool:
        """True for the conditional PC-relative branches."""
        return self.op in COND_BRANCH_OPS

    @property
    def is_uncond_branch(self) -> bool:
        """True for ``BR`` used as a plain jump (no live link register)."""
        return self.op is Op.BR and self.ra == REG_ZERO

    @property
    def is_direct_call(self) -> bool:
        """True for a direct call (``BSR``, or ``BR`` with a link)."""
        if self.op in DIRECT_CALL_OPS:
            return True
        return self.op is Op.BR and self.ra != REG_ZERO

    @property
    def is_indirect_call(self) -> bool:
        """True for ``JSR`` (indirect call through a register)."""
        return self.op is Op.JSR

    @property
    def is_call(self) -> bool:
        """True for any call instruction, direct or indirect."""
        return self.is_direct_call or self.is_indirect_call

    @property
    def is_return(self) -> bool:
        """True for ``RET``."""
        return self.op is Op.RET

    @property
    def is_indirect_jump(self) -> bool:
        """True for ``JMP`` (indirect jump, e.g. through a jump table)."""
        return self.op is Op.JMP

    @property
    def is_control_transfer(self) -> bool:
        """True for any instruction that can change the PC."""
        if self.format in (Format.BRA, Format.JMP):
            return True
        return self.op is Op.SPC and self.imm == SysOp.LONGJMP

    @property
    def has_fallthrough(self) -> bool:
        """True if execution can continue at the next instruction.

        Calls fall through (after the callee returns); unconditional
        branches, indirect jumps, returns, halt/exit and the sentinel do
        not.
        """
        if self.is_cond_branch or self.is_call:
            return True
        if self.op in (Op.BR, Op.JMP, Op.RET):
            return False
        if self.op is Op.ILLEGAL:
            return False
        if self.op is Op.SPC and self.imm in (
            SysOp.HALT,
            SysOp.EXIT,
            SysOp.LONGJMP,
        ):
            return False
        return True

    @property
    def writes_reg(self) -> int | None:
        """The register this instruction writes, or None.

        Writes to the zero register are reported as None.
        """
        target: int | None = None
        if self.format in (Format.OPR, Format.OPI):
            target = self.rc
        elif self.op in (Op.LDA, Op.LDAH, Op.LDW):
            target = self.ra
        elif self.format in (Format.BRA, Format.JMP):
            target = self.ra
        elif self.op is Op.SPC and self.imm in (SysOp.READ, SysOp.SETJMP):
            # READ writes v0 and t0; SETJMP writes v0.  Handled specially
            # by liveness analysis; report v0 here.
            target = 0
        if target == REG_ZERO:
            return None
        return target

    def reads_regs(self) -> tuple[int, ...]:
        """Registers this instruction reads (zero register excluded)."""
        regs: list[int] = []
        if self.format in (Format.OPR,):
            regs = [self.ra, self.rb]
        elif self.format is Format.OPI:
            regs = [self.ra]
        elif self.op in (Op.LDA, Op.LDAH, Op.LDW):
            regs = [self.rb]
        elif self.op is Op.STW:
            regs = [self.ra, self.rb]
        elif self.is_cond_branch:
            regs = [self.ra]
        elif self.format is Format.JMP:
            regs = [self.rb]
        elif self.op is Op.SPC and self.imm in (
            SysOp.WRITE,
            SysOp.EXIT,
            SysOp.SETJMP,
            SysOp.LONGJMP,
        ):
            regs = [16, 17]  # a0, a1 (over-approximate: a1 only for longjmp)
        return tuple(r for r in regs if r != REG_ZERO)


PREDICATES = (
    "format",
    "is_cond_branch",
    "is_uncond_branch",
    "is_direct_call",
    "is_indirect_call",
    "is_call",
    "is_return",
    "is_indirect_jump",
    "is_control_transfer",
    "has_fallthrough",
    "writes_reg",
)


class Reference(ReferencePredicates):
    """An instruction's fields under the reference predicates."""

    __slots__ = ("op", "ra", "rb", "rc", "func", "imm")

    def __init__(self, instr: Instruction):
        for name in self.__slots__:
            setattr(self, name, getattr(instr, name))


@contextlib.contextmanager
def reference_predicates():
    """Install the reference predicates on ``Instruction`` itself."""
    with pytest.MonkeyPatch.context() as patch:
        for name in (*PREDICATES, "reads_regs"):
            patch.setattr(
                Instruction, name, ReferencePredicates.__dict__[name]
            )
        yield


# -- reference dead-store pass (verbatim) ------------------------------------

_LIVE_AT_RETURN = frozenset({0, 9, 10, 11, 12, 13, 14, 15, 29, 30})
_CALL_USES = frozenset({16, 17, 18, 19, 20, 21, 30})
_CALL_DEFS = frozenset(
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}
)
_ALL_REGS = frozenset(range(31))  # r31 is the zero register


def _instr_uses_defs(instr) -> tuple[frozenset[int], frozenset[int]]:
    """(uses, defs) of one instruction, with ABI summaries for calls."""
    if instr.is_call:
        if instr.is_direct_call and instr.ra == ABSTRACT_LINK_REG:
            return _ALL_REGS, frozenset()
        uses = set(_CALL_USES)
        if instr.is_indirect_call:
            uses.add(instr.rb)
        defs = set(_CALL_DEFS)
        if instr.ra != 31:
            defs.add(instr.ra)
        return frozenset(uses), frozenset(defs)
    if instr.op is Op.SPC:
        if instr.imm == SysOp.READ:
            return frozenset(), frozenset({0, 1})
        if instr.imm in (SysOp.WRITE, SysOp.EXIT):
            return frozenset({16}), frozenset()
        if instr.imm == SysOp.SETJMP:
            return frozenset({16, 30, 15, 26}), frozenset({0})
        if instr.imm == SysOp.LONGJMP:
            return frozenset({16, 17}), frozenset({0, 30, 15, 26})
        return frozenset(), frozenset()
    uses = frozenset(instr.reads_regs())
    dest = instr.writes_reg
    defs = frozenset() if dest is None else frozenset({dest})
    return uses, defs


def _removable(instr) -> bool:
    """True if the instruction has no effect beyond its register write."""
    return instr.format in (Format.OPR, Format.OPI) or instr.op in (
        Op.LDA,
        Op.LDAH,
        Op.LDW,
    )


def _block_live_out(
    program: Program, function: Function, block: BasicBlock,
    live_in: dict[str, frozenset[int]],
) -> set[int]:
    term = block.terminator
    live: set[int] = set()
    for succ in block_successors(program, block):
        live |= live_in.get(succ, frozenset())
    if term is not None:
        if term.is_return and term.rb == ABSTRACT_LINK_REG:
            live |= _ALL_REGS
        elif term.is_return:
            live |= _LIVE_AT_RETURN
        elif term.op is Op.SPC and term.imm == SysOp.LONGJMP:
            live |= _LIVE_AT_RETURN
        elif block.ends_in_indirect_jump and block.jump_table is None:
            live |= _ALL_REGS  # unknown targets: assume everything live
    return live


def _transfer(block: BasicBlock, live_out: set[int]) -> frozenset[int]:
    """Live-in of *block* given its live-out."""
    live = set(live_out)
    for instr in reversed(block.instrs):
        uses, defs = _instr_uses_defs(instr)
        live -= defs
        live |= uses
    return frozenset(live)


def reference_process_function(program: Program, function: Function) -> int:
    labels = list(function.blocks)
    live_in: dict[str, frozenset[int]] = {label: frozenset() for label in labels}

    changed = True
    while changed:
        changed = False
        for label in reversed(labels):
            block = function.blocks[label]
            live_out = _block_live_out(program, function, block, live_in)
            new_in = _transfer(block, live_out)
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True

    removed = 0
    for label in labels:
        block = function.blocks[label]
        live = set(_block_live_out(program, function, block, live_in))
        kept: list[int] = []
        for index in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[index]
            uses, defs = _instr_uses_defs(instr)
            is_last = index == len(block.instrs) - 1
            dead = (
                _removable(instr)
                and not is_last  # keep terminators in place
                and instr.writes_reg is not None
                and instr.writes_reg not in live
            )
            if dead:
                removed += 1
                continue
            live -= defs
            live |= uses
            kept.append(index)
        kept.reverse()
        if len(kept) != len(block.instrs):
            block.rebuild(kept)
    return removed


# -- predicates ----------------------------------------------------------------

#: r31 (zero), the abstract-fragment link register, the stub register,
#: ra, a0, v0 -- then any register.
REGS = st.one_of(
    st.sampled_from((REG_ZERO, ABSTRACT_LINK_REG, 28, 26, 16, 0)),
    st.integers(0, 31),
)


@st.composite
def instructions(draw) -> Instruction:
    op = draw(st.sampled_from(list(Op)))
    bounds = {
        attr: (lo, hi)
        for _, attr, _, lo, hi, _ in FIELD_PLANS[op]
        if attr is not None
    }
    lo, hi = bounds.get("imm", (0, 0))
    if OP_FORMAT[op] is Format.SPC:
        # Every SysOp (as member and as int) and PALFs outside SysOp.
        imm = draw(st.one_of(
            st.sampled_from(list(SysOp)),
            st.sampled_from([int(value) for value in SysOp]),
            st.integers(len(SysOp), hi),
        ))
    else:
        imm = draw(st.integers(lo, hi))
    return Instruction(
        op,
        ra=draw(REGS),
        rb=draw(REGS),
        rc=draw(REGS),
        func=draw(st.integers(*bounds.get("func", (0, 255)))),
        imm=imm,
    )


def _assert_matches_reference(instr: Instruction) -> None:
    ref = Reference(instr)
    for name in PREDICATES:
        assert getattr(instr, name) == getattr(ref, name), (name, instr)
    regs = instr.reads_regs()
    assert type(regs) is tuple and regs == ref.reads_regs(), instr


@settings(max_examples=400, deadline=None)
@given(instructions())
def test_predicates_match_reference(instr):
    _assert_matches_reference(instr)


@pytest.mark.parametrize("op", list(Op))
def test_predicates_match_reference_on_edge_operands(op):
    """Every opcode with r31, the link registers and each PALF value."""
    imms = [0]
    if OP_FORMAT[op] is Format.SPC:
        imms = [*SysOp, len(SysOp), (1 << 26) - 1]
    for reg in (REG_ZERO, ABSTRACT_LINK_REG, 26, 0):
        for imm in imms:
            _assert_matches_reference(
                Instruction(op, ra=reg, rb=reg, rc=reg, imm=imm)
            )
            _assert_matches_reference(
                Instruction(op, ra=reg, rb=REG_ZERO, rc=1, imm=imm)
            )


# -- dead-store pass -------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(MEDIABENCH),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from((0.01, 0.03)),
)
def test_dead_store_pass_matches_reference(name, seed, scale):
    spec = dataclasses.replace(mediabench_spec(name, scale), seed=seed)
    program = build_workload(spec).program
    fast, slow = program.copy(), program.copy()
    removed = eliminate_dead_stores(fast).stores_removed
    with reference_predicates():
        want = sum(
            reference_process_function(slow, function)
            for function in slow.functions.values()
        )
    assert removed == want
    assert removed > 0
    assert program_to_dict(fast) == program_to_dict(slow)


def test_dead_store_pass_keeps_block_terminators():
    """A dead write that ends a block stays: generated programs never
    end a block on one, so the property test above cannot see this."""
    program = Program()
    main = Function("main")
    main.add_block(BasicBlock(
        "m.a",
        instrs=assemble("addi r2, 1, r1\naddi r2, 2, r1"),
        fallthrough="m.b",
    ))
    main.add_block(BasicBlock("m.b", instrs=assemble("halt")))
    program.add_function(main)
    fast, slow = program.copy(), program.copy()
    removed = eliminate_dead_stores(fast).stores_removed
    with reference_predicates():
        want = reference_process_function(slow, slow.functions["main"])
    assert removed == want == 1
    assert program_to_dict(fast) == program_to_dict(slow)


# -- whole squeeze ---------------------------------------------------------------


def ir_digest(program: Program) -> str:
    """SHA-256 over every part of *program*, every order included."""
    parts = [program.name, program.entry, sorted(program.address_taken)]
    for name, function in program.functions.items():
        parts.append([name, function.entry])
        for label, block in function.blocks.items():
            parts.append([
                label,
                [[int(i.op), i.ra, i.rb, i.rc, i.func, i.imm]
                 for i in block.instrs],
                block.fallthrough,
                block.branch_target,
                list(block.call_targets.items()),
                list(block.data_refs.items()),
                None if block.jump_table is None
                else [block.jump_table.data_symbol,
                      block.jump_table.extent_known],
            ])
    for name, obj in program.data.items():
        parts.append(
            [name, list(obj.words), list(obj.relocs.items()),
             obj.is_jump_table]
        )
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


#: Per benchmark at the golden scale, from the implementation before
#: the per-opcode tables: the generated program's digest, the squeezed
#: program's digest, and the squeeze statistics (input and output size,
#: then each pass's counters).
SQUEEZE_DIGESTS = {
    "adpcm": (
        "55c15c9281d1a93146009cd125afbf9883dcfe1fdc69c7bc8a5f8e5f8e946a1c",
        "ae854e49737bc96a47ff13e0716d7f91e2a13f096cce06d2a7fccabb4b012576",
        (3643, 2343, (3, 587, 3, 0), (261, 0), (196,), (16, 56, 256)),
    ),
    "epic": (
        "4626bf3c774055d5c046fba66a4db1189b8b944179dff39cd7d5dba1b99c60a1",
        "7d41415d7d59bb9af9574d83fa0b53faaf91c675f54f46f99d3f00ce07f07575",
        (6774, 4957, (6, 774, 5, 0), (365, 0), (273,), (36, 115, 405)),
    ),
    "g721_dec": (
        "8cceb3df3785bbf7ef4121ba2eb3029e8e2cbd15488ef386d5d7b7594d72787d",
        "2aa9c455633049561f915c467ad8a6e995e3b62514684f9c7fa8247743cf1077",
        (3015, 2396, (4, 259, 3, 0), (123, 0), (92,), (13, 46, 145)),
    ),
    "g721_enc": (
        "1a7bdd7ac5d85091d79ccc0fef57ecfeed7420f624640d0a469b980d207a333d",
        "43b2a255cd8436932082719c8768c3c63bdfed34750febc8378c31f273ac3fc0",
        (3011, 2356, (4, 252, 3, 0), (132, 0), (99,), (10, 42, 172)),
    ),
    "gsm": (
        "6dd9e03e39d3c07059afebdca197b4a8ecefd0637b4081ff4556f1d2d9e4da28",
        "06f59138e67d0c9a335c64da8ea6f8b8d367c12e60b9dc62e44ec09e575576f3",
        (5955, 4320, (5, 702, 4, 0), (328, 0), (246,), (29, 96, 359)),
    ),
    "jpeg_dec": (
        "88e8f3fef3197d9bfa5df8def7facbf3d92d9a69a1571894cc379e1f80f49f00",
        "4a16308e4ba20d4f288e0b92366081861912835edacecf6decb4777539f397f4",
        (8816, 7367, (3, 514, 3, 0), (282, 0), (212,), (57, 178, 441)),
    ),
    "jpeg_enc": (
        "60986d2e355c4601b79e6d5db4a81ccfb1a7f79376a6c994e29b46ef6b2c90f0",
        "484875672c83bb2f4346dcb52b3b9de0e1ce31f776cac1153fd7b1637a996402",
        (7738, 6437, (2, 461, 2, 0), (261, 0), (196,), (56, 165, 383)),
    ),
    "mpeg2dec": (
        "60e8fcd3de3ba21e51182f0b8677f16681d389a94ece26f9b78a97533c12c2a1",
        "983e47c91251662ea4902ef0234f366b45494167b4a14400ed5d7ab1ba3cd93d",
        (7564, 5589, (4, 838, 4, 0), (396, 0), (297,), (48, 140, 444)),
    ),
    "mpeg2enc": (
        "bf6ec8200ea98b24d9720e98f5cc6915370951defa07858cd5d8c8152d6de345",
        "7a35a254ffb1ac459ad2959836ac38e8ee2cfd9e85cc00b0f969e5aa843dc4ec",
        (9428, 7213, (4, 873, 4, 0), (444, 0), (333,), (70, 209, 565)),
    ),
    "pgp": (
        "c5e574f8e439688b98d3f1f85d22d638088fddc2b391f91a7f0015b0ed336421",
        "c570b64dadc599d0bbd623d7276ed7d5bb0357d50dea3ae24ca92a68b9ebfb5b",
        (16743, 12014, (8, 1899, 8, 0), (949, 0), (712,), (137, 418, 1169)),
    ),
    "rasta": (
        "5eef6b7fcc65cb3706405060c86ec89a6409e2b8c17b1f4d81da188c774c858b",
        "75ea0edce52ee1c4f47344e4f4cdf16a5db771bb0837f10a1973d0fd52712306",
        (18269, 13031, (9, 2124, 9, 0), (1043, 0), (783,), (160, 472, 1288)),
    ),
}


@pytest.mark.parametrize("name", MEDIABENCH)
def test_squeeze_output_unchanged(name):
    bench = mediabench_program(name, scale=SCALE)
    stats = dataclasses.astuple(bench.squeeze_stats)
    assert (
        ir_digest(bench.workload.program), ir_digest(bench.squeezed), stats
    ) == SQUEEZE_DIGESTS[name]
