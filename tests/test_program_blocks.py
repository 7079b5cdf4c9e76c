"""BasicBlock, Function, and DataObject behaviour."""

import pytest

from repro.isa import Instruction, Op, assemble
from repro.program import BasicBlock, DataObject, Function, JumpTableInfo


def test_block_requires_label():
    with pytest.raises(ValueError):
        BasicBlock("")


def test_block_size_and_terminator():
    block = BasicBlock("b", instrs=assemble("add r1, r2, r3\nret"))
    assert block.size == 2
    assert block.terminator.op is Op.RET
    assert BasicBlock("e").terminator is None


def test_terminator_classification():
    cond = BasicBlock(
        "c", instrs=assemble("beq r1, 0"), branch_target="t", fallthrough="f"
    )
    assert cond.ends_in_cond_branch
    assert not cond.ends_in_uncond_branch
    uncond = BasicBlock("u", instrs=assemble("br 0"), branch_target="t")
    assert uncond.ends_in_uncond_branch
    indirect = BasicBlock("i", instrs=assemble("jmp (r4)"))
    assert indirect.ends_in_indirect_jump


def test_has_call_and_call_sites():
    block = BasicBlock(
        "b",
        instrs=assemble("bsr r26, 0\njsr r26, (r4)\nret"),
        call_targets={0: "f"},
    )
    assert block.has_call
    assert block.call_sites() == [(0, "f"), (1, None)]
    assert not BasicBlock("p", instrs=assemble("nop")).has_call


def test_copy_is_independent():
    block = BasicBlock(
        "b",
        instrs=assemble("bsr r26, 0\nret"),
        call_targets={0: "f"},
        data_refs={},
    )
    clone = block.copy()
    clone.call_targets[0] = "g"
    clone.instrs.append(assemble("nop")[0])
    assert block.call_targets[0] == "f"
    assert block.size == 2


def test_rebuild_remaps_metadata():
    block = BasicBlock(
        "b",
        instrs=assemble("nop\nbsr r26, 0\nnop\nlda r1, 0(r31)\nret"),
        call_targets={1: "f"},
        data_refs={3: "G"},
    )
    block.rebuild([1, 3, 4])  # drop the nops
    assert block.size == 3
    assert block.call_targets == {0: "f"}
    assert block.data_refs == {1: "G"}


def test_rebuild_drops_removed_metadata():
    block = BasicBlock(
        "b",
        instrs=assemble("bsr r26, 0\nret"),
        call_targets={0: "f"},
    )
    block.rebuild([1])
    assert block.call_targets == {}


def test_function_entry_is_first_block():
    fn = Function("f")
    fn.add_block(BasicBlock("f.a", instrs=assemble("nop"), fallthrough="f.b"))
    fn.add_block(BasicBlock("f.b", instrs=assemble("ret")))
    assert fn.entry == "f.a"
    assert fn.entry_block.label == "f.a"
    assert [b.label for b in fn.block_order()] == ["f.a", "f.b"]
    assert fn.size == 2


def test_function_rejects_duplicate_blocks():
    fn = Function("f")
    fn.add_block(BasicBlock("f.a", instrs=assemble("ret")))
    with pytest.raises(ValueError):
        fn.add_block(BasicBlock("f.a", instrs=assemble("ret")))


def test_function_direct_callees_and_setjmp():
    fn = Function("f")
    block = BasicBlock(
        "f.a", instrs=assemble("bsr r26, 0\nsys setjmp\nret"),
        call_targets={0: "g"},
    )
    fn.add_block(block)
    assert fn.direct_callees() == {"g"}
    assert fn.calls_setjmp
    assert not fn.has_indirect_call


def test_is_setjmp_reads_the_palf_of_an_spc_only():
    setjmp, halt = assemble("sys setjmp\nsys halt")
    assert setjmp.is_setjmp
    assert not halt.is_setjmp
    assert not Instruction(Op.LDA, imm=setjmp.imm).is_setjmp
    fn = Function("f")
    fn.add_block(BasicBlock("f.a", instrs=[halt]))
    assert not fn.calls_setjmp


def test_function_copy_deep():
    fn = Function("f")
    fn.add_block(BasicBlock("f.a", instrs=assemble("ret")))
    clone = fn.copy()
    clone.blocks["f.a"].instrs.append(assemble("nop")[0])
    assert fn.blocks["f.a"].size == 1


def test_data_object_relocs_validated():
    with pytest.raises(ValueError):
        DataObject("d", words=[0, 0], relocs={5: "x"})
    obj = DataObject("d", words=[1, 2], relocs={1: "f"})
    assert obj.size == 2
    clone = obj.copy()
    clone.relocs[0] = "g"
    assert 0 not in obj.relocs


def test_jump_table_info():
    info = JumpTableInfo("tab")
    assert info.extent_known
    assert not JumpTableInfo("tab", extent_known=False).extent_known
