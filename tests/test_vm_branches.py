"""Differential tests: every branch condition against a Python model."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import assemble
from repro.program import BasicBlock, Function, Program
from repro.program.layout import layout
from repro.vm.machine import Machine

U32 = (1 << 32) - 1

pytestmark = pytest.mark.usefixtures("vm_translate_after")


def _signed(value: int) -> int:
    return value - (1 << 32) if value >= (1 << 31) else value


#: mnemonic -> Python predicate on the (unsigned) register value.
BRANCH_MODEL = {
    "beq": lambda v: v == 0,
    "bne": lambda v: v != 0,
    "blt": lambda v: _signed(v) < 0,
    "ble": lambda v: _signed(v) <= 0,
    "bgt": lambda v: _signed(v) > 0,
    "bge": lambda v: _signed(v) >= 0,
    "blbc": lambda v: (v & 1) == 0,
    "blbs": lambda v: (v & 1) == 1,
}


def run_branch(mnemonic: str, value: int) -> bool:
    """Execute one conditional branch on *value*; True if taken."""
    program = Program("t")
    fn = Function("main")
    fn.add_block(
        BasicBlock(
            "m.a",
            instrs=assemble(f"sys read\nadd r0, r31, r9\n{mnemonic} r9, 0"),
            branch_target="m.taken",
            fallthrough="m.not",
        )
    )
    fn.add_block(
        BasicBlock("m.not", instrs=assemble("addi r31, 0, r16\nsys exit"))
    )
    fn.add_block(
        BasicBlock("m.taken", instrs=assemble("addi r31, 1, r16\nsys exit"))
    )
    program.add_function(fn)
    machine = Machine(layout(program).image, input_words=[value])
    return machine.run(max_steps=100).exit_code == 1


INTERESTING = [
    0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, U32, U32 - 1, 0x5555,
]


@pytest.mark.parametrize("mnemonic", sorted(BRANCH_MODEL))
@pytest.mark.parametrize("value", INTERESTING)
def test_branch_against_model(mnemonic, value):
    assert run_branch(mnemonic, value) == BRANCH_MODEL[mnemonic](value)


@given(
    mnemonic=st.sampled_from(sorted(BRANCH_MODEL)),
    value=st.integers(0, U32),
)
def test_branch_property(mnemonic, value):
    assert run_branch(mnemonic, value) == BRANCH_MODEL[mnemonic](value)


class TestIndirectControl:
    def test_jsr_saves_link_and_jumps(self):
        program = Program("t")
        fn = Function("main")
        block = BasicBlock(
            "m.a",
            instrs=assemble(
                "ldah r4, 0(r31)\nlda r4, 0(r4)\nldw r4, 0(r4)\n"
                "jsr r26, (r4)\nadd r0, r31, r16\nsys exit"
            ),
            data_refs={0: "T", 1: "T"},
        )
        fn.add_block(block)
        program.add_function(fn)
        target = Function("target")
        target.add_block(
            BasicBlock("t.a", instrs=assemble("addi r31, 42, r0\nret"))
        )
        program.add_function(target)
        program.address_taken.add("target")
        from repro.program import DataObject

        program.add_data(DataObject("T", words=[0], relocs={0: "target"}))
        machine = Machine(layout(program).image)
        run = machine.run(max_steps=200)
        assert run.exit_code == 42

    def test_ret_through_alternate_register(self):
        program = Program("t")
        fn = Function("main")
        block = BasicBlock(
            "m.a",
            instrs=assemble("bsr r25, 0\nadd r0, r31, r16\nsys exit"),
        )
        block.call_targets[0] = "helper"
        fn.add_block(block)
        program.add_function(fn)
        helper = Function("helper")
        helper.add_block(
            BasicBlock(
                "h.a", instrs=assemble("addi r31, 9, r0\nret (r25)")
            )
        )
        program.add_function(helper)
        machine = Machine(layout(program).image)
        assert machine.run(max_steps=100).exit_code == 9

    def test_jmp_does_not_link_with_zero_ra(self):
        program = Program("t")
        fn = Function("main")
        fn.add_block(
            BasicBlock(
                "m.a",
                instrs=assemble(
                    "addi r31, 7, r26\n"
                    "ldah r4, 0(r31)\nlda r4, 0(r4)\nldw r4, 0(r4)\n"
                    "jmp (r4)"
                ),
                data_refs={1: "T", 2: "T"},
            )
        )
        fn.add_block(
            BasicBlock(
                "m.done",
                instrs=assemble("add r26, r31, r16\nsys exit"),
            )
        )
        program.add_function(fn)
        from repro.program import DataObject

        program.add_data(
            DataObject("T", words=[0], relocs={0: "m.done"})
        )
        machine = Machine(layout(program).image)
        # r26 must still hold 7: the jmp used ra = zero
        assert machine.run(max_steps=100).exit_code == 7


class TestAddressFormation:
    @given(st.integers(0, (1 << 15) - 1), st.integers(0, 100))
    def test_lda_ldah_compose(self, lo, hi):
        program = Program("t")
        fn = Function("main")
        fn.add_block(
            BasicBlock(
                "m.a",
                instrs=assemble(
                    f"ldah r1, {hi}(r31)\nlda r1, {lo}(r1)\n"
                    "add r1, r31, r16\nsys exit"
                ),
            )
        )
        program.add_function(fn)
        machine = Machine(layout(program).image)
        run = machine.run(max_steps=100)
        assert run.exit_code == ((hi << 16) + lo) & U32
