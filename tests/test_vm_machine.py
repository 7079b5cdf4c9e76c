"""Interpreter semantics: ALU ops, memory, branches, syscalls, faults."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import assemble
from repro.program import BasicBlock, DataObject, Function, Program
from repro.program.layout import layout
from repro.vm.machine import (
    FuelExhausted,
    IllegalInstructionFault,
    Machine,
    MemoryFault,
)

U32 = (1 << 32) - 1

pytestmark = pytest.mark.usefixtures("vm_translate_after")


def run_fragment(body: str, input_words=(), data_words=None):
    """Assemble a straight-line fragment ending in halt and run it."""
    program = Program("t")
    fn = Function("main")
    fn.add_block(BasicBlock("m.a", instrs=assemble(body + "\nhalt")))
    program.add_function(fn)
    if data_words is not None:
        program.add_data(DataObject("D", words=list(data_words)))
    result = layout(program)
    machine = Machine(result.image, input_words=input_words)
    run = machine.run(max_steps=100_000)
    return machine, run, result


def regs_after(body: str, **kwargs):
    machine, _, _ = run_fragment(body, **kwargs)
    return machine.regs


class TestAlu:
    def test_add_sub_wraparound(self):
        regs = regs_after(
            "addi r31, 255, r1\nslli r1, 24, r1\nadd r1, r1, r2"
        )
        assert regs[1] == 255 << 24
        assert regs[2] == (2 * (255 << 24)) & U32

    def test_sub_borrow(self):
        regs = regs_after("addi r31, 1, r1\nsubi r31, 1, r2\nsub r31, r1, r3")
        assert regs[2] == U32  # 0 - 1 wraps
        assert regs[3] == U32

    def test_mul(self):
        regs = regs_after("addi r31, 200, r1\nmuli r1, 200, r2")
        assert regs[2] == 40000

    def test_logical(self):
        regs = regs_after(
            "addi r31, 0b1100, r1\nandi r1, 0b1010, r2\n"
            "ori r1, 0b0001, r3\nxori r1, 0b0110, r4"
        )
        assert regs[2] == 0b1000
        assert regs[3] == 0b1101
        assert regs[4] == 0b1010

    def test_shifts(self):
        regs = regs_after(
            "addi r31, 1, r1\nslli r1, 31, r2\nsrli r2, 31, r3\nsrai r2, 31, r4"
        )
        assert regs[2] == 1 << 31
        assert regs[3] == 1
        assert regs[4] == U32  # arithmetic shift of the sign bit

    def test_shift_amount_masked(self):
        regs = regs_after("addi r31, 1, r1\nslli r1, 33, r2")
        assert regs[2] == 2  # 33 & 31 == 1

    def test_signed_compares(self):
        regs = regs_after(
            "subi r31, 1, r1\n"  # r1 = -1
            "addi r31, 1, r2\n"
            "cmplt r1, r2, r3\n"
            "cmple r1, r1, r4\n"
            "cmpeq r1, r2, r5"
        )
        assert regs[3] == 1
        assert regs[4] == 1
        assert regs[5] == 0

    def test_unsigned_compares(self):
        regs = regs_after(
            "subi r31, 1, r1\naddi r31, 1, r2\n"
            "cmpult r1, r2, r3\ncmpule r2, r1, r4"
        )
        assert regs[3] == 0  # 0xffffffff is huge unsigned
        assert regs[4] == 1

    def test_udiv_urem(self):
        regs = regs_after(
            "addi r31, 17, r1\nudivi r1, 5, r2\nuremi r1, 5, r3"
        )
        assert regs[2] == 3
        assert regs[3] == 2

    def test_division_by_zero_yields_zero(self):
        regs = regs_after("addi r31, 17, r1\nudiv r1, r31, r2\nurem r1, r31, r3")
        assert regs[2] == 0
        assert regs[3] == 0

    def test_zero_register_write_discarded(self):
        regs = regs_after("addi r31, 7, r31\nadd r31, r31, r1")
        assert regs[1] == 0


class TestMemory:
    def test_load_store_roundtrip(self):
        machine, _, result = run_fragment(
            "lda r1, 0(r31)\nldah r1, 0(r1)\n"
            "addi r31, 99, r2",
        )
        # direct memory via privileged API
        machine.write_word(machine.heap_base, 1234)
        assert machine.read_word(machine.heap_base) == 1234

    def test_stack_load_store(self):
        regs = regs_after(
            "subi r30, 2, r30\naddi r31, 55, r1\nstw r1, 0(r30)\n"
            "ldw r2, 0(r30)\naddi r30, 2, r30"
        )
        assert regs[2] == 55

    def test_data_segment_access(self):
        program = Program("t")
        fn = Function("main")
        block = BasicBlock(
            "m.a",
            instrs=assemble(
                "ldah r1, 0(r31)\nlda r1, 0(r1)\nldw r2, 1(r1)\n"
                "addi r2, 1, r2\nstw r2, 1(r1)\nhalt"
            ),
        )
        block.data_refs = {0: "D", 1: "D"}
        fn.add_block(block)
        program.add_function(fn)
        program.add_data(DataObject("D", words=[5, 6]))
        result = layout(program)
        machine = Machine(result.image)
        machine.run(max_steps=100)
        addr = result.data_addr["D"]
        assert machine.regs[2] == 7
        assert machine.mem[addr + 1] == 7

    def test_store_to_text_faults(self):
        with pytest.raises(MemoryFault):
            run_fragment("lda r1, 0x1000(r31)\nstw r1, 0(r1)")

    def test_load_out_of_range_faults(self):
        with pytest.raises(MemoryFault):
            run_fragment("subi r31, 1, r1\nldw r2, 0(r1)")

    def test_stack_depth_tracked(self):
        _, run, _ = run_fragment("subi r30, 64, r30\naddi r30, 64, r30")
        assert run.max_stack_depth == 64


class TestControl:
    def test_branches_taken_and_not(self):
        program = Program("t")
        fn = Function("main")
        fn.add_block(
            BasicBlock(
                "m.a",
                instrs=assemble("addi r31, 0, r1\nbeq r1, 0"),
                branch_target="m.c",
                fallthrough="m.b",
            )
        )
        fn.add_block(
            BasicBlock(
                "m.b", instrs=assemble("addi r31, 1, r9\nhalt")
            )
        )
        fn.add_block(
            BasicBlock(
                "m.c", instrs=assemble("addi r31, 2, r9\nhalt")
            )
        )
        program.add_function(fn)
        machine = Machine(layout(program).image)
        machine.run(max_steps=100)
        assert machine.regs[9] == 2  # beq on zero taken

    def test_call_and_return(self):
        program = Program("t")
        main = Function("main")
        block = BasicBlock(
            "m.a", instrs=assemble("addi r31, 5, r16\nbsr r26, 0\nhalt")
        )
        block.call_targets[1] = "double"
        main.add_block(block)
        program.add_function(main)
        callee = Function("double")
        callee.add_block(
            BasicBlock("d.a", instrs=assemble("add r16, r16, r0\nret"))
        )
        program.add_function(callee)
        machine = Machine(layout(program).image)
        machine.run(max_steps=100)
        assert machine.regs[0] == 10

    def test_sentinel_faults(self):
        with pytest.raises(IllegalInstructionFault):
            run_fragment("sentinel")

    def test_fuel_exhaustion(self):
        program = Program("t")
        fn = Function("main")
        fn.add_block(
            BasicBlock(
                "m.a", instrs=assemble("br 0"), branch_target="m.a"
            )
        )
        program.add_function(fn)
        machine = Machine(layout(program).image)
        with pytest.raises(FuelExhausted):
            machine.run(max_steps=100)


class TestSyscalls:
    def test_read_until_eof(self):
        machine, run, _ = run_fragment(
            "sys read\nadd r0, r31, r9\nsys read\nsys read",
            input_words=[11, 22],
        )
        assert machine.regs[9] == 11
        assert machine.regs[1] == 0  # third read hit EOF

    def test_write_and_exit_code(self):
        _, run, _ = run_fragment(
            "addi r31, 42, r16\nsys write\naddi r31, 3, r16\nsys exit"
        )
        assert run.output == [42]
        assert run.exit_code == 3

    def test_halt_is_exit_zero(self):
        _, run, _ = run_fragment("nop")
        assert run.exit_code == 0

    def test_setjmp_longjmp(self):
        program = Program("t")
        fn = Function("main")
        fn.add_block(
            BasicBlock(
                "m.a",
                instrs=assemble(
                    "ldah r16, 0(r31)\nlda r16, 0(r16)\nsys setjmp"
                ),
                fallthrough="m.b",
                data_refs={0: "JB", 1: "JB"},
            )
        )
        fn.add_block(
            BasicBlock(
                "m.b",
                instrs=assemble("bne r0, 0"),
                branch_target="m.done",
                fallthrough="m.c",
            )
        )
        fn.add_block(
            BasicBlock(
                "m.c",
                instrs=assemble(
                    "addi r31, 9, r17\nldah r16, 0(r31)\nlda r16, 0(r16)\n"
                    "sys longjmp"
                ),
                data_refs={1: "JB", 2: "JB"},
            )
        )
        fn.add_block(
            BasicBlock(
                "m.done",
                instrs=assemble("add r0, r31, r16\nsys write\nhalt"),
            )
        )
        program.add_function(fn)
        program.add_data(DataObject("JB", words=[0] * 4))
        machine = Machine(layout(program).image)
        run = machine.run(max_steps=1000)
        assert run.output == [9]  # longjmp value delivered as setjmp result


class TestServices:
    def test_service_trap_intercepts_pc(self):
        program = Program("t")
        fn = Function("main")
        block = BasicBlock("m.a", instrs=assemble("bsr r26, 0\nhalt"))
        block.call_targets[0] = "svc"
        fn.add_block(block)
        program.add_function(fn)
        svc = Function("svc")
        svc.add_block(BasicBlock("s.a", instrs=assemble("ret")))
        program.add_function(svc)
        result = layout(program)

        calls = []

        def handler(machine):
            calls.append(machine.pc)
            machine.regs[9] = 77
            machine.charge(1000)
            machine.pc = machine.regs[26]  # behave like a return

        machine = Machine(
            result.image,
            services={result.func_addr["svc"]: handler},
        )
        run = machine.run(max_steps=100)
        assert calls == [result.func_addr["svc"]]
        assert machine.regs[9] == 77
        assert run.cycles >= 1000

    def test_service_can_exit(self):
        program = Program("t")
        fn = Function("main")
        fn.add_block(BasicBlock("m.a", instrs=assemble("nop\nhalt")))
        program.add_function(fn)
        result = layout(program)

        def handler(machine):
            machine.exit_code = 7

        machine = Machine(result.image, services={result.image.entry_pc: handler})
        run = machine.run(max_steps=10)
        assert run.exit_code == 7


@given(st.integers(0, U32), st.integers(0, U32))
def test_alu_matches_python_model(a, b):
    """Cross-check ADD/SUB/MUL/XOR against Python arithmetic."""
    program = Program("t")
    fn = Function("main")
    fn.add_block(
        BasicBlock(
            "m.a",
            instrs=assemble(
                "sys read\nadd r0, r31, r9\nsys read\nadd r0, r31, r10\n"
                "add r9, r10, r1\nsub r9, r10, r2\nmul r9, r10, r3\n"
                "xor r9, r10, r4\nhalt"
            ),
        )
    )
    program.add_function(fn)
    machine = Machine(layout(program).image, input_words=[a, b])
    machine.run(max_steps=100)
    assert machine.regs[1] == (a + b) & U32
    assert machine.regs[2] == (a - b) & U32
    assert machine.regs[3] == (a * b) & U32
    assert machine.regs[4] == a ^ b
