"""Unswitching cold jump tables (Section 6.2)."""

from repro.core.unswitch import unswitch_cold_tables
from repro.isa import assemble
from repro.program import (
    BasicBlock,
    DataObject,
    Function,
    JumpTableInfo,
    Program,
)
from repro.program.layout import layout
from repro.vm.machine import Machine
from repro.vm.profiler import Profile, collect_profile
from repro.workloads.builder import BlockBuilder


def switch_program(extent_known: bool = True) -> Program:
    """Reads a word, dispatches 0..3 through a jump table, writes the
    case id, exits."""
    program = Program("p")
    fn = Function("main")

    entry = BlockBuilder("m.entry")
    entry.emit(assemble("sys read")[0])
    # selector = value & 3 in r9
    from repro.isa.opcodes import AluOp
    entry.ri(AluOp.AND, 0, 3, 9)
    entry.table_jump(9, 4, "tab", extent_known)
    fn.add_block(entry.build())

    for case in range(4):
        fn.add_block(
            BasicBlock(
                f"m.case{case}",
                instrs=assemble(
                    f"addi r31, {10 + case}, r16\nsys write\nbr 0"
                ),
                branch_target="m.done",
            )
        )
    fn.add_block(BasicBlock("m.done", instrs=assemble("halt")))
    program.add_function(fn)
    program.add_data(
        DataObject(
            "tab",
            words=[0] * 4,
            relocs={i: f"m.case{i}" for i in range(4)},
            is_jump_table=True,
        )
    )
    program.validate()
    return program


def profile_of(program, input_words):
    result = layout(program)
    return collect_profile(program, result.image, input_words)


def run(program, input_words):
    machine = Machine(layout(program).image, input_words=input_words)
    return machine.run(max_steps=10_000)


def test_unswitch_removes_table_and_preserves_behaviour():
    program = switch_program()
    expected = [run(program, [k]).output for k in range(4)]

    cold = {b.label for _, b in program.all_blocks()}
    profile = profile_of(program, [0])
    result = unswitch_cold_tables(program, cold, profile)

    assert result.unswitched_blocks == 1
    assert result.reclaimed_words == 4
    assert "tab" not in program.data
    program.validate()
    for k in range(4):
        assert run(program, [k]).output == expected[k]


def test_unswitch_creates_chain_blocks():
    program = switch_program()
    cold = {b.label for _, b in program.all_blocks()}
    profile = profile_of(program, [0])
    result = unswitch_cold_tables(program, cold, profile)
    # n-1 test blocks plus a final unconditional block
    assert len(result.new_blocks) == 4
    for label in result.new_blocks:
        assert label in cold
        assert profile.counts[label] == profile.counts["m.entry"]


def test_hot_table_left_alone():
    program = switch_program()
    profile = profile_of(program, [0])
    result = unswitch_cold_tables(program, set(), profile)
    assert result.unswitched_blocks == 0
    assert "tab" in program.data


def test_unknown_extent_excludes():
    program = switch_program(extent_known=False)
    cold = {b.label for _, b in program.all_blocks()}
    profile = profile_of(program, [0])
    result = unswitch_cold_tables(program, cold, profile)
    assert result.unswitched_blocks == 0
    assert "m.entry" in result.excluded
    for case in range(4):
        assert f"m.case{case}" in result.excluded
    assert "tab" in program.data  # still needed


def test_nonmatching_idiom_excluded():
    program = switch_program()
    profile = profile_of(program, [0])
    # break the idiom: clobber the add (the program is no longer run)
    block = program.functions["main"].blocks["m.entry"]
    block.instrs[-3] = assemble("add r4, r4, r4")[0]
    cold = {b.label for _, b in program.all_blocks()}
    result = unswitch_cold_tables(program, cold, profile)
    assert result.unswitched_blocks == 0
    assert "m.entry" in result.excluded


def test_unswitched_block_count_survives_squash(mini_profile):
    """After unswitching, the blocks are compressible end to end."""
    program = switch_program()
    expected = [run(program, [k]).output for k in range(4)]

    from repro.core.pipeline import SquashConfig, squash_program

    profile = profile_of(program, [0])
    result = squash_program(program, profile, SquashConfig(theta=1.0))
    assert result.info.unswitch.unswitched_blocks == 1
    for k in range(4):
        run_result, _ = result.run([k])
        assert run_result.output == expected[k]
