"""CFG and call-graph queries."""

from repro.isa import assemble
from repro.program import (
    BasicBlock,
    DataObject,
    Function,
    JumpTableInfo,
    Program,
    block_predecessors,
    block_successors,
    call_graph,
    reachable_blocks,
)


def diamond_program() -> Program:
    program = Program("p")
    fn = Function("main")
    fn.add_block(
        BasicBlock(
            "m.a",
            instrs=assemble("beq r1, 0"),
            branch_target="m.c",
            fallthrough="m.b",
        )
    )
    fn.add_block(BasicBlock("m.b", instrs=assemble("nop"), fallthrough="m.d"))
    fn.add_block(BasicBlock("m.c", instrs=assemble("nop"), fallthrough="m.d"))
    fn.add_block(BasicBlock("m.d", instrs=assemble("halt")))
    program.add_function(fn)
    return program


def test_successors_diamond():
    program = diamond_program()
    fn = program.functions["main"]
    assert block_successors(program, fn.blocks["m.a"]) == ["m.c", "m.b"]
    assert block_successors(program, fn.blocks["m.b"]) == ["m.d"]
    assert block_successors(program, fn.blocks["m.d"]) == []


def test_predecessors():
    program = diamond_program()
    preds = block_predecessors(program)
    assert sorted(preds["m.d"]) == ["m.b", "m.c"]
    assert preds["m.a"] == []


def test_jump_table_successors():
    program = diamond_program()
    fn = program.functions["main"]
    block = BasicBlock("m.sw", instrs=assemble("jmp (r4)"))
    block.jump_table = JumpTableInfo("tab")
    fn.blocks["m.b"].fallthrough = "m.sw"
    fn.add_block(block)
    program.add_data(
        DataObject(
            "tab", words=[0, 0], relocs={0: "m.c", 1: "m.d"},
            is_jump_table=True,
        )
    )
    program.validate()
    assert block_successors(program, block) == ["m.c", "m.d"]


def test_reachability_follows_calls():
    program = diamond_program()
    callee = Function("callee")
    callee.add_block(BasicBlock("c.a", instrs=assemble("ret")))
    program.add_function(callee)
    dead = Function("dead")
    dead.add_block(BasicBlock("d.a", instrs=assemble("ret")))
    program.add_function(dead)

    block = program.functions["main"].blocks["m.b"]
    block.instrs = assemble("bsr r26, 0")
    block.call_targets[0] = "callee"

    live = reachable_blocks(program)
    assert "c.a" in live
    assert "d.a" not in live
    assert {"m.a", "m.b", "m.c", "m.d"} <= live


def test_reachability_includes_address_taken():
    program = diamond_program()
    fp = Function("fp_target")
    fp.add_block(BasicBlock("fp.a", instrs=assemble("ret")))
    program.add_function(fp)
    assert "fp.a" not in reachable_blocks(program)
    program.address_taken.add("fp_target")
    assert "fp.a" in reachable_blocks(program)


def test_call_graph_direct_and_indirect():
    program = diamond_program()
    for name in ("f", "g"):
        fn = Function(name)
        fn.add_block(BasicBlock(f"{name}.a", instrs=assemble("ret")))
        program.add_function(fn)
    block = program.functions["main"].blocks["m.b"]
    block.instrs = assemble("bsr r26, 0\njsr r26, (r4)")
    block.call_targets[0] = "f"
    block.fallthrough = "m.d"
    program.address_taken.add("g")

    graph = call_graph(program)
    assert graph["main"] == {"f", "g"}  # g via the indirect call
    assert graph["f"] == set()
