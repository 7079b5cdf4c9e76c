"""Control-flow and call-graph queries over the program IR."""

from __future__ import annotations

from collections import deque

from repro.program.blocks import BasicBlock
from repro.program.program import Program


def block_successors(program: Program, block: BasicBlock) -> list[str]:
    """Intra-procedural successor block labels of *block*.

    Includes branch targets, fallthrough, and jump-table targets; does
    not include call targets (calls return to the fallthrough path
    within the same block).
    """
    succs: list[str] = []
    if block.branch_target is not None:
        succs.append(block.branch_target)
    if block.fallthrough is not None:
        succs.append(block.fallthrough)
    if block.jump_table is not None:
        table = program.data[block.jump_table.data_symbol]
        for index in sorted(table.relocs):
            target = table.relocs[index]
            if target not in succs:
                succs.append(target)
    return succs


def block_predecessors(program: Program) -> dict[str, list[str]]:
    """Map block label -> labels of intra-procedural predecessor blocks."""
    preds: dict[str, list[str]] = {
        block.label: [] for _, block in program.all_blocks()
    }
    for _, block in program.all_blocks():
        for succ in block_successors(program, block):
            preds[succ].append(block.label)
    return preds


def reachable_blocks(program: Program) -> set[str]:
    """Labels of blocks reachable from the program entry.

    Reachability follows intra-procedural edges, direct calls,
    jump-table targets, and treats every address-taken function as a
    potential indirect-call/branch target (the conservative assumption
    of a binary rewriter).
    """
    worklist: deque[str] = deque()
    seen: set[str] = set()

    def push_function(name: str) -> None:
        function = program.functions.get(name)
        if function is not None and function.entry is not None:
            push_block(function.entry)

    def push_block(label: str) -> None:
        if label not in seen:
            seen.add(label)
            worklist.append(label)

    if program.entry is not None:
        push_function(program.entry)
    for name in program.address_taken:
        push_function(name)

    while worklist:
        label = worklist.popleft()
        _, block = program.find_block(label)
        for succ in block_successors(program, block):
            push_block(succ)
        for target in block.call_targets.values():
            push_function(target)
    return seen


def call_graph(program: Program) -> dict[str, set[str]]:
    """Map function name -> set of possible callee names.

    Indirect calls contribute edges to every address-taken function.
    """
    graph: dict[str, set[str]] = {name: set() for name in program.functions}
    for function in program.functions.values():
        for block in function.blocks.values():
            graph[function.name].update(block.call_targets.values())
            if any(i.is_indirect_call for i in block.instrs):
                graph[function.name].update(program.address_taken)
    return graph

