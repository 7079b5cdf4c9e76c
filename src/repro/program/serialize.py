"""Whole-program IR serialisation (JSON-compatible dicts).

The staged sweep harness persists squeeze output across processes and
runs; this module is the faithful round-trip it relies on.  Lists carry
every order the in-memory IR has: functions, blocks and data objects
in layout order, and each index map (a block's ``call_targets`` and
``data_refs``, a data object's ``relocs``) as ``[[index, value], ...]``
in insertion order.  The artifact store writes JSON with sorted keys,
so an index map written as an object would come back in key order;
the region packer breaks ties in ``call_targets`` order, so that would
change the squashed image.  Format 2 is the list form; format 1 wrote
objects and is rejected.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.program.blocks import BasicBlock, JumpTableInfo
from repro.program.data import DataObject
from repro.program.function import Function
from repro.program.program import Program

__all__ = ["program_to_dict", "program_from_dict"]

FORMAT_VERSION = 2


def _instr_to_list(instr: Instruction) -> list[int]:
    return [
        int(instr.op),
        instr.ra,
        instr.rb,
        instr.rc,
        instr.func,
        instr.imm,
    ]


def _instr_from_list(row: list[int]) -> Instruction:
    op, ra, rb, rc, func, imm = row
    return Instruction(
        Op(op), ra=ra, rb=rb, rc=rc, func=func, imm=imm
    )


def _pairs(index_map: dict[int, str]) -> list[list]:
    return [[index, value] for index, value in index_map.items()]


def _index_map(pairs: list[list]) -> dict[int, str]:
    return {int(index): value for index, value in pairs}


def _block_to_dict(block: BasicBlock) -> dict:
    out: dict = {
        "label": block.label,
        "instrs": [_instr_to_list(i) for i in block.instrs],
    }
    if block.fallthrough is not None:
        out["fallthrough"] = block.fallthrough
    if block.branch_target is not None:
        out["branch_target"] = block.branch_target
    if block.call_targets:
        out["call_targets"] = _pairs(block.call_targets)
    if block.data_refs:
        out["data_refs"] = _pairs(block.data_refs)
    if block.jump_table is not None:
        out["jump_table"] = {
            "data_symbol": block.jump_table.data_symbol,
            "extent_known": block.jump_table.extent_known,
        }
    return out


def _block_from_dict(obj: dict) -> BasicBlock:
    table = obj.get("jump_table")
    return BasicBlock(
        label=obj["label"],
        instrs=[_instr_from_list(row) for row in obj["instrs"]],
        fallthrough=obj.get("fallthrough"),
        branch_target=obj.get("branch_target"),
        call_targets=_index_map(obj.get("call_targets", ())),
        data_refs=_index_map(obj.get("data_refs", ())),
        jump_table=(
            JumpTableInfo(
                data_symbol=table["data_symbol"],
                extent_known=table["extent_known"],
            )
            if table is not None
            else None
        ),
    )


def program_to_dict(program: Program) -> dict:
    """A JSON-compatible dict preserving layout order everywhere."""
    return {
        "format": FORMAT_VERSION,
        "name": program.name,
        "entry": program.entry,
        "address_taken": sorted(program.address_taken),
        "functions": [
            {
                "name": function.name,
                "entry": function.entry,
                "blocks": [
                    _block_to_dict(block)
                    for block in function.blocks.values()
                ],
            }
            for function in program.functions.values()
        ],
        "data": [
            {
                "name": obj.name,
                "words": list(obj.words),
                "relocs": _pairs(obj.relocs),
                "is_jump_table": obj.is_jump_table,
            }
            for obj in program.data.values()
        ],
    }


def program_from_dict(obj: dict) -> Program:
    """Rebuild a :class:`Program` saved by :func:`program_to_dict`."""
    version = obj.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported program format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    program = Program(name=obj["name"])
    for fn_obj in obj["functions"]:
        function = Function(name=fn_obj["name"])
        for block_obj in fn_obj["blocks"]:
            function.add_block(_block_from_dict(block_obj))
        function.entry = fn_obj["entry"]
        program.functions[function.name] = function
    program.entry = obj["entry"]
    program.address_taken = set(obj["address_taken"])
    for data_obj in obj["data"]:
        program.add_data(
            DataObject(
                name=data_obj["name"],
                words=list(data_obj["words"]),
                relocs=_index_map(data_obj["relocs"]),
                is_jump_table=data_obj["is_jump_table"],
            )
        )
    program.validate()
    return program
