"""Layout: assign addresses and materialise a :class:`LoadedImage`.

Branch displacements and call displacements are symbolic in the IR;
this module resolves them.  A block whose fallthrough successor is not
laid out immediately after it gets an explicit ``br`` appended -- the
same rule the squash rewriter uses when compressed blocks are pulled
out of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.encoding import encode, encode_fields
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, REG_ZERO
from repro.program.blocks import BasicBlock
from repro.program.image import LoadedImage, Segment
from repro.program.program import Program

#: Default base address of the text segment (word address).
TEXT_BASE = 0x1000


def branch_displacement(from_addr: int, to_addr: int) -> int:
    """PC-relative displacement for a branch at *from_addr* to *to_addr*."""
    return to_addr - (from_addr + 1)


def split_hi_lo(addr: int) -> tuple[int, int]:
    """Split an address into (ldah, lda) immediates.

    The low half is sign-extended by ``lda``, so the high half is
    compensated: ``(hi << 16) + sign_extend(lo) == addr``.
    """
    lo = addr & 0xFFFF
    if lo >= 0x8000:
        lo -= 0x10000
    hi = (addr - lo) >> 16
    return hi, lo


def data_ref_imm(op: Op, addr: int) -> int:
    """The immediate a data relocation to *addr* gives an *op*
    instruction: the high half for ``ldah``, the low half otherwise."""
    hi, lo = split_hi_lo(addr)
    return hi if op is Op.LDAH else lo


def resolve_data_ref(instr: Instruction, addr: int) -> Instruction:
    """Materialise a data relocation into an ``lda``/``ldah`` immediate."""
    return Instruction(
        instr.op, ra=instr.ra, rb=instr.rb, imm=data_ref_imm(instr.op, addr)
    )


def rewritten_indices(block: BasicBlock) -> list[int]:
    """The indices, in order, of the instructions of *block* whose
    fields layout rewrites: its data references, its direct calls and a
    terminating branch.

    A data reference wins over a call at the same index, and either
    wins over the terminating branch; every other instruction is
    encoded as it is.
    """
    indices = {*block.data_refs, *block.call_targets}
    term = block.terminator
    if term is not None and (term.is_cond_branch or term.is_uncond_branch):
        indices.add(len(block.instrs) - 1)
    return sorted(indices)


def encode_block_words(
    block: BasicBlock,
    addr: int,
    resolve_label: Callable[[str], int],
    resolve_func: Callable[[str], int],
    next_label: str | None,
    resolve_data: Callable[[str], int] | None = None,
) -> list[int]:
    """Encode *block* at *addr*, resolving branches, calls, fallthrough.

    ``next_label`` is the label laid out immediately after this block
    (or None); an explicit ``br`` to the fallthrough successor is
    appended when they differ.  This helper is shared by the plain
    linker and the squash rewriter (which resolves labels of compressed
    blocks to their entry stubs).  Only the instructions at
    :func:`rewritten_indices` are packed field by field; each run
    between them is encoded as it is.
    """
    instrs = block.instrs
    words: list[int] = []
    start = 0
    for index in rewritten_indices(block):
        words.extend(map(encode, instrs[start:index]))
        start = index + 1
        instr = instrs[index]
        symbol = block.data_refs.get(index)
        if symbol is not None:
            if resolve_data is None:
                raise ValueError(
                    f"block {block.label!r} has data refs but no resolver"
                )
            words.append(encode_fields(
                instr.op, instr.ra, instr.rb,
                data_ref_imm(instr.op, resolve_data(symbol)),
            ))
            continue
        callee = block.call_targets.get(index)
        if callee is not None:
            target = resolve_func(callee)
        else:  # the terminating branch
            assert block.branch_target is not None
            target = resolve_label(block.branch_target)
        words.append(encode_fields(
            instr.op, instr.ra, branch_displacement(addr + index, target)
        ))
    words.extend(map(encode, instrs[start:]))
    if needs_fallthrough_br(block, next_label):
        assert block.fallthrough is not None
        target = resolve_label(block.fallthrough)
        words.append(encode_fields(
            Op.BR, REG_ZERO, branch_displacement(addr + len(words), target)
        ))
    return words


def needs_fallthrough_br(block: BasicBlock, next_label: str | None) -> bool:
    """True if *block* needs an explicit ``br`` to its fallthrough."""
    return block.fallthrough is not None and block.fallthrough != next_label


@dataclass
class AddressMap:
    """The address pass of :func:`layout`: where everything goes.

    Computing it validates the program but encodes nothing, so it is
    all a caller that only needs sizes pays for.
    """

    #: (block, label laid out right after it) in layout order.
    plan: list[tuple[BasicBlock, str | None]]
    block_addr: dict[str, int]
    func_addr: dict[str, int]
    data_addr: dict[str, int]
    #: Address of each block's appended fallthrough ``br`` (if any).
    fallthrough_br_addr: dict[str, int]
    text_base: int
    text_end: int
    data_end: int

    @property
    def text_words(self) -> int:
        """Size of the text segment."""
        return self.text_end - self.text_base

    @property
    def inserted_jumps(self) -> int:
        """Number of ``br`` instructions inserted for displaced
        fallthroughs."""
        return len(self.fallthrough_br_addr)


@dataclass
class LayoutResult(AddressMap):
    """Addresses and image produced by :func:`layout`."""

    image: LoadedImage


def assign_addresses(
    program: Program, text_base: int = TEXT_BASE
) -> AddressMap:
    """Validate *program* and assign every block, function and data
    object its address: text first (functions and blocks in IR order),
    then data."""
    program.validate()

    plan: list[tuple[BasicBlock, str | None]] = []
    for function in program.functions.values():
        blocks = function.block_order()
        for index, block in enumerate(blocks):
            next_label = (
                blocks[index + 1].label if index + 1 < len(blocks) else None
            )
            plan.append((block, next_label))

    block_addr: dict[str, int] = {}
    fallthrough_br_addr: dict[str, int] = {}
    addr = text_base
    for block, next_label in plan:
        block_addr[block.label] = addr
        addr += block.size
        if needs_fallthrough_br(block, next_label):
            fallthrough_br_addr[block.label] = addr
            addr += 1
    text_end = addr

    func_addr = {
        function.name: block_addr[function.entry]  # type: ignore[index]
        for function in program.functions.values()
    }

    data_addr: dict[str, int] = {}
    for obj in program.data.values():
        data_addr[obj.name] = addr
        addr += obj.size
    return AddressMap(
        plan=plan,
        block_addr=block_addr,
        func_addr=func_addr,
        data_addr=data_addr,
        fallthrough_br_addr=fallthrough_br_addr,
        text_base=text_base,
        text_end=text_end,
        data_end=addr,
    )


def layout(program: Program, text_base: int = TEXT_BASE) -> LayoutResult:
    """Lay out *program* into a loaded image.

    The address pass (:func:`assign_addresses`), then the encoding
    pass.  Returns the image plus the address maps.
    """
    addrs = assign_addresses(program, text_base)
    block_addr = addrs.block_addr
    func_addr = addrs.func_addr
    data_addr = addrs.data_addr

    def resolve_label(label: str) -> int:
        return block_addr[label]

    def resolve_func(name: str) -> int:
        return func_addr[name]

    def resolve_data(name: str) -> int:
        return data_addr[name]

    memory: list[int] = []
    for block, next_label in addrs.plan:
        memory.extend(
            encode_block_words(
                block,
                block_addr[block.label],
                resolve_label,
                resolve_func,
                next_label,
                resolve_data,
            )
        )
    assert len(memory) == addrs.text_words

    for obj in program.data.values():
        for index, word in enumerate(obj.words):
            target = obj.relocs.get(index)
            if target is not None:
                if target in func_addr:
                    word = func_addr[target]
                else:
                    word = block_addr[target]
            memory.append(word & 0xFFFFFFFF)
    assert len(memory) == addrs.data_end - text_base

    symbols: dict[str, int] = {}
    symbols.update(func_addr)
    symbols.update(block_addr)
    symbols.update(data_addr)

    text_end = addrs.text_end
    image = LoadedImage(
        memory=memory,
        base=text_base,
        entry_pc=func_addr[program.entry],  # type: ignore[index]
        segments=[
            Segment("text", text_base, addrs.text_words),
            Segment("data", text_end, addrs.data_end - text_end),
        ],
        symbols=symbols,
        block_heads={address: label for label, address in block_addr.items()},
    )
    return LayoutResult(image=image, **vars(addrs))
