"""Program representation: basic blocks, functions, CFGs, images.

The IR mirrors what a binary-rewriting tool like the paper's *squash*
(and its substrate *alto*/*squeeze*) works with: a whole program as a
collection of functions made of basic blocks of real machine
instructions, plus data objects, with control-transfer targets kept
symbolic until layout time.  :func:`~repro.program.layout.layout`
assigns addresses, materialises branch displacements and relocations,
and produces a :class:`~repro.program.image.LoadedImage` the VM can
execute.
"""

from repro.program.blocks import BasicBlock, JumpTableInfo
from repro.program.function import Function
from repro.program.data import DataObject
from repro.program.program import Program, ValidationError
from repro.program.cfg import (
    block_successors,
    block_predecessors,
    reachable_blocks,
    call_graph,
)
from repro.program.layout import layout, LayoutResult
from repro.program.image import LoadedImage, Segment

__all__ = [
    "BasicBlock",
    "JumpTableInfo",
    "Function",
    "DataObject",
    "Program",
    "ValidationError",
    "block_successors",
    "block_predecessors",
    "reachable_blocks",
    "call_graph",
    "layout",
    "LayoutResult",
    "LoadedImage",
    "Segment",
]
