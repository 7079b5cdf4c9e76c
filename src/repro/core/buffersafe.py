"""Buffer-safe function analysis (Section 6.1 of the paper).

A callee is *buffer-safe* if neither it nor anything it may call can
invoke the decompressor: a call from compressed code to a buffer-safe
function can stay an ordinary call -- the buffer cannot be overwritten
during the callee's execution, so no restore stub is needed and the
caller is not re-decompressed on return.

The analysis marks as non-buffer-safe every function with a compressed
block and every function containing an indirect call whose possible
targets include a non-buffer-safe function, then propagates unsafeness
from callees to callers; everything unmarked is buffer-safe.  An
indirect call may reach every address-taken function, so a ``jsr``
with no address-taken function at all is unsafe outright.
"""

from __future__ import annotations

from repro.core.regions import RegionContext
from repro.program.program import Program


def buffer_safe_functions(
    program: Program,
    compressed_blocks: set[str],
) -> set[str]:
    """Names of buffer-safe functions.

    ``compressed_blocks`` is the union of all region blocks.
    """
    return safe_functions(RegionContext.build(program), compressed_blocks)


def safe_functions(
    ctx: RegionContext, compressed_blocks: set[str]
) -> set[str]:
    """:func:`buffer_safe_functions` from the facts of *ctx*.

    Unsafeness spreads once, from each unsafe function to its callers
    over the reverse call graph: the direct callers of its entry
    (``ctx.call_sites_of``), and every function with a ``jsr`` when it
    is address-taken.
    """
    program = ctx.program
    block_func = ctx.block_func
    taken = program.address_taken
    unsafe = {
        block_func[label] for label in compressed_blocks
        if label in block_func
    }
    if not taken:
        unsafe |= ctx.indirect_callers
    work = list(unsafe)
    while work:
        name = work.pop()
        callers = {
            block_func[label]
            for label in ctx.call_sites_of.get(ctx.entries.get(name), ())
        }
        if name in taken:
            callers |= ctx.indirect_callers
        callers -= unsafe
        unsafe |= callers
        work.extend(callers)
    return set(program.functions) - unsafe
