"""Compressible-region formation and packing (Section 4 of the paper).

A region is an arbitrary set of compressible basic blocks that is
compressed and decompressed as a unit; the runtime buffer holds at most
one region at a time.  Finding the optimal partition is NP-hard (the
paper reduces PARTITION to it), so squash uses the paper's heuristic:

1. depth-first search from compressible blocks, bounded so the tree has
   at most K instructions (expanded size, since each external call adds
   one instruction in the buffer) and uses blocks of a single function;
2. a profitability test: compress the tree only if the entry stubs it
   needs cost less than the instructions compression saves,
   ``E < (1 - γ) I``;
3. greedy pair packing: repeatedly merge the pair of regions with the
   greatest savings (entry stubs, restore stubs, and fall-through jumps
   between them) that still fits the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import CostModel
from repro.program.blocks import BasicBlock
from repro.program.cfg import block_predecessors, block_successors
from repro.program.program import Program


@dataclass
class Region:
    """One compressible region: an ordered list of block labels.

    The block order is the layout order inside the runtime buffer.
    """

    index: int
    blocks: list[str] = field(default_factory=list)

    def __contains__(self, label: str) -> bool:
        return label in self._set

    @property
    def _set(self) -> set[str]:
        return set(self.blocks)

    def size(self, sizes: dict[str, int]) -> int:
        """Total instruction count of the region's blocks."""
        return sum(sizes[label] for label in self.blocks)


@dataclass
class RegionContext:
    """Pre-computed program facts shared by formation and packing."""

    program: Program
    #: block label -> block (``Program.find_block`` scans every function)
    blocks: dict[str, BasicBlock]
    sizes: dict[str, int]
    preds: dict[str, list[str]]
    block_func: dict[str, str]
    #: function name -> entry block label
    entries: dict[str, str]
    #: block label -> number of call instructions in the block
    calls_in: dict[str, int]
    #: entry label -> labels of blocks containing direct calls to it.
    call_sites_of: dict[str, set[str]]
    #: labels that always need an entry stub when compressed: the
    #: program entry, address-taken function entries (indirect-call
    #: targets), and (added by the rewriter) data-referenced labels.
    forced_entries: set[str]

    @classmethod
    def build(cls, program: Program) -> "RegionContext":
        blocks = {b.label: b for _, b in program.all_blocks()}
        sizes = {label: b.size for label, b in blocks.items()}
        entries = {
            f.name: f.entry for f in program.functions.values() if f.entry
        }
        calls_in = {label: len(b.call_sites()) for label, b in blocks.items()}
        call_sites: dict[str, set[str]] = {}
        for function in program.functions.values():
            for block in function.blocks.values():
                for target in block.call_targets.values():
                    call_sites.setdefault(entries[target], set()).add(
                        block.label
                    )
        forced: set[str] = set()
        for name in program.address_taken:
            forced.add(entries[name])
        if program.entry is not None:
            forced.add(entries[program.entry])
        return cls(
            program=program,
            blocks=blocks,
            sizes=sizes,
            preds=block_predecessors(program),
            block_func=program.block_function(),
            entries=entries,
            calls_in=calls_in,
            call_sites_of=call_sites,
            forced_entries=forced,
        )


def entry_blocks(
    region_blocks: set[str], ctx: RegionContext
) -> set[str]:
    """Blocks of the region that need an entry stub (the set Y).

    A block needs an entry stub if control can enter it from outside
    the region: an intra-procedural edge or a direct call from a block
    not in the region, an indirect call (address-taken entries), a data
    reference, or being the program entry.  A helper whose every caller
    is packed into the same region needs no stub -- this is where
    Section 4's packing savings come from.
    """
    entries: set[str] = set()
    for label in region_blocks:
        if (
            label in ctx.forced_entries
            or any(s not in region_blocks for s in ctx.preds.get(label, ()))
            or any(
                s not in region_blocks
                for s in ctx.call_sites_of.get(label, ())
            )
        ):
            entries.add(label)
    return entries


def _expanded_size(blocks: set[str], ctx: RegionContext) -> int:
    """The size the buffer bound K is checked against: block
    instructions, one extra slot per call (the decompressor's
    expansion), and the entry-jump slot at the buffer start.

    It does not bound the region's footprint in the runtime buffer.
    Classification later adds a trailing fall-through ``br`` for each
    block whose successor is not laid out right after it in the
    buffer, and those are not counted here, so a region's buffered
    size (``RegionSitePlan.expanded_size``, and with it the image's
    ``buffer_words``) can exceed K."""
    return (
        sum(ctx.sizes[b] for b in blocks)
        + sum(ctx.calls_in[b] for b in blocks)
        + 1
    )


def form_regions(
    program: Program,
    compressible: set[str],
    cost: CostModel,
    ctx: RegionContext | None = None,
) -> list[Region]:
    """Initial region formation by bounded depth-first search.

    Trees are grown within one function from each unvisited
    compressible block (in layout order), stopping before the expanded
    size would exceed the buffer bound; unprofitable trees mark their
    root so no search restarts there, but their blocks stay available
    to other trees.
    """
    ctx = ctx or RegionContext.build(program)
    bound = cost.buffer_bound_instrs
    assigned: set[str] = set()
    dead_roots: set[str] = set()
    regions: list[Region] = []

    progress = True
    while progress:
        progress = False
        for function in program.functions.values():
            for root_label in function.blocks:
                if (
                    root_label not in compressible
                    or root_label in assigned
                    or root_label in dead_roots
                ):
                    continue
                tree = _grow_tree(
                    root_label, function.name, compressible, assigned,
                    ctx, bound,
                )
                if not tree:
                    dead_roots.add(root_label)
                    continue
                stub_instrs = cost.entry_stub_words * len(
                    entry_blocks(set(tree), ctx)
                )
                saved = (1.0 - cost.gamma) * sum(
                    ctx.sizes[b] for b in tree
                )
                if stub_instrs < saved:
                    regions.append(Region(index=len(regions), blocks=tree))
                    assigned.update(tree)
                    progress = True
                else:
                    dead_roots.add(root_label)
    return regions


def _grow_tree(
    root: str,
    function_name: str,
    compressible: set[str],
    assigned: set[str],
    ctx: RegionContext,
    bound: int,
) -> list[str]:
    """Depth-first tree of compressible blocks of one function, kept
    within the expanded-size bound.  Returns blocks in DFS order."""
    tree: list[str] = []
    tree_set: set[str] = set()
    used = 1  # the entry-jump slot
    stack = [root]
    while stack:
        label = stack.pop()
        if (
            label in tree_set
            or label in assigned
            or label not in compressible
            or ctx.block_func[label] != function_name
        ):
            continue
        extra = ctx.sizes[label] + ctx.calls_in[label]
        if used + extra > bound:
            continue
        used += extra
        tree.append(label)
        tree_set.add(label)
        block = ctx.blocks[label]
        for succ in reversed(block_successors(ctx.program, block)):
            stack.append(succ)
    return tree


def form_regions_whole_function(
    program: Program,
    compressible: set[str],
    cost: CostModel,
    ctx: RegionContext | None = None,
) -> list[Region]:
    """Alternative region construction (the paper's future work):
    prefer whole cold functions as regions.

    A function whose compressible blocks all fit the buffer bound
    becomes one region (fewer entry stubs: only real entry points need
    them); anything that does not fit falls back to the bounded DFS of
    :func:`form_regions`.  Used by the region-strategy ablation.
    """
    ctx = ctx or RegionContext.build(program)
    bound = cost.buffer_bound_instrs
    regions: list[Region] = []
    leftovers: set[str] = set()

    for function in program.functions.values():
        members = [
            label for label in function.blocks if label in compressible
        ]
        if not members:
            continue
        member_set = set(members)
        if (
            member_set == set(function.blocks)
            and _expanded_size(member_set, ctx) <= bound
        ):
            stub_instrs = cost.entry_stub_words * len(
                entry_blocks(member_set, ctx)
            )
            saved = (1.0 - cost.gamma) * sum(
                ctx.sizes[b] for b in members
            )
            if stub_instrs < saved:
                regions.append(
                    Region(index=len(regions), blocks=list(members))
                )
                continue
        leftovers.update(members)

    for region in form_regions(program, leftovers, cost, ctx):
        region.index = len(regions)
        regions.append(region)
    return regions


def pack_regions(
    program: Program,
    regions: list[Region],
    cost: CostModel,
    ctx: RegionContext | None = None,
) -> list[Region]:
    """Greedy pair packing (Section 4).

    Merging {R, R'} saves: an entry stub for every block whose external
    predecessors all lie in the other region; a restore stub for every
    call between the two regions; and a jump for every fall-through
    edge between them.  Pairs are merged best-first while the merged
    expanded size stays within the buffer bound.

    Each round rescans the adjacent pairs, but only the max term of a
    pair's savings depends on the rest of the pool.  The other terms
    depend on the two block sets alone, so they are cached per pair
    until a merge changes either region.  Regions are disjoint, so a
    merged region's expanded size is the sum of the two less the one
    entry-jump slot they share.
    """
    ctx = ctx or RegionContext.build(program)
    bound = cost.buffer_bound_instrs
    pool: dict[int, Region] = {r.index: r for r in regions}
    owner: dict[str, int] = {}
    for region in regions:
        for label in region.blocks:
            owner[label] = region.index
    members = {r.index: set(r.blocks) for r in regions}
    expanded = {i: _expanded_size(s, ctx) for i, s in members.items()}
    stubs = {i: len(entry_blocks(s, ctx)) for i, s in members.items()}
    # Per pooled block: successors, then the entries of its callees.
    neighbours: dict[str, list[str]] = {}
    callees: dict[str, list[str]] = {}
    for label in owner:
        block = ctx.blocks[label]
        callees[label] = [
            ctx.entries[t] for t in block.call_targets.values()
        ]
        neighbours[label] = (
            block_successors(ctx.program, block) + callees[label]
        )
    #: pair -> (savings less the max term, entry stubs of the union)
    cached: dict[tuple[int, int], tuple[int, int]] = {}

    def pair_savings(ia: int, ib: int) -> tuple[int, int]:
        a_set, b_set = members[ia], members[ib]
        after = len(entry_blocks(a_set | b_set, ctx))
        # One function-offset-table word is reclaimed per merge, plus
        # the entry stubs no longer needed after it.
        saved = 1 + cost.entry_stub_words * (stubs[ia] + stubs[ib] - after)
        for labels, other in ((pool[ia].blocks, b_set),
                              (pool[ib].blocks, a_set)):
            for label in labels:
                # Restore stubs for calls between the two regions.
                for entry in callees[label]:
                    if entry in other:
                        saved += cost.restore_stub_words
                # Fall-through jumps between the regions.
                if ctx.blocks[label].fallthrough in other:
                    saved += 1
        return saved, after

    def adjacent_pairs() -> set[tuple[int, int]]:
        # Built in the same insertion order every round: iteration
        # order over the set, and so the tie-break below, depends on it.
        pairs: set[tuple[int, int]] = set()
        for index, region in pool.items():
            for label in region.blocks:
                for succ in neighbours[label]:
                    other = owner.get(succ)
                    if other is not None and other != index:
                        pairs.add(
                            (index, other) if index < other
                            else (other, index)
                        )
        return pairs

    while True:
        # Merging may enlarge the largest region, and the runtime
        # buffer must hold it (the max term of Section 4's cost).
        current_max = max(expanded.values(), default=0)
        best: tuple[int, int] | None = None
        best_gain = 0
        for pair in adjacent_pairs():
            size = expanded[pair[0]] + expanded[pair[1]] - 1
            if size > bound:
                continue
            savings = cached.get(pair)
            if savings is None:
                savings = cached[pair] = pair_savings(*pair)
            gain = savings[0] - max(0, size - current_max)
            if gain > best_gain:
                best, best_gain = pair, gain
        if best is None:
            break
        ia, ib = best
        a, b = pool.pop(ia), pool.pop(ib)
        pool[ia] = Region(index=ia, blocks=a.blocks + b.blocks)
        for label in b.blocks:
            owner[label] = ia
        members[ia] |= members.pop(ib)
        expanded[ia] += expanded.pop(ib) - 1
        stubs[ia] = cached[best][1]
        del stubs[ib]
        cached = {
            pair: savings for pair, savings in cached.items()
            if ia not in pair and ib not in pair
        }

    packed = sorted(pool.values(), key=lambda r: r.index)
    for new_index, region in enumerate(packed):
        region.index = new_index
    return packed
