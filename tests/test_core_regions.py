"""Region formation and packing (Section 4)."""

from dataclasses import replace
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.experiments import FIG3_BOUNDS
from repro.core.config import SquashConfig
from repro.core.costmodel import CostModel
from repro.core.plan import REGION_STRATEGIES, RewriteInfo, plan_regions
from repro.core.regions import (
    Region,
    RegionContext,
    _expanded_size,
    entry_blocks,
    form_regions,
    pack_regions,
)
from repro.isa import assemble
from repro.program import BasicBlock, Function, Program
from repro.program.cfg import block_successors
from repro.program.layout import layout
from repro.squeeze import squeeze
from repro.vm.profiler import Profile, collect_profile
from repro.workloads import MEDIABENCH, build_workload, mediabench_spec
from repro.workloads.inputs import profiling_input


def chain_program(n_blocks: int = 10, block_size: int = 6) -> Program:
    """main calls f; f is a straight chain of blocks."""
    program = Program("p")
    main = Function("main")
    block = BasicBlock("m.a", instrs=assemble("bsr r26, 0\nhalt"))
    block.call_targets[0] = "f"
    main.add_block(block)
    program.add_function(main)

    body = "\n".join("addi r1, 1, r1" for _ in range(block_size - 1))
    f = Function("f")
    for index in range(n_blocks):
        label = f"f.b{index}"
        is_last = index == n_blocks - 1
        f.add_block(
            BasicBlock(
                label,
                instrs=assemble(body + ("\nret" if is_last else "\nnop")),
                fallthrough=None if is_last else f"f.b{index + 1}",
            )
        )
    program.add_function(f)
    program.validate()
    return program


def all_f_blocks(program):
    return {label for label in program.functions["f"].blocks}


class TestFormation:
    def test_regions_partition_compressible(self):
        program = chain_program()
        compressible = all_f_blocks(program)
        regions = form_regions(program, compressible, CostModel())
        seen = set()
        for region in regions:
            for label in region.blocks:
                assert label not in seen, "regions must be disjoint"
                seen.add(label)
        assert seen <= compressible

    def test_buffer_bound_respected(self):
        program = chain_program(n_blocks=40)
        compressible = all_f_blocks(program)
        cost = CostModel(buffer_bound_bytes=64)  # 16 instructions
        ctx = RegionContext.build(program)
        regions = form_regions(program, compressible, cost, ctx)
        assert len(regions) >= 2
        for region in regions:
            blocks = set(region.blocks)
            expanded = (
                sum(ctx.sizes[b] for b in blocks)
                + sum(ctx.calls_in[b] for b in blocks)
                + 1
            )
            assert expanded <= cost.buffer_bound_instrs

    def test_single_function_pre_packing(self):
        program = chain_program()
        block = BasicBlock("g.a", instrs=assemble("ret"))
        g = Function("g")
        g.add_block(block)
        program.add_function(g)
        compressible = all_f_blocks(program) | {"g.a"}
        ctx = RegionContext.build(program)
        regions = form_regions(program, compressible, CostModel(), ctx)
        for region in regions:
            functions = {ctx.block_func[label] for label in region.blocks}
            assert len(functions) == 1

    def test_unprofitable_tree_rejected(self):
        # a tiny isolated block: entry stub (2 words) vs (1-γ)*1 savings
        program = chain_program(n_blocks=1, block_size=2)
        compressible = all_f_blocks(program)
        regions = form_regions(program, compressible, CostModel())
        assert regions == []

    def test_empty_compressible_set(self):
        program = chain_program()
        assert form_regions(program, set(), CostModel()) == []


class TestEntryBlocks:
    def test_called_entry_needs_stub(self):
        program = chain_program()
        ctx = RegionContext.build(program)
        blocks = all_f_blocks(program)
        entries = entry_blocks(blocks, ctx)
        assert "f.b0" in entries  # called from main
        assert "f.b5" not in entries  # interior fallthrough only

    def test_partition_boundary_needs_stub(self):
        program = chain_program()
        ctx = RegionContext.build(program)
        # split the chain: second half entered from the first
        first = {f"f.b{i}" for i in range(5)}
        second = {f"f.b{i}" for i in range(5, 10)}
        assert "f.b5" in entry_blocks(second, ctx)
        entries_first = entry_blocks(first, ctx)
        assert entries_first == {"f.b0"}

    def test_program_entry_needs_stub(self, mini_program):
        ctx = RegionContext.build(mini_program)
        entries = entry_blocks({"main.entry"}, ctx)
        assert "main.entry" in entries


def packable_program() -> Program:
    """A bound-filling cold function plus a cold caller with two small
    private helpers.

    With the buffer bound already reached by ``big``, merging ``a``
    with its helpers carries no buffer-growth penalty and saves the
    helpers' entry stubs (their only caller joins the region) plus a
    restore stub per call -- the Section 4 packing scenario."""
    program = Program("p")
    main = Function("main")
    block = BasicBlock("m.a", instrs=assemble("bsr r26, 0\nbsr r26, 0\nhalt"))
    block.call_targets = {0: "a", 1: "big"}
    main.add_block(block)
    program.add_function(main)

    body = "\n".join("addi r1, 1, r1" for _ in range(119))
    big = Function("big")
    big.add_block(BasicBlock("big.a", instrs=assemble(body + "\nret")))
    program.add_function(big)

    a = Function("a")
    a_block = BasicBlock(
        "a.entry",
        instrs=assemble(
            "subi r30, 1, r30\nstw r26, 0(r30)\n"
            "addi r1, 1, r1\naddi r1, 2, r1\naddi r1, 3, r1\n"
            "bsr r26, 0\nbsr r26, 0\n"
            "ldw r26, 0(r30)\naddi r30, 1, r30\nret"
        ),
        call_targets={5: "h0", 6: "h1"},
    )
    a.add_block(a_block)
    program.add_function(a)

    for name in ("h0", "h1"):
        helper = Function(name)
        ops = "\n".join(f"addi r1, {k + 2}, r1" for k in range(9))
        helper.add_block(
            BasicBlock(f"{name}.entry", instrs=assemble(ops + "\nret"))
        )
        program.add_function(helper)
    program.validate()
    return program


def packable_compressible(program: Program) -> set[str]:
    return {
        block.label
        for fn_name in ("big", "a", "h0", "h1")
        for block in program.functions[fn_name].blocks.values()
    }


class TestPacking:
    def test_packing_merges_adjacent_regions(self):
        program = packable_program()
        compressible = packable_compressible(program)
        cost = CostModel(buffer_bound_bytes=512)  # 128 instructions
        ctx = RegionContext.build(program)
        regions = form_regions(program, compressible, cost, ctx)
        assert len(regions) == 4  # big, a, h0, h1
        packed = pack_regions(program, regions, cost, ctx)
        assert len(packed) == 2  # big | a+h0+h1

    def test_packing_respects_bound(self):
        program = chain_program(n_blocks=40)
        compressible = all_f_blocks(program)
        cost = CostModel(buffer_bound_bytes=128)
        ctx = RegionContext.build(program)
        regions = form_regions(program, compressible, cost, ctx)
        packed = pack_regions(program, regions, cost, ctx)
        for region in packed:
            blocks = set(region.blocks)
            expanded = (
                sum(ctx.sizes[b] for b in blocks)
                + sum(ctx.calls_in[b] for b in blocks)
                + 1
            )
            assert expanded <= cost.buffer_bound_instrs

    def test_packing_reindexes(self):
        program = chain_program(n_blocks=40)
        compressible = all_f_blocks(program)
        cost = CostModel(buffer_bound_bytes=96)
        regions = form_regions(program, compressible, cost)
        packed = pack_regions(program, regions, cost)
        assert [r.index for r in packed] == list(range(len(packed)))

    def test_packing_reduces_entry_stubs(self):
        program = packable_program()
        compressible = packable_compressible(program)
        ctx = RegionContext.build(program)
        cost = CostModel(buffer_bound_bytes=512)
        regions = form_regions(program, compressible, cost, ctx)
        before = sum(
            len(entry_blocks(set(r.blocks), ctx)) for r in regions
        )
        packed = pack_regions(program, regions, cost, ctx)
        after = sum(
            len(entry_blocks(set(r.blocks), ctx)) for r in packed
        )
        # h0/h1 lose their stubs once their only caller joins the region
        assert after == before - 2

    def test_region_contains(self):
        program = chain_program()
        regions = form_regions(
            program, all_f_blocks(program), CostModel()
        )
        region = regions[0]
        assert region.blocks[0] in region
        assert "nope" not in region


# -- the incremental packer against the greedy loop ---------------------------
#
# ``reference_pack_regions`` is the packer as it was before the
# incremental rewrite, kept verbatim as the oracle: it recomputes every
# pair's savings, and the pool-wide max, for every pair of every round.


def reference_pack_regions(
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
    """
    ctx = ctx or RegionContext.build(program)
    bound = cost.buffer_bound_instrs
    pool: dict[int, Region] = {r.index: r for r in regions}
    owner: dict[str, int] = {}
    for region in regions:
        for label in region.blocks:
            owner[label] = region.index

    def current_max_expanded() -> int:
        return max(
            (_expanded_size(set(r.blocks), ctx) for r in pool.values()),
            default=0,
        )

    def merge_savings(a: Region, b: Region) -> int:
        a_set, b_set = set(a.blocks), set(b.blocks)
        both = a_set | b_set
        saved = 0
        # Merging may enlarge the largest region, and the runtime
        # buffer must hold it (the max term of Section 4's cost).
        saved -= max(
            0, _expanded_size(both, ctx) - current_max_expanded()
        )
        # One function-offset-table word is reclaimed per merge.
        saved += 1
        # Entry stubs no longer needed after the merge.
        before = len(entry_blocks(a_set, ctx)) + len(entry_blocks(b_set, ctx))
        after = len(entry_blocks(both, ctx))
        saved += cost.entry_stub_words * (before - after)
        # Restore stubs for calls between the two regions.
        for label in a.blocks:
            _, block = ctx.program.find_block(label)
            for target in block.call_targets.values():
                if ctx.entries[target] in b_set:
                    saved += cost.restore_stub_words
        for label in b.blocks:
            _, block = ctx.program.find_block(label)
            for target in block.call_targets.values():
                if ctx.entries[target] in a_set:
                    saved += cost.restore_stub_words
        # Fall-through jumps between the regions.
        for label in a.blocks:
            _, block = ctx.program.find_block(label)
            if block.fallthrough in b_set:
                saved += 1
        for label in b.blocks:
            _, block = ctx.program.find_block(label)
            if block.fallthrough in a_set:
                saved += 1
        return saved

    def adjacent_pairs() -> set[tuple[int, int]]:
        pairs: set[tuple[int, int]] = set()
        for region in pool.values():
            for label in region.blocks:
                _, block = ctx.program.find_block(label)
                neighbours = list(block_successors(ctx.program, block))
                neighbours.extend(
                    ctx.entries[t] for t in block.call_targets.values()
                )
                for succ in neighbours:
                    other = owner.get(succ)
                    if other is not None and other != region.index:
                        pairs.add(
                            (min(region.index, other), max(region.index, other))
                        )
        return pairs

    while True:
        best: tuple[int, int] | None = None
        best_gain = 0
        for ia, ib in adjacent_pairs():
            a, b = pool[ia], pool[ib]
            merged = set(a.blocks) | set(b.blocks)
            if _expanded_size(merged, ctx) > bound:
                continue
            gain = merge_savings(a, b)
            if gain > best_gain:
                best, best_gain = (ia, ib), gain
        if best is None:
            break
        ia, ib = best
        a, b = pool.pop(ia), pool.pop(ib)
        merged_region = Region(index=ia, blocks=a.blocks + b.blocks)
        pool[ia] = merged_region
        for label in merged_region.blocks:
            owner[label] = ia

    packed = sorted(pool.values(), key=lambda r: r.index)
    for new_index, region in enumerate(packed):
        region.index = new_index
    return packed


def _copy(regions: list[Region]) -> list[Region]:
    return [Region(index=r.index, blocks=list(r.blocks)) for r in regions]


def _shape(regions: list[Region]) -> list[tuple[int, list[str]]]:
    return [(r.index, r.blocks) for r in regions]


@lru_cache(maxsize=None)
def _generated(name: str, seed: int, scale: float):
    """A squeezed, profiled ``repro.workloads`` program."""
    spec = replace(mediabench_spec(name, scale), seed=seed)
    workload = build_workload(spec)
    squeezed, _ = squeeze(workload.program)
    profile = collect_profile(
        squeezed, layout(squeezed).image, profiling_input(workload)
    )
    return squeezed, profile


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(MEDIABENCH),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from((0.02, 0.04, 0.06)),
    theta=st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(1e-6, 1.0, allow_nan=False),
    ),
    bound=st.sampled_from(FIG3_BOUNDS),
    strategy=st.sampled_from(REGION_STRATEGIES.names()),
)
def test_incremental_packer_matches_greedy_loop(
    name, seed, scale, theta, bound, strategy
):
    squeezed, profile = _generated(name, seed, scale)
    config = SquashConfig(
        theta=theta, pack=False, region_strategy=strategy
    ).with_buffer_bound(bound)
    plan = plan_regions(
        squeezed.copy(),
        Profile(
            counts=dict(profile.counts),
            sizes=dict(profile.sizes),
            tot_instr_ct=profile.tot_instr_ct,
        ),
        config,
        RewriteInfo(),
    )
    expected = reference_pack_regions(
        plan.program, _copy(plan.regions), config.cost, plan.ctx
    )
    actual = pack_regions(
        plan.program, _copy(plan.regions), config.cost, plan.ctx
    )
    assert _shape(actual) == _shape(expected)


def tied_program() -> Program:
    """``a`` calls ``b`` and ``c``, which are the same size; ``big``
    alone fills the buffer bound of 32 instructions.

    Merging ``a`` with ``b`` or with ``c`` gains the same (one entry
    stub, one restore stub, one offset-table word, no buffer growth),
    and once one is merged the other no longer fits, so the tie rule
    alone decides which callee joins ``a``."""
    program = Program("p")
    main = Function("main")
    block = BasicBlock(
        "m.a", instrs=assemble("bsr r26, 0\nbsr r26, 0\nhalt")
    )
    block.call_targets = {0: "big", 1: "a"}
    main.add_block(block)
    program.add_function(main)

    big = Function("big")
    body = "\n".join("addi r1, 1, r1" for _ in range(30))
    big.add_block(BasicBlock("big.a", instrs=assemble(body + "\nret")))
    program.add_function(big)

    a = Function("a")
    a.add_block(
        BasicBlock(
            "a.entry",
            instrs=assemble(
                "subi r30, 1, r30\nstw r26, 0(r30)\n"
                "addi r1, 1, r1\naddi r1, 2, r1\n"
                "bsr r26, 0\nbsr r26, 0\n"
                "ldw r26, 0(r30)\naddi r30, 1, r30\nnop\nret"
            ),
            call_targets={4: "b", 5: "c"},
        )
    )
    program.add_function(a)
    for name in ("b", "c"):
        callee = Function(name)
        ops = "\n".join(f"addi r1, {k + 2}, r1" for k in range(9))
        callee.add_block(
            BasicBlock(f"{name}.entry", instrs=assemble(ops + "\nret"))
        )
        program.add_function(callee)
    program.validate()
    return program


def test_equal_gain_tie_breaks_like_the_greedy_loop():
    program = tied_program()
    ctx = RegionContext.build(program)
    cost = CostModel(buffer_bound_bytes=128)  # 32 instructions
    compressible = {
        label
        for name in ("big", "a", "b", "c")
        for label in program.functions[name].blocks
    }
    regions = form_regions(program, compressible, cost, ctx)
    assert _shape(regions) == [
        (0, ["big.a"]), (1, ["a.entry"]), (2, ["b.entry"]), (3, ["c.entry"]),
    ]
    sizes = [_expanded_size(set(r.blocks), ctx) for r in regions]
    assert sizes == [32, 13, 11, 11]

    expected = reference_pack_regions(program, _copy(regions), cost, ctx)
    actual = pack_regions(program, _copy(regions), cost, ctx)
    assert _shape(actual) == _shape(expected)
    # The pair set {(1, 2), (1, 3)} iterates (1, 2) first and a later
    # pair only wins on a strictly larger gain: ``b`` joins ``a``.
    assert _shape(actual) == [
        (0, ["big.a"]), (1, ["a.entry", "b.entry"]), (2, ["c.entry"]),
    ]
