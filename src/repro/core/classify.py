"""Stage 2 of the rewriter: buffer safety and call-site classification.

Every call site inside a compressed region is classified (Section 2
/ Figure 2): calls to buffer-safe functions stay ordinary calls, calls
wholly inside the region become buffer-relative, and everything else
becomes the CreateStub expansion (runtime scheme) or a branch to a
pre-built stub (compile-time scheme).  Every other instruction is
plain, so only call sites are recorded.

How a call site is treated depends on the buffer strategy and the
restore-stub scheme the config carries: under ``DECOMPRESS_ONCE`` no
call needs protection, and only the runtime scheme expands protected
calls into CreateStub pseudo ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buffersafe import safe_functions
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.plan import RegionPlanResult, RewriteInfo
from repro.core.regions import Region, RegionContext
from repro.program.layout import needs_fallthrough_br
from repro.program.program import Program

__all__ = [
    "ClassifiedSites",
    "RegionSitePlan",
    "classify_sites",
    "CATEGORY_PLAIN",
    "CATEGORY_CALL_SAFE",
    "CATEGORY_CALL_INTRA",
    "CATEGORY_CALL_CT",
    "CATEGORY_XCALLD",
    "CATEGORY_ICALL_CT",
    "CATEGORY_XCALLI",
]

# Call-site categories.
CATEGORY_PLAIN = "plain"
CATEGORY_CALL_SAFE = "call_safe"
CATEGORY_CALL_INTRA = "call_intra"
CATEGORY_CALL_CT = "call_ct"
CATEGORY_XCALLD = "xcalld"
CATEGORY_ICALL_CT = "icall_ct"
CATEGORY_XCALLI = "xcalli"

#: Two-slot expansions (CreateStub, Figure 2).
_TWO_SLOT = (CATEGORY_XCALLD, CATEGORY_XCALLI)


def call_category(
    prog: Program,
    ctx: RegionContext,
    target: str,
    region_set: set[str],
    safe: set[str],
    decompress_once: bool,
    runtime_stubs: bool,
) -> str:
    """Category of a direct call to *target* from inside a region.

    *decompress_once*: decompressed code is never overwritten, so no
    call from a region needs protection.  *runtime_stubs*: protected
    calls expand to the two-instruction CreateStub pseudo ops rather
    than branching to pre-built stubs.
    """
    if decompress_once:
        # DECOMPRESS_ONCE never overwrites decompressed code, so
        # every call can be ordinary: intra-region calls are
        # area-relative, the rest go to the callee (or its entry
        # stub) directly.
        if ctx.entries[target] in region_set:
            return CATEGORY_CALL_INTRA
        return CATEGORY_CALL_SAFE
    if target in safe:
        return CATEGORY_CALL_SAFE
    if region_set.issuperset(prog.functions[target].blocks):
        # The callee lives wholly inside this region: its return
        # address stays valid because every escape from the region
        # during its execution is itself call-protected.
        return CATEGORY_CALL_INTRA
    return CATEGORY_XCALLD if runtime_stubs else CATEGORY_CALL_CT


@dataclass
class RegionSitePlan:
    """Pass-1 layout of one region: slots and call-site categories.

    Only the sites that can be anything but plain are recorded: every
    direct call, and each ``jsr`` unless indirect calls need no
    protection.  Every other instruction is plain.
    """

    region: Region
    block_slots: dict[str, int]
    #: block label -> its sites that are not plain, as (index,
    #: category) in index order (blocks without one are absent).
    sites: dict[str, list[tuple[int, str]]]
    #: (block label, index) of each compile-time stub's call site, in
    #: stub ordinal order.
    ct_sites: list[tuple[str, int]]
    #: Blocks needing a trailing fallthrough br inside the buffer.
    trailing_br: set[str]
    expanded_size: int
    original_instrs: int
    base: int = 0  # assigned by SegmentLayout

    @classmethod
    def build(
        cls,
        prog: Program,
        region: Region,
        ctx: RegionContext,
        safe: set[str],
        all_indirect_safe: bool,
        config,
        info: RewriteInfo,
    ) -> "RegionSitePlan":
        decompress_once = config.strategy is BufferStrategy.DECOMPRESS_ONCE
        runtime_stubs = config.restore_scheme is RestoreStubScheme.RUNTIME
        # A jsr is plain when no indirect call needs protection.
        jsr_sites = (
            {} if decompress_once or all_indirect_safe else ctx.jsr_sites
        )
        indirect = CATEGORY_XCALLI if runtime_stubs else CATEGORY_ICALL_CT
        region_set = set(region.blocks)
        blocks = ctx.blocks
        sizes = ctx.sizes
        block_slots: dict[str, int] = {}
        sites: dict[str, list[tuple[int, str]]] = {}
        ct_sites: list[tuple[str, int]] = []
        trailing: set[str] = set()
        slot = 1  # slot 0 is the entry jump
        original = 0
        labels = region.blocks

        for position, label in enumerate(labels):
            block = blocks[label]
            block_slots[label] = slot
            size = sizes[label]
            original += size
            slot += size
            targets = block.call_targets
            jsrs = jsr_sites.get(label)
            if targets or jsrs:
                block_sites = sites[label] = []
                for index in sorted({*targets, *jsrs} if jsrs else targets):
                    target = targets.get(index)
                    if target is None:
                        category = indirect
                    else:
                        category = call_category(
                            prog, ctx, target, region_set, safe,
                            decompress_once, runtime_stubs,
                        )
                    block_sites.append((index, category))
                    if category in _TWO_SLOT:
                        info.xcall_sites += 1
                        slot += 1
                    elif category == CATEGORY_CALL_INTRA:
                        info.intra_region_calls += 1
                    elif category == CATEGORY_CALL_SAFE:
                        info.safe_calls += 1
                    else:  # a compile-time stub's call site
                        ct_sites.append((label, index))
            next_label = (
                labels[position + 1] if position + 1 < len(labels) else None
            )
            if needs_fallthrough_br(block, next_label):
                trailing.add(label)
                slot += 1

        return cls(
            region=region,
            block_slots=block_slots,
            sites=sites,
            ct_sites=ct_sites,
            trailing_br=trailing,
            expanded_size=slot,
            original_instrs=original,
        )

    def site_slot(self, label: str, index: int) -> int:
        """Buffer slot of instruction *index* of block *label*."""
        return self.block_slots[label] + index + sum(
            1 for position, category in self.sites.get(label, ())
            if position < index and category in _TWO_SLOT
        )


@dataclass
class ClassifiedSites:
    """The ``classify`` artifact: per-region site plans plus the
    buffer-safe analysis feeding them (Section 6.1)."""

    plans: list[RegionSitePlan]
    safe_functions: set[str]
    all_indirect_safe: bool


def classify_sites(
    plan: RegionPlanResult,
    config,
    info: RewriteInfo,
) -> ClassifiedSites:
    """Buffer safety (Section 6.1) + per-region classification."""
    prog = plan.program
    safe = safe_functions(plan.ctx, plan.compressed)
    info.safe_functions = safe
    all_indirect_safe = (
        bool(prog.address_taken) and prog.address_taken <= safe
    )
    plans = [
        RegionSitePlan.build(
            prog, region, plan.ctx, safe, all_indirect_safe, config, info
        )
        for region in plan.regions
    ]
    return ClassifiedSites(
        plans=plans,
        safe_functions=safe,
        all_indirect_safe=all_indirect_safe,
    )
