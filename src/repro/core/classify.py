"""Stage 2 of the rewriter: buffer safety and call-site classification.

Every instruction inside a compressed region is classified (Section 2
/ Figure 2): calls to buffer-safe functions stay ordinary calls, calls
wholly inside the region become buffer-relative, and everything else
becomes the CreateStub expansion (runtime scheme) or a branch to a
pre-built stub (compile-time scheme).

How a call site is treated depends on the buffer strategy and the
restore-stub scheme; both are plugin points here.  A
:class:`BufferPolicy` / :class:`RestorePolicy` pair is looked up in
:data:`BUFFER_STRATEGIES` / :data:`RESTORE_SCHEMES` by the enum value
carried in the config, so a new strategy registers its policy instead
of adding branches to the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buffersafe import buffer_safe_functions
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.plan import RegionPlanResult, RewriteInfo
from repro.core.regions import Region, RegionContext
from repro.pipeline.registry import Registry
from repro.program.blocks import BasicBlock
from repro.program.layout import needs_fallthrough_br
from repro.program.program import Program

__all__ = [
    "BUFFER_STRATEGIES",
    "RESTORE_SCHEMES",
    "BufferPolicy",
    "RestorePolicy",
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


@dataclass(frozen=True)
class BufferPolicy:
    """Classification consequences of a buffer-management strategy."""

    strategy: BufferStrategy
    #: Decompressed code is never overwritten, so no call from a
    #: region ever needs protection (DECOMPRESS_ONCE).
    calls_never_protected: bool = False


@dataclass(frozen=True)
class RestorePolicy:
    """Classification consequences of a restore-stub scheme."""

    scheme: RestoreStubScheme
    #: Protected calls expand to the two-instruction CreateStub pseudo
    #: ops (runtime scheme) rather than branching to pre-built stubs.
    runtime_expansion: bool = True


BUFFER_STRATEGIES: Registry[BufferPolicy] = Registry("buffer strategy")
for _strategy in BufferStrategy:
    BUFFER_STRATEGIES.register(
        _strategy.value,
        BufferPolicy(
            strategy=_strategy,
            calls_never_protected=(
                _strategy is BufferStrategy.DECOMPRESS_ONCE
            ),
        ),
    )

RESTORE_SCHEMES: Registry[RestorePolicy] = Registry("restore scheme")
for _scheme in RestoreStubScheme:
    RESTORE_SCHEMES.register(
        _scheme.value,
        RestorePolicy(
            scheme=_scheme,
            runtime_expansion=(_scheme is RestoreStubScheme.RUNTIME),
        ),
    )


def classify_site(
    prog: Program,
    ctx: RegionContext,
    block: BasicBlock,
    index: int,
    instr,
    region_set: set[str],
    safe: set[str],
    all_indirect_safe: bool,
    restore: RestorePolicy,
    buffer: BufferPolicy,
) -> str:
    """Category of one instruction inside a compressed region."""
    if index in block.call_targets:
        target = block.call_targets[index]
        if buffer.calls_never_protected:
            # DECOMPRESS_ONCE never overwrites decompressed code, so
            # every call can be ordinary: intra-region calls are
            # area-relative, the rest go to the callee (or its entry
            # stub) directly.
            if ctx.entries[target] in region_set:
                return CATEGORY_CALL_INTRA
            return CATEGORY_CALL_SAFE
        if target in safe:
            return CATEGORY_CALL_SAFE
        target_fn = prog.functions[target]
        if all(b in region_set for b in target_fn.blocks):
            # The callee lives wholly inside this region: its return
            # address stays valid because every escape from the region
            # during its execution is itself call-protected.
            return CATEGORY_CALL_INTRA
        return (
            CATEGORY_XCALLD
            if restore.runtime_expansion
            else CATEGORY_CALL_CT
        )
    if instr.is_indirect_call:
        if buffer.calls_never_protected or all_indirect_safe:
            return CATEGORY_PLAIN
        return (
            CATEGORY_XCALLI
            if restore.runtime_expansion
            else CATEGORY_ICALL_CT
        )
    return CATEGORY_PLAIN


@dataclass
class RegionSitePlan:
    """Pass-1 layout of one region: slots and call-site categories."""

    region: Region
    block_slots: dict[str, int]
    #: (block label, index) -> category
    categories: dict[tuple[str, int], str]
    #: (block label, index) -> compile-time stub ordinal
    ct_sites: dict[tuple[str, int], int]
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
        restore = RESTORE_SCHEMES.get(config.restore_scheme.value)
        buffer = BUFFER_STRATEGIES.get(config.strategy.value)
        region_set = set(region.blocks)
        block_slots: dict[str, int] = {}
        categories: dict[tuple[str, int], str] = {}
        ct_sites: dict[tuple[str, int], int] = {}
        trailing: set[str] = set()
        slot = 1  # slot 0 is the entry jump
        original = 0

        for position, label in enumerate(region.blocks):
            block = ctx.blocks[label]
            block_slots[label] = slot
            original += block.size
            for index, instr in enumerate(block.instrs):
                category = classify_site(
                    prog, ctx, block, index, instr, region_set, safe,
                    all_indirect_safe, restore, buffer,
                )
                categories[(label, index)] = category
                if category in (CATEGORY_CALL_CT, CATEGORY_ICALL_CT):
                    ct_sites[(label, index)] = len(ct_sites)
                if category in _TWO_SLOT:
                    info.xcall_sites += 1
                    slot += 2
                else:
                    slot += 1
                if category == CATEGORY_CALL_INTRA:
                    info.intra_region_calls += 1
                elif category == CATEGORY_CALL_SAFE:
                    info.safe_calls += 1
            next_label = (
                region.blocks[position + 1]
                if position + 1 < len(region.blocks)
                else None
            )
            if needs_fallthrough_br(block, next_label):
                trailing.add(label)
                slot += 1

        return cls(
            region=region,
            block_slots=block_slots,
            categories=categories,
            ct_sites=ct_sites,
            trailing_br=trailing,
            expanded_size=slot,
            original_instrs=original,
        )

    def site_slot(self, label: str, index: int) -> int:
        """Buffer slot of instruction *index* of block *label*."""
        slot = self.block_slots[label]
        for position in range(index):
            category = self.categories[(label, position)]
            slot += 2 if category in _TWO_SLOT else 1
        return slot


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
    safe = buffer_safe_functions(prog, plan.compressed)
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
