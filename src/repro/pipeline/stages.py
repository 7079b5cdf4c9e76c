"""The squash stage DAG: cold → plan → classify → layout → encode →
emit, run by the :class:`~repro.pipeline.manager.PassManager`.

Upstream of these, the experiment harness has three θ-invariant
stages — squeeze, profile collection, baseline layout — whose
artifacts the sweep cache reuses; :func:`benchmark_stages` declares
them on the same manager so their timings land in the same report.
"""

from __future__ import annotations

from typing import Callable

from repro.core.classify import classify_sites
from repro.core.coldcode import identify_cold_blocks
from repro.core.emit import build_blob, emit_image
from repro.core.layout import build_layout
from repro.core.plan import RewriteInfo, plan_regions
from repro.pipeline.artifacts import ColdSet, EmittedImage
from repro.pipeline.manager import (
    ArtifactStore,
    PassManager,
    Stage,
    StageReport,
)
from repro.program.program import Program
from repro.vm.profiler import Profile

__all__ = ["squash_stages", "run_squash_pipeline", "benchmark_stages"]


def squash_stages(config) -> list[Stage]:
    """The rewriter's stages for one configuration.

    Preloaded artifacts: ``program`` (the squeezed program) and
    ``profile``; ``info`` (a :class:`RewriteInfo`) is seeded by the
    runner and accumulates measurements across stages.
    """

    def cold_stage(ctx, program: Program, profile: Profile) -> ColdSet:
        result = identify_cold_blocks(profile, config.theta)
        ctx.count("cold_blocks", len(result.cold))
        return ColdSet(
            cold=set(result.cold),
            cutoff=result.cutoff,
            cold_weight=result.cold_weight,
            budget=result.budget,
            theta=config.theta,
        )

    def plan_stage(ctx, program: Program, profile: Profile,
                   cold: ColdSet, info: RewriteInfo):
        prog = program.copy()
        prof = Profile(
            counts=dict(profile.counts),
            sizes=dict(profile.sizes),
            tot_instr_ct=profile.tot_instr_ct,
        )
        result = plan_regions(prog, prof, config, info, cold=cold.cold)
        ctx.count("regions", len(result.regions))
        ctx.count("compressible_blocks", len(result.compressible))
        ctx.count("excluded_blocks", len(result.excluded))
        return result

    def classify_stage(ctx, plan, info: RewriteInfo):
        classified = classify_sites(plan, config, info)
        ctx.count("site_plans", len(classified.plans))
        ctx.count("safe_functions", len(classified.safe_functions))
        ctx.count("xcall_sites", info.xcall_sites)
        return classified

    def layout_stage(ctx, plan, classify, info: RewriteInfo):
        layout = build_layout(plan, classify, config)
        info.entry_stub_count = len(layout.entry_stubs)
        info.never_compressed_words = layout.text_words
        ctx.count("entry_stubs", len(layout.entry_stubs))
        ctx.count("text_words", layout.text_words)
        ctx.count("buffer_words", layout.buffer_words)
        return layout

    def encode_stage(ctx, plan, classify, layout, info: RewriteInfo):
        codec_config = (
            config.effective_codec()
            if hasattr(config, "effective_codec")
            else config.codec
        )
        blob = build_blob(classify.plans, plan.ctx, layout, codec_config)
        info.blob = blob
        ctx.count("codec_contexts", len(blob.context_spans))
        ctx.count(
            "codec_conditioned_streams",
            len({span[0] for span in blob.context_spans if span[1] > 0}),
        )
        info.compressed_original_instrs = sum(
            p.original_instrs for p in classify.plans
        )
        info.jump_table_words = sum(
            obj.size
            for obj in plan.program.data.values()
            if obj.is_jump_table
        )
        ctx.count("compressed_words", blob.total_words)
        ctx.count("original_instrs", info.compressed_original_instrs)
        return blob

    def emit_stage(ctx, plan, classify, layout, blob,
                   info: RewriteInfo) -> EmittedImage:
        image, descriptor = emit_image(
            plan.ctx, layout, classify.plans, blob, config
        )
        ctx.count("image_words", len(image.memory))
        return EmittedImage(image=image, descriptor=descriptor, info=info)

    return [
        Stage("cold", "cold", cold_stage, requires=("program", "profile")),
        Stage(
            "plan", "plan", plan_stage,
            requires=("program", "profile", "cold", "info"),
        ),
        Stage(
            "classify", "classify", classify_stage,
            requires=("plan", "info"),
        ),
        Stage(
            "layout", "layout", layout_stage,
            requires=("plan", "classify", "info"),
        ),
        Stage(
            "encode", "blob", encode_stage,
            requires=("plan", "classify", "layout", "info"),
        ),
        Stage(
            "emit", "emitted", emit_stage,
            requires=("plan", "classify", "layout", "blob", "info"),
        ),
    ]


def run_squash_pipeline(
    program: Program,
    profile: Profile,
    config,
) -> tuple[EmittedImage, StageReport, ArtifactStore]:
    """Run the full rewriter DAG; the staged ``rewrite()``."""
    manager = PassManager(squash_stages(config))
    store = ArtifactStore(
        {"program": program, "profile": profile, "info": RewriteInfo()}
    )
    store, report = manager.run(store)
    return store["emitted"], report, store


def benchmark_stages(
    squeeze_fn: Callable,
    profile_fn: Callable,
    baseline_fn: Callable,
) -> list[Stage]:
    """The θ-invariant benchmark prefix as manager stages.

    ``squeeze_fn(ctx) -> SqueezedProgram``-like artifact,
    ``profile_fn(ctx, squeezed)``, ``baseline_fn(ctx, squeezed)``.
    The sweep cache preloads these artifacts on a hit, which the
    report then shows as ``reused``.
    """
    return [
        Stage("squeeze", "squeezed", squeeze_fn),
        Stage(
            "profile", "profile", profile_fn, requires=("squeezed",)
        ),
        Stage(
            "baseline_layout", "baseline", baseline_fn,
            requires=("squeezed",),
        ),
    ]
