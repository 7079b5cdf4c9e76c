"""End-to-end squash: the pipeline entry point.

Typical use (through the stable facade — see :mod:`repro.api`)::

    from repro import squash, SquashConfig, squeeze, collect_profile
    from repro.program.layout import layout

    small, _ = squeeze(program)
    base = layout(small)
    profile = collect_profile(small, base.image, profiling_input)
    result = squash(small, profile, SquashConfig(theta=1e-5))
    machine, runtime = result.make_machine(timing_input)
    run = machine.run()

:func:`squash_program` runs the six stages in order — cold code
(Section 5), region planning (Section 4), call-site classification
(Section 2), layout, encoding (Section 3) and emission — and keeps the
per-stage wall-time/counter report on the result; ``repro squash
--explain`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import classify_sites
from repro.core.coldcode import identify_cold_blocks
from repro.core.config import SquashConfig
from repro.core.descriptor import SquashDescriptor
from repro.core.emit import build_blob, emit_image
from repro.core.layout import build_layout
from repro.core.metrics import (
    Footprint,
    baseline_code_words,
    squashed_footprint,
)
from repro.core.plan import RewriteInfo, plan_regions
from repro.core.runtime import SquashRuntime
from repro.pipeline.manager import StageReport
from repro.program.image import LoadedImage
from repro.program.layout import assign_addresses
from repro.program.program import Program
from repro.vm.machine import Machine
from repro.vm.profiler import Profile

__all__ = [
    "SquashConfig",
    "SquashResult",
    "LoadedSquash",
    "load_squashed",
    "squash_program",
]


def _sibling_with_suffix(prefix, suffix: str):
    """``<prefix><suffix>`` without mangling dots inside the name.

    ``pathlib.with_suffix`` would truncate a prefix like
    ``adpcm.theta1e-5`` to ``adpcm.img``; appending preserves it.
    """
    import pathlib

    prefix = pathlib.Path(prefix)
    return prefix.parent / (prefix.name + suffix)


@dataclass
class SquashResult:
    """Everything squash produced for one program at one configuration."""

    image: LoadedImage
    descriptor: SquashDescriptor
    info: RewriteInfo
    footprint: Footprint
    baseline_words: int
    config: SquashConfig
    #: Per-stage wall time and counters for this squash.
    stage_report: StageReport | None = None

    @property
    def reduction(self) -> float:
        """Fractional code-size reduction vs. the uncompressed layout."""
        return self.footprint.reduction_vs(self.baseline_words)

    def make_machine(
        self,
        input_words: list[int] | tuple[int, ...] = (),
        region_cache: bool | None = None,
        **machine_kwargs,
    ) -> tuple[Machine, SquashRuntime]:
        """A fresh machine + runtime pair for this image.

        *region_cache* overrides the cross-runtime region decode cache
        (None: the environment default).  The cache only skips host-side
        bit work; modelled cycles are identical either way.
        """
        runtime = SquashRuntime(self.descriptor, region_cache=region_cache)
        machine = Machine(
            self.image,
            input_words=input_words,
            services=runtime.services(),
            **machine_kwargs,
        )
        return machine, runtime

    def run(
        self,
        input_words: list[int] | tuple[int, ...] = (),
        max_steps: int = 100_000_000,
        region_cache: bool | None = None,
    ):
        """Convenience: run the squashed program on *input_words*."""
        machine, runtime = self.make_machine(
            input_words, region_cache=region_cache
        )
        result = machine.run(max_steps=max_steps)
        return result, runtime

    def save(self, prefix) -> tuple[str, str]:
        """Write the squashed executable to ``<prefix>.img`` (segments
        + memory) and ``<prefix>.json`` (the runtime descriptor).

        Suffixes are appended (never substituted), so a prefix
        containing dots — ``adpcm.theta1e-5`` — round-trips intact.
        The pair can be reloaded with :func:`load_squashed` and run
        without the original program or profile.
        """
        image_path = _sibling_with_suffix(prefix, ".img")
        meta_path = _sibling_with_suffix(prefix, ".json")
        image, meta = self.file_bytes()
        image_path.write_bytes(image)
        meta_path.write_bytes(meta)
        return str(image_path), str(meta_path)

    def file_bytes(self) -> tuple[bytes, bytes]:
        """The contents of the two files :meth:`save` writes: the image
        file and the descriptor JSON."""
        import json

        from repro.core.descriptor import descriptor_to_dict
        from repro.program.imagefile import image_bytes

        integrity = self.descriptor.integrity
        image = image_bytes(
            self.image,
            contexts=integrity.contexts if integrity is not None else (),
        )
        meta = json.dumps(descriptor_to_dict(self.descriptor)).encode()
        return image, meta


@dataclass
class LoadedSquash:
    """A squashed executable loaded from disk: runnable, no sources."""

    image: LoadedImage
    descriptor: SquashDescriptor

    def make_machine(
        self, input_words: list[int] | tuple[int, ...] = (), **kwargs
    ) -> tuple[Machine, SquashRuntime]:
        runtime = SquashRuntime(self.descriptor)
        machine = Machine(
            self.image,
            input_words=input_words,
            services=runtime.services(),
            **kwargs,
        )
        return machine, runtime


def load_squashed(prefix, verify: bool = True) -> LoadedSquash:
    """Load a squashed executable saved by :meth:`SquashResult.save`.

    With *verify* (the default) the image's integrity checksums --
    codec tables, function offset table, compressed stream -- are
    checked before the pair is returned, so corruption surfaces at load
    time as a :class:`~repro.errors.SquashError` rather than during
    execution.  ``verify=False`` skips the checks (the runtime still
    verifies on first decompression).
    """
    import json

    from repro.core.descriptor import descriptor_from_dict
    from repro.program.imagefile import load_image

    image = load_image(_sibling_with_suffix(prefix, ".img"))
    descriptor = descriptor_from_dict(
        json.loads(_sibling_with_suffix(prefix, ".json").read_text())
    )
    if verify:
        from repro.core.verify import check_image_integrity

        check_image_integrity(image, descriptor)
    return LoadedSquash(image=image, descriptor=descriptor)


def squash_program(
    program: Program,
    profile: Profile,
    config: SquashConfig | None = None,
    baseline_words: int | None = None,
) -> SquashResult:
    """Compress *program*'s cold code guided by *profile*.

    *program* is typically the output of :func:`repro.squeeze.squeeze`
    and *profile* the result of profiling that same program.

    *baseline_words* is the uncompressed code footprint; when the
    caller already holds it (the sweep harness reuses the θ-invariant
    baseline layout across cells) passing it skips the baseline's
    address pass, which validates *program* but encodes nothing.
    """
    config = config or SquashConfig()
    info = RewriteInfo()
    report = StageReport()
    with report.stage("cold") as counters:
        cold = identify_cold_blocks(profile, config.theta).cold
        counters["cold_blocks"] = len(cold)
    with report.stage("plan") as counters:
        # Unswitching adds profile counts: plan on a copy.
        plan = plan_regions(
            program,
            Profile(
                counts=dict(profile.counts),
                sizes=dict(profile.sizes),
                tot_instr_ct=profile.tot_instr_ct,
            ),
            config,
            info,
            cold,
        )
        counters["regions"] = len(plan.regions)
        counters["compressible_blocks"] = len(plan.compressible)
        counters["excluded_blocks"] = len(plan.excluded)
    with report.stage("classify") as counters:
        classified = classify_sites(plan, config, info)
        counters["site_plans"] = len(classified.plans)
        counters["safe_functions"] = len(classified.safe_functions)
        counters["xcall_sites"] = info.xcall_sites
    with report.stage("layout") as counters:
        layout = build_layout(plan, classified, config)
        info.entry_stub_count = len(layout.entry_stubs)
        info.never_compressed_words = layout.text_words
        counters["entry_stubs"] = len(layout.entry_stubs)
        counters["text_words"] = layout.text_words
        counters["buffer_words"] = layout.buffer_words
    with report.stage("encode") as counters:
        blob = build_blob(
            classified.plans, plan.ctx, layout, config.effective_codec()
        )
        info.blob = blob
        info.compressed_original_instrs = sum(
            p.original_instrs for p in classified.plans
        )
        info.jump_table_words = sum(
            obj.size
            for obj in plan.program.data.values()
            if obj.is_jump_table
        )
        counters["codec_contexts"] = len(blob.context_spans)
        counters["codec_conditioned_streams"] = len(
            {span[0] for span in blob.context_spans if span[1] > 0}
        )
        counters["compressed_words"] = blob.total_words
        counters["original_instrs"] = info.compressed_original_instrs
    with report.stage("emit") as counters:
        image, descriptor = emit_image(
            plan.ctx, layout, classified.plans, blob, config
        )
        counters["image_words"] = len(image.memory)

    if baseline_words is None:
        baseline_words = baseline_code_words(
            assign_addresses(program, text_base=config.text_base), program
        )
    return SquashResult(
        image=image,
        descriptor=descriptor,
        info=info,
        footprint=squashed_footprint(image, info.jump_table_words),
        baseline_words=baseline_words,
        config=config,
        stage_report=report,
    )
