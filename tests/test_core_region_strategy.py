"""The alternative whole-function region construction (Section 9's
future work) and the pathological timing-input case (Section 7's `li`
anecdote)."""

import dataclasses

import pytest

from repro.core.costmodel import CostModel
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.core.regions import (
    RegionContext,
    form_regions_whole_function,
)
from tests.conftest import MINI_TIMING_INPUT
from tests.test_core_regions import (
    all_f_blocks,
    chain_program,
    packable_program,
    packable_compressible,
)


class TestWholeFunctionStrategy:
    def test_small_function_becomes_one_region(self):
        program = chain_program(n_blocks=10, block_size=6)
        compressible = all_f_blocks(program)
        regions = form_regions_whole_function(
            program, compressible, CostModel()
        )
        assert len(regions) == 1
        assert set(regions[0].blocks) == compressible

    def test_oversized_function_falls_back_to_dfs(self):
        program = chain_program(n_blocks=60, block_size=6)  # 360 instrs
        compressible = all_f_blocks(program)
        cost = CostModel(buffer_bound_bytes=512)  # 128 instructions
        regions = form_regions_whole_function(program, compressible, cost)
        assert len(regions) >= 3
        ctx = RegionContext.build(program)
        for region in regions:
            blocks = set(region.blocks)
            expanded = (
                sum(ctx.sizes[b] for b in blocks)
                + sum(ctx.calls_in[b] for b in blocks)
                + 1
            )
            assert expanded <= cost.buffer_bound_instrs

    def test_partially_cold_function_falls_back(self):
        program = chain_program(n_blocks=10, block_size=6)
        compressible = all_f_blocks(program) - {"f.b0"}
        regions = form_regions_whole_function(
            program, compressible, CostModel()
        )
        covered = {label for r in regions for label in r.blocks}
        assert covered <= compressible

    def test_indices_sequential(self):
        program = packable_program()
        regions = form_regions_whole_function(
            program, packable_compressible(program), CostModel()
        )
        assert [r.index for r in regions] == list(range(len(regions)))

    @pytest.mark.parametrize("strategy", ["dfs", "whole_function"])
    def test_pipeline_equivalence(
        self, mini_program, mini_profile, mini_baseline, strategy
    ):
        config = dataclasses.replace(
            SquashConfig(theta=1.0), region_strategy=strategy
        )
        result = squash(mini_program, mini_profile, config)
        run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
        assert run.output == mini_baseline.output

    def test_unknown_strategy_rejected(self, mini_program, mini_profile):
        config = dataclasses.replace(
            SquashConfig(), region_strategy="bogus"
        )
        with pytest.raises(ValueError, match="region strategy"):
            squash(mini_program, mini_profile, config)


class TestPathologicalTimingInput:
    """Section 7: 'the execution speed of compressed code can suffer
    dramatically if the timing inputs cause a large number of calls to
    the decompressor' -- e.g. a cycle that is cold in the profile but
    hot in the timing run (the SPECint li anecdote)."""

    def craft(self, small_workload):
        """An input hammering one kind that the profile never saw."""
        kind = small_workload.plan.never_kinds[-2]
        n_kinds = small_workload.n_kinds
        return [kind + n_kinds * (p * 97 % (1 << 20)) for p in range(400)]

    def test_profile_cold_timing_hot_is_slow(
        self, small_workload, small_inputs
    ):
        from repro.program.layout import layout
        from repro.squeeze import squeeze
        from repro.vm.machine import Machine
        from repro.vm.profiler import collect_profile

        profile_in, _ = small_inputs
        squeezed, _ = squeeze(small_workload.program)
        base_layout = layout(squeezed)
        profile = collect_profile(squeezed, base_layout.image, profile_in)

        hammer = self.craft(small_workload)
        baseline = Machine(
            base_layout.image, input_words=hammer
        ).run(max_steps=100_000_000)

        # Small buffer: the hot-but-profile-cold handler spans several
        # regions, so every visit ping-pongs the decompressor.
        config = SquashConfig(
            theta=0.0, cost=CostModel(buffer_bound_bytes=128)
        )
        result = squash(squeezed, profile, config)
        run, runtime = result.run(hammer, max_steps=200_000_000)
        assert run.output == baseline.output
        slowdown = run.cycles / baseline.cycles
        assert slowdown > 2.0, (
            "profile-cold/timing-hot cycles should hurt badly"
        )
        assert runtime.stats.decompressions > len(hammer)

        # The regular timing input at the same setting is far cheaper.
        _, timing_in = small_inputs
        normal_base = Machine(
            base_layout.image, input_words=timing_in
        ).run(max_steps=100_000_000)
        normal_run, _ = result.run(timing_in, max_steps=200_000_000)
        assert (
            normal_run.cycles / normal_base.cycles < slowdown / 2
        )
