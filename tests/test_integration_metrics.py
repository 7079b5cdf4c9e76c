"""Quantitative shape checks against the paper's claims (small scale)."""

import dataclasses

import pytest

from repro.core.costmodel import CostModel
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.program.layout import layout
from repro.squeeze import squeeze
from repro.vm.machine import Machine
from repro.vm.profiler import collect_profile


@pytest.fixture(scope="module")
def prepared(small_workload, small_inputs):
    profile_in, timing_in = small_inputs
    squeezed, stats = squeeze(small_workload.program)
    result = layout(squeezed)
    profile = collect_profile(squeezed, result.image, profile_in)
    baseline = Machine(result.image, input_words=timing_in).run(
        max_steps=50_000_000
    )
    return squeezed, profile, baseline, timing_in, stats


def test_squeeze_reduction_band(prepared):
    """Table 1's shape: squeeze takes off roughly 30% (here, whatever
    the spec's targets encode -- about a third)."""
    *_, stats = prepared
    assert 0.2 < stats.reduction < 0.45


def test_reduction_monotone_in_theta(prepared):
    squeezed, profile, *_ = prepared
    reductions = [
        squash(squeezed, profile, SquashConfig(theta=theta)).reduction
        for theta in (0.0, 1e-2, 0.1, 1.0)
    ]
    for lower, higher in zip(reductions, reductions[1:]):
        assert higher >= lower - 0.005  # monotone modulo tiny noise


def test_cold_mass_compressed_at_theta_one(prepared):
    squeezed, profile, *_ = prepared
    result = squash(squeezed, profile, SquashConfig(theta=1.0))
    # unswitch-chain blocks are new labels; they replaced same-size code
    compressed = sum(
        profile.sizes.get(l, 2) for l in result.info.compressed_blocks
    )
    assert compressed / squeezed.code_size > 0.6


def test_overhead_grows_with_theta(prepared):
    squeezed, profile, baseline, timing_in, _ = prepared
    cycles = []
    for theta in (0.0, 1e-2, 1.0):
        result = squash(squeezed, profile, SquashConfig(theta=theta))
        run, _ = result.run(timing_in, max_steps=200_000_000)
        cycles.append(run.cycles)
    assert cycles[0] <= cycles[1] <= cycles[2]
    assert cycles[0] / baseline.cycles < 1.2  # near-zero at θ=0


def test_gamma_band(prepared):
    """Section 3: compressed size ≈ 66% of original.  Our synthetic
    code lands in the same region (tables included)."""
    squeezed, profile, *_ = prepared
    result = squash(squeezed, profile, SquashConfig(theta=1.0))
    assert 0.45 < result.info.gamma_measured < 0.8


def test_decompress_once_footprint_larger(prepared):
    """Section 2.2's argument for rejecting option 2: never discarding
    decompressed code needs much more memory."""
    squeezed, profile, *_ = prepared
    config = SquashConfig(theta=1.0)
    overwrite = squash(squeezed, profile, config)
    once = squash(
        squeezed,
        profile,
        dataclasses.replace(config, strategy=BufferStrategy.DECOMPRESS_ONCE),
    )
    assert (
        once.footprint.runtime_buffer
        > 5 * overwrite.footprint.runtime_buffer
    )
    assert once.footprint.total > overwrite.footprint.total


def test_no_calls_compresses_less(prepared):
    """Section 2.2's argument for rejecting option 1: refusing blocks
    with calls severely limits compressible code."""
    squeezed, profile, *_ = prepared
    config = SquashConfig(theta=1.0)
    overwrite = squash(squeezed, profile, config)
    no_calls = squash(
        squeezed,
        profile,
        dataclasses.replace(config, strategy=BufferStrategy.NO_CALLS),
    )
    size = lambda r: sum(
        profile.sizes.get(l, 2) for l in r.info.compressed_blocks
    )
    assert size(no_calls) < size(overwrite)


def test_runtime_stub_scheme_uses_less_space_than_compile_time(prepared):
    """Section 2.2: compile-time restore stubs are a large fraction of
    the never-compressed code; the runtime scheme's reserved area is
    small and bounded."""
    squeezed, profile, *_ = prepared
    config = SquashConfig(theta=1.0)
    runtime_r = squash(squeezed, profile, config)
    ct = squash(
        squeezed,
        profile,
        dataclasses.replace(
            config, restore_scheme=RestoreStubScheme.COMPILE_TIME
        ),
    )
    assert runtime_r.footprint.stub_area < ct.footprint.stub_area


def test_max_live_stubs_small(prepared):
    """Paper: at most 9 concurrent restore stubs even at θ=0.01."""
    squeezed, profile, _, timing_in, _ = prepared
    result = squash(squeezed, profile, SquashConfig(theta=1.0))
    _, runtime = result.run(timing_in, max_steps=200_000_000)
    assert runtime.stats.max_live_stubs <= 9


def test_buffer_bound_sweep_has_interior_optimum(prepared):
    """Figure 3: too-small and too-large buffer bounds both lose."""
    squeezed, profile, *_ = prepared
    sizes = {}
    for bound in (32, 128, 512, 4096):
        config = SquashConfig(
            theta=1.0, cost=CostModel(buffer_bound_bytes=bound)
        )
        sizes[bound] = squash(squeezed, profile, config).footprint.total
    best = min(sizes, key=sizes.get)
    assert best in (128, 512)


def test_packing_saves_space(prepared):
    squeezed, profile, *_ = prepared
    config = SquashConfig(theta=1.0)
    packed = squash(squeezed, profile, config)
    unpacked = squash(
        squeezed, profile, dataclasses.replace(config, pack=False)
    )
    assert packed.footprint.total <= unpacked.footprint.total
    assert len(packed.info.regions) <= len(unpacked.info.regions)


def test_unswitching_enables_compression(prepared):
    squeezed, profile, *_ = prepared
    config = SquashConfig(theta=1.0)
    with_unswitch = squash(squeezed, profile, config)
    without = squash(
        squeezed, profile, dataclasses.replace(config, unswitch=False)
    )
    assert (
        with_unswitch.info.unswitch.unswitched_blocks > 0
    )
    size = lambda r: sum(
        profile.sizes.get(l, 0) for l in r.info.compressed_blocks
    )
    assert size(without) <= size(with_unswitch)
