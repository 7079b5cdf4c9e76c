"""The runtime decompressor and CreateStub machinery."""

import dataclasses

import pytest

from repro.core.costmodel import CostModel
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.core.runtime import SquashRuntime, StubAreaOverflow
from repro.isa import decode
from tests.conftest import MINI_TIMING_INPUT

SMALL_BUFFER = SquashConfig(
    theta=1.0, cost=CostModel(buffer_bound_bytes=48)
)


@pytest.fixture(scope="module")
def multi_region(mini_program, mini_profile):
    """Squashed with a small buffer: multiple regions, real restore
    stubs on the timing run."""
    return squash(mini_program, mini_profile, SMALL_BUFFER)


def test_buffer_holds_decoded_region(multi_region):
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    machine.run(max_steps=5_000_000)
    desc = multi_region.descriptor
    assert runtime.current_region is not None
    region = desc.region(runtime.current_region)
    # every word in the used part of the buffer decodes
    for slot in range(region.expanded_size):
        decode(machine.mem[desc.buffer_base + slot])


def test_restore_stub_lifecycle(multi_region):
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    machine.run(max_steps=5_000_000)
    stats = runtime.stats
    assert stats.createstub_calls > 0
    assert stats.stubs_created > 0
    assert stats.stubs_created == stats.stubs_freed  # all returned
    assert stats.restore_invocations >= stats.stubs_created
    assert stats.max_live_stubs >= 1
    assert runtime._live_stubs == {}


def test_stub_reuse_counts(multi_region):
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    machine.run(max_steps=5_000_000)
    stats = runtime.stats
    assert (
        stats.createstub_calls
        == stats.stubs_created + stats.stub_reuses
    )


def test_decompression_cost_charged(multi_region):
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    run = machine.run(max_steps=5_000_000)
    stats = runtime.stats
    assert stats.decompressions > 0
    assert stats.bits_decoded > 0
    assert stats.instrs_materialised > 0
    assert stats.decomp_cycles > 0
    assert run.cycles >= run.steps  # cycles = steps + service cost


def test_buffer_caching_reduces_decompressions(
    mini_program, mini_profile, mini_baseline
):
    cached = squash(mini_program, mini_profile, SMALL_BUFFER)
    uncached = squash(
        mini_program,
        mini_profile,
        dataclasses.replace(SMALL_BUFFER, buffer_caching=False),
    )
    run_c, rt_c = cached.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    run_u, rt_u = uncached.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run_c.output == run_u.output == mini_baseline.output
    assert rt_u.stats.decompressions > rt_c.stats.decompressions
    assert rt_c.stats.buffer_hits > 0
    assert rt_u.stats.buffer_hits == 0
    assert run_u.cycles > run_c.cycles


def test_stub_area_overflow_detected(mini_program, mini_profile):
    config = dataclasses.replace(
        SMALL_BUFFER,
        cost=CostModel(buffer_bound_bytes=48, stub_area_capacity=0),
    )
    result = squash(mini_program, mini_profile, config)
    machine, _ = result.make_machine(MINI_TIMING_INPUT)
    with pytest.raises(StubAreaOverflow):
        machine.run(max_steps=5_000_000)


def test_decompress_once_materialises_each_region_once(
    mini_program, mini_profile, mini_baseline
):
    config = dataclasses.replace(
        SMALL_BUFFER, strategy=BufferStrategy.DECOMPRESS_ONCE
    )
    result = squash(mini_program, mini_profile, config)
    run, runtime = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run.output == mini_baseline.output
    assert runtime.stats.decompressions <= len(result.descriptor.regions)
    assert runtime.stats.createstub_calls == 0


def test_compile_time_scheme_runs(mini_program, mini_profile, mini_baseline):
    config = dataclasses.replace(
        SMALL_BUFFER, restore_scheme=RestoreStubScheme.COMPILE_TIME
    )
    result = squash(mini_program, mini_profile, config)
    run, runtime = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run.output == mini_baseline.output
    assert runtime.stats.createstub_calls == 0
    assert runtime.stats.restore_invocations > 0


def test_runtime_parses_codec_from_image_memory(multi_region):
    """The decompressor's tables come from image memory, not from the
    rewriter's in-process objects."""
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    machine.run(max_steps=5_000_000)
    assert runtime._codec is not None
    # compare against a fresh parse of the blob
    from repro.compress.codec import ProgramCodec

    blob = multi_region.info.blob
    assert (
        ProgramCodec.from_table_words(blob.table_words).codes
        == runtime._codec.codes
    )


def test_services_cover_all_registers(multi_region):
    runtime = SquashRuntime(multi_region.descriptor)
    services = runtime.services()
    base = multi_region.descriptor.decomp_base
    assert set(services) == {base + r for r in range(32)}


def test_expanded_size_matches_descriptor(multi_region):
    machine, runtime = multi_region.make_machine(MINI_TIMING_INPUT)
    machine.run(max_steps=5_000_000)
    for region_index, (words, *_) in runtime._expanded_cache.items():
        region = multi_region.descriptor.region(region_index)
        assert len(words) + 1 == region.expanded_size
