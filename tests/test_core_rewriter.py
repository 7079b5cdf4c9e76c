"""The squash rewriter: image structure, stubs, footprint identity."""

import pytest

from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.isa import Op, decode
from repro.isa.opcodes import REG_AT
from tests.conftest import MINI_TIMING_INPUT


@pytest.fixture(scope="module")
def squashed(mini_program, mini_profile):
    return squash(mini_program, mini_profile, SquashConfig(theta=0.0))


SEGMENTS = (
    "text",
    "entry_stubs",
    "decompressor",
    "offset_table",
    "stub_area",
    "runtime_buffer",
    "data",
    "compressed",
)


def test_all_segments_present(squashed):
    for name in SEGMENTS:
        assert squashed.image.has_segment(name)


def test_segments_contiguous(squashed):
    segs = sorted(squashed.image.segments, key=lambda s: s.start)
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
    assert segs[0].start == squashed.image.base
    assert segs[-1].end == squashed.image.end


def test_footprint_identity(squashed):
    """Reported footprint equals the actual extent of the image's code
    segments plus the jump tables (invariant 5 of DESIGN.md)."""
    fp = squashed.footprint
    seg_total = sum(
        squashed.image.segment(name).size
        for name in SEGMENTS
        if name != "data"
    )
    assert fp.total == seg_total + fp.jump_tables


def test_cold_code_left_text(squashed, mini_program):
    """The cold functions f and g are gone from text."""
    text = squashed.image.segment("text")
    heads = {
        label
        for addr, label in squashed.image.block_heads.items()
        if text.contains(addr)
    }
    assert "f.entry" not in heads
    assert "main.loop" in heads
    # tiny g/coldcall blocks may stay in text (unprofitable to compress)
    assert "main.hot" in heads


def test_entry_stub_layout(squashed):
    """Each entry stub is [bsr $at, decomp_entry($at)] [tag]."""
    desc = squashed.descriptor
    for stub in desc.entry_stubs:
        call = decode(squashed.image.word(stub.addr))
        assert call.op is Op.BSR
        assert call.ra == REG_AT
        target = stub.addr + 1 + call.imm
        assert target == desc.decomp_base + REG_AT
        tag = squashed.image.word(stub.addr + 1)
        assert tag >> 16 == stub.region
        assert tag & 0xFFFF == stub.offset


def test_offset_table_matches_blob(squashed):
    desc = squashed.descriptor
    blob = squashed.info.blob
    for index, offset in enumerate(blob.region_bit_offsets):
        assert squashed.image.word(desc.offset_table_addr + index) == offset
        assert desc.regions[index].bit_offset == offset


def test_compressed_area_contains_blob(squashed):
    desc = squashed.descriptor
    blob = squashed.info.blob
    words = [
        squashed.image.word(desc.table_addr + index)
        for index in range(desc.table_words)
    ]
    assert words == blob.table_words
    words = [
        squashed.image.word(desc.stream_addr + index)
        for index in range(desc.stream_words)
    ]
    assert words == blob.stream_words


def test_region_descriptors_consistent(squashed):
    desc = squashed.descriptor
    for region in desc.regions:
        assert region.expanded_size <= desc.buffer_words
        assert region.base == desc.buffer_base
        for label, slot in region.block_slots.items():
            assert 1 <= slot < region.expanded_size


def test_entry_pc_points_to_text_or_stub(squashed):
    entry = squashed.image.entry_pc
    seg = squashed.image.segment_of(entry)
    assert seg.name in ("text", "entry_stubs")


def test_compression_accounting(squashed):
    """The mini program is tiny, so the per-program Huffman tables
    dominate; the stream itself must still be well under a word per
    instruction."""
    info = squashed.info
    assert info.compressed_original_instrs > 0
    stream_ratio = (info.blob.stream_bits / 32) / info.compressed_original_instrs
    assert stream_ratio < 1.0


def test_rewrite_does_not_mutate_inputs(mini_program, mini_profile):
    before = mini_program.code_size
    counts = dict(mini_profile.counts)
    squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    assert mini_program.code_size == before
    assert mini_profile.counts == counts


def test_no_pack_produces_more_regions(mini_program, mini_profile):
    import dataclasses

    packed = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    unpacked = squash(
        mini_program,
        mini_profile,
        dataclasses.replace(SquashConfig(theta=1.0), pack=False),
    )
    assert len(unpacked.info.regions) >= len(packed.info.regions)


def test_compile_time_scheme_emits_static_stubs(mini_program, mini_profile):
    config = SquashConfig(
        theta=1.0, restore_scheme=RestoreStubScheme.COMPILE_TIME,
        cost=SquashConfig().cost.with_buffer_bound(64),
    )
    result = squash(mini_program, mini_profile, config)
    desc = result.descriptor
    if desc.compile_time_stubs:
        assert desc.stub_area_words == 3 * len(desc.compile_time_stubs)
        stub = desc.compile_time_stubs[0]
        # stub: [call][bsr $at, decomp][tag]
        middle = decode(result.image.word(stub.addr + 1))
        assert middle.op is Op.BSR and middle.ra == REG_AT
        tag = result.image.word(stub.addr + 2)
        assert tag >> 16 == stub.region
        assert tag & 0xFFFF == stub.return_offset


def test_decompress_once_gives_each_region_an_area(
    mini_program, mini_profile
):
    config = SquashConfig(
        theta=1.0,
        strategy=BufferStrategy.DECOMPRESS_ONCE,
        cost=SquashConfig().cost.with_buffer_bound(64),
    )
    result = squash(mini_program, mini_profile, config)
    desc = result.descriptor
    bases = [r.base for r in desc.regions]
    assert len(set(bases)) == len(bases)  # distinct areas
    assert desc.buffer_words == sum(r.expanded_size for r in desc.regions)


def test_no_calls_strategy_compresses_only_callless_blocks(
    mini_program, mini_profile
):
    config = SquashConfig(theta=1.0, strategy=BufferStrategy.NO_CALLS)
    result = squash(mini_program, mini_profile, config)
    for label in result.info.compressed_blocks:
        _, block = mini_program.find_block(label)
        assert not block.has_call
    assert result.info.xcall_sites == 0


def test_reduction_sign_and_parts(squashed):
    fp = squashed.footprint
    assert fp.never_compressed > 0
    assert fp.decompressor > 0
    assert fp.runtime_buffer > 0
    assert fp.compressed > 0
    # the mini program is tiny: fixed overheads swamp the savings
    assert squashed.reduction < 0.5


def test_runs_after_rewrite(squashed, mini_baseline):
    run, _ = squashed.run(MINI_TIMING_INPUT)
    assert run.output == mini_baseline.output
