"""Descriptors and the cost model."""

import dataclasses
import json

import pytest

from repro.analysis.experiments import squash_benchmark
from repro.compress.codec import CODEC_VARIANTS
from repro.core.config import SquashConfig
from repro.core.costmodel import CostModel
from repro.core.descriptor import (
    BufferStrategy,
    RegionDescriptor,
    RestoreStubScheme,
    SquashDescriptor,
    descriptor_to_dict,
)


def make_descriptor(**overrides) -> SquashDescriptor:
    defaults = dict(
        strategy=BufferStrategy.OVERWRITE,
        restore_scheme=RestoreStubScheme.RUNTIME,
        cost=CostModel(),
        decomp_base=0x2000,
        decomp_words=360,
        offset_table_addr=0x2200,
        table_addr=0x3000,
        table_words=10,
        stream_addr=0x300A,
        stream_words=50,
        stub_area_base=0x2300,
        stub_area_words=64,
        stub_capacity=16,
        buffer_base=0x2400,
        buffer_words=128,
        regions=[
            RegionDescriptor(
                index=0, bit_offset=0, expanded_size=40, base=0x2400,
                block_slots={"f.a": 1},
            ),
            RegionDescriptor(
                index=1, bit_offset=333, expanded_size=128, base=0x2400,
            ),
        ],
    )
    defaults.update(overrides)
    return SquashDescriptor(**defaults)


def test_region_lookup():
    desc = make_descriptor()
    assert desc.region(1).bit_offset == 333
    with pytest.raises(IndexError):
        desc.region(5)


def test_address_range_queries():
    desc = make_descriptor()
    assert desc.in_buffer(0x2400)
    assert desc.in_buffer(0x2400 + 127)
    assert not desc.in_buffer(0x2400 + 128)
    assert desc.in_stub_area(0x2300)
    assert not desc.in_stub_area(0x2300 + 64)


def test_region_at():
    desc = make_descriptor()
    regions = [
        RegionDescriptor(index=0, bit_offset=0, expanded_size=10, base=100),
        RegionDescriptor(index=1, bit_offset=9, expanded_size=10, base=110),
    ]
    desc = make_descriptor(regions=regions)
    assert desc.region_at(105).index == 0
    assert desc.region_at(110).index == 1
    assert desc.region_at(99) is None


def test_stub_word_constants():
    # paper: runtime stubs cost "an additional 8 bytes" (2 words) over
    # compile-time stubs for the usage count machinery
    assert (
        SquashDescriptor.RESTORE_STUB_WORDS
        - SquashDescriptor.CT_STUB_WORDS
    ) * 4 == 4  # count word (the key word is our bookkeeping)


class TestCostModel:
    def test_defaults_match_paper(self):
        cost = CostModel()
        assert cost.buffer_bound_bytes == 512  # paper's empirical K
        assert cost.entry_stub_words == 2  # Section 4's constant
        assert 0.6 < cost.gamma < 0.7  # "approximately 66%"

    def test_buffer_bound_instrs(self):
        assert CostModel(buffer_bound_bytes=512).buffer_bound_instrs == 128
        assert CostModel(buffer_bound_bytes=64).buffer_bound_instrs == 16

    def test_with_buffer_bound(self):
        cost = CostModel().with_buffer_bound(256)
        assert cost.buffer_bound_bytes == 256
        assert cost.gamma == CostModel().gamma  # other fields kept

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().gamma = 0.5


def test_strategies_and_schemes_enumerate():
    assert {s.value for s in BufferStrategy} == {
        "no_calls", "decompress_once", "overwrite",
    }
    assert {s.value for s in RestoreStubScheme} == {
        "compile_time", "runtime",
    }


def _asdict_form(desc: SquashDescriptor) -> dict:
    """The earlier ``descriptor_to_dict``, kept as its reference."""
    data = dataclasses.asdict(desc)
    data["strategy"] = desc.strategy.value
    data["restore_scheme"] = desc.restore_scheme.value
    return data


@pytest.mark.parametrize("scheme", list(RestoreStubScheme))
@pytest.mark.parametrize("variant", sorted(CODEC_VARIANTS))
def test_descriptor_json_equals_the_asdict_form(variant, scheme):
    result = squash_benchmark("adpcm", 0.1, SquashConfig(
        theta=1e-3, codec_variant=variant, restore_scheme=scheme,
    ))
    desc = result.descriptor
    assert desc.regions and desc.entry_stubs and desc.integrity.regions
    assert bool(desc.compile_time_stubs) == (
        scheme is RestoreStubScheme.COMPILE_TIME
    )
    for form in (desc, dataclasses.replace(desc, integrity=None)):
        assert json.dumps(descriptor_to_dict(form)) == json.dumps(
            _asdict_form(form)
        )
