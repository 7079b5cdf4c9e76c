"""Footprint accounting (Section 2.1's space bookkeeping)."""

import pytest

from repro.core.metrics import (
    Footprint,
    baseline_code_words,
    squashed_footprint,
)
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.program.layout import layout


def make_footprint(**overrides) -> Footprint:
    defaults = dict(
        never_compressed=1000,
        entry_stubs=100,
        decompressor=360,
        offset_table=50,
        stub_area=64,
        runtime_buffer=128,
        compressed=2000,
        jump_tables=16,
    )
    defaults.update(overrides)
    return Footprint(**defaults)


def test_total_is_sum_of_parts():
    fp = make_footprint()
    assert fp.total == 1000 + 100 + 360 + 50 + 64 + 128 + 2000 + 16


def test_reduction_vs():
    fp = make_footprint()
    assert fp.reduction_vs(fp.total) == 0.0
    assert fp.reduction_vs(2 * fp.total) == pytest.approx(0.5)
    assert fp.reduction_vs(0) == 0.0


def test_reduction_can_be_negative():
    fp = make_footprint()
    assert fp.reduction_vs(fp.total // 2) < 0


def test_squashed_footprint_reads_segments(mini_program, mini_profile):
    result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    fp = squashed_footprint(result.image, jump_table_words=0)
    assert fp == result.footprint
    assert fp.never_compressed == result.image.segment("text").size
    assert fp.compressed == result.image.segment("compressed").size


def test_baseline_counts_text_plus_tables(mini_program):
    result = layout(mini_program)
    words = baseline_code_words(result, mini_program)
    assert words == result.image.segment("text").size  # no tables here


def test_baseline_includes_jump_tables():
    from tests.test_core_unswitch import switch_program

    program = switch_program()
    result = layout(program)
    words = baseline_code_words(result, program)
    assert words == result.image.segment("text").size + 4


def test_footprint_immutable():
    fp = make_footprint()
    with pytest.raises(Exception):
        fp.never_compressed = 0


def test_footprint_matches_image_extent(small_workload, small_inputs):
    """Invariant 5: reported footprint == physical extent of the
    squashed image's code segments plus jump tables."""
    from repro.squeeze import squeeze
    from repro.vm.profiler import collect_profile

    profile_in, _ = small_inputs
    squeezed, _ = squeeze(small_workload.program)
    base = layout(squeezed)
    profile = collect_profile(squeezed, base.image, profile_in)
    result = squash(squeezed, profile, SquashConfig(theta=0.0))
    code_extent = sum(
        seg.size for seg in result.image.segments if seg.name != "data"
    )
    assert (
        result.footprint.total
        == code_extent + result.footprint.jump_tables
    )
