"""The cross-runtime region decode cache never changes modelled costs.

The cache memoizes host-side decode work per (blob digest, bit offset);
the guest is still charged the full per-bit/per-instruction decode cost
from the stored bit count, so ``RunResult.cycles`` and every runtime
counter must be identical with the cache on or off.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.costmodel import CostModel
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.core.runtime import (
    clear_region_decode_cache,
    region_decode_cache_info,
)
from tests.conftest import MINI_TIMING_INPUT

SMALL_BUFFER = SquashConfig(
    theta=1.0, cost=CostModel(buffer_bound_bytes=48)
)


@pytest.fixture(scope="module")
def multi_region(mini_program, mini_profile):
    return squash(mini_program, mini_profile, SMALL_BUFFER)


def _run(result, region_cache):
    run, runtime = result.run(
        MINI_TIMING_INPUT, max_steps=10_000_000, region_cache=region_cache
    )
    return run, runtime.stats


def test_cycles_identical_with_and_without_cache(multi_region):
    clear_region_decode_cache()
    run_off, stats_off = _run(multi_region, region_cache=False)
    run_cold, stats_cold = _run(multi_region, region_cache=True)
    run_warm, stats_warm = _run(multi_region, region_cache=True)

    for run in (run_cold, run_warm):
        assert run.cycles == run_off.cycles
        assert run.steps == run_off.steps
        assert run.output == run_off.output
        assert run.exit_code == run_off.exit_code
    for stats in (stats_cold, stats_warm):
        assert stats == stats_off

    info = region_decode_cache_info()
    assert info["entries"] > 0
    assert info["hits"] > 0  # the warm run decoded nothing bit-by-bit
    assert info["misses"] == info["entries"]


def test_cache_not_shared_across_different_blobs(
    mini_program, mini_profile
):
    """A second image with different compressed bytes gets its own
    entries (keys include the blob digest, not just the bit offset)."""
    clear_region_decode_cache()
    a = squash(mini_program, mini_profile, SMALL_BUFFER)
    b = squash(
        mini_program,
        mini_profile,
        dataclasses.replace(
            SMALL_BUFFER, cost=CostModel(buffer_bound_bytes=64)
        ),
    )
    run_a, _ = _run(a, region_cache=True)
    run_b, _ = _run(b, region_cache=True)
    clear_region_decode_cache()
    run_a2, _ = _run(a, region_cache=False)
    run_b2, _ = _run(b, region_cache=False)
    assert run_a.output == run_a2.output
    assert run_b.output == run_b2.output
    assert run_a.cycles == run_a2.cycles
    assert run_b.cycles == run_b2.cycles
