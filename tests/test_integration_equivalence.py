"""Whole-system equivalence on generated workloads.

The strongest invariant in the repository: squash any generated
program at any θ / strategy / buffer bound, run it on inputs that
exercise code the profile never saw (including longjmp out of
compressed code and indirect calls through rewritten function-pointer
tables), and the outputs must be bit-identical to the uncompressed
program's.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.costmodel import CostModel
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.pipeline import SquashConfig, squash_program as squash
from repro.program.layout import layout
from repro.squeeze import squeeze
from repro.vm.machine import Machine
from repro.vm.profiler import collect_profile
from repro.workloads.generator import build_workload
from repro.workloads.inputs import profiling_input, timing_input
from tests.conftest import small_spec


@pytest.fixture(scope="module")
def prepared(small_workload, small_inputs):
    """Squeezed program + profile + baseline timing run."""
    profile_in, timing_in = small_inputs
    squeezed, _ = squeeze(small_workload.program)
    result = layout(squeezed)
    profile = collect_profile(squeezed, result.image, profile_in)
    baseline = Machine(result.image, input_words=timing_in).run(
        max_steps=50_000_000
    )
    return squeezed, profile, baseline, timing_in


THETAS = (0.0, 1e-3, 1e-2, 0.1, 1.0)


@pytest.mark.parametrize("theta", THETAS)
def test_equivalence_across_theta(prepared, theta):
    squeezed, profile, baseline, timing_in = prepared
    result = squash(squeezed, profile, SquashConfig(theta=theta))
    run, _ = result.run(timing_in, max_steps=100_000_000)
    assert run.output == baseline.output
    assert run.exit_code == baseline.exit_code
    assert run.max_stack_depth == baseline.max_stack_depth


@pytest.mark.parametrize("strategy", tuple(BufferStrategy))
@pytest.mark.parametrize("scheme", tuple(RestoreStubScheme))
def test_equivalence_across_strategies(prepared, strategy, scheme):
    squeezed, profile, baseline, timing_in = prepared
    config = SquashConfig(
        theta=1.0, strategy=strategy, restore_scheme=scheme
    )
    result = squash(squeezed, profile, config)
    run, _ = result.run(timing_in, max_steps=100_000_000)
    assert run.output == baseline.output
    assert run.max_stack_depth == baseline.max_stack_depth


@pytest.mark.parametrize("bound", (64, 128, 256, 1024))
def test_equivalence_across_bounds(prepared, bound):
    squeezed, profile, baseline, timing_in = prepared
    config = SquashConfig(
        theta=1.0, cost=CostModel(buffer_bound_bytes=bound)
    )
    result = squash(squeezed, profile, config)
    run, _ = result.run(timing_in, max_steps=100_000_000)
    assert run.output == baseline.output


def test_longjmp_from_compressed_code(prepared, small_workload):
    """Drive the never-executed longjmp handler: an item of its kind
    with the magic payload longjmps out of the runtime buffer back to
    main's setjmp point; the error counter must tick identically."""
    squeezed, profile, _, _ = prepared
    plan = small_workload.plan
    n_kinds = small_workload.n_kinds
    lj_kinds = list(plan.never_kinds)
    # payload & 0xff == 0x5a triggers the longjmp stanza
    crafted = []
    for kind in lj_kinds:
        crafted.append(kind + n_kinds * 0x5A)
        crafted.append(kind + n_kinds * 0x1234)
    crafted = crafted * 2

    base_run = Machine(
        layout(squeezed).image, input_words=crafted
    ).run(max_steps=50_000_000)
    result = squash(squeezed, profile, SquashConfig(theta=1.0))
    run, _ = result.run(crafted, max_steps=100_000_000)
    assert run.output == base_run.output
    assert base_run.output[1] > 0  # the longjmp really happened


def test_never_kinds_inputs_equivalent(prepared, small_workload):
    """Exercise every never-executed handler (switches, fptr calls,
    recursion) through compressed code."""
    squeezed, profile, _, _ = prepared
    n_kinds = small_workload.n_kinds
    import random

    rng = random.Random(99)
    crafted = [
        kind + n_kinds * rng.randrange(1 << 20)
        for kind in small_workload.plan.never_kinds
        for _ in range(5)
    ]
    base_run = Machine(
        layout(squeezed).image, input_words=crafted
    ).run(max_steps=50_000_000)
    result = squash(
        squeezed, profile,
        SquashConfig(theta=1.0, cost=CostModel(buffer_bound_bytes=128)),
    )
    run, _ = result.run(crafted, max_steps=100_000_000)
    assert run.output == base_run.output


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    theta=st.sampled_from((0.0, 1e-2, 1.0)),
    bound=st.sampled_from((96, 512)),
)
def test_random_workloads_equivalent(seed, theta, bound):
    """Property: any seeded workload squashes to an equivalent binary."""
    spec = small_spec(
        name=f"prop{seed}",
        seed=seed,
        target_input_size=2600,
        target_squeeze_size=1800,
        profile_items=400,
        timing_items=600,
    )
    workload = build_workload(spec, calibrate=False, filler_budget=1700)
    squeezed, _ = squeeze(workload.program)
    result = layout(squeezed)
    profile = collect_profile(
        squeezed, result.image, profiling_input(workload)
    )
    timing_in = timing_input(workload)
    baseline = Machine(result.image, input_words=timing_in).run(
        max_steps=50_000_000
    )
    config = SquashConfig(
        theta=theta, cost=CostModel(buffer_bound_bytes=bound)
    )
    squashed = squash(squeezed, profile, config)
    run, _ = squashed.run(timing_in, max_steps=100_000_000)
    assert run.output == baseline.output
    assert run.exit_code == baseline.exit_code
    assert run.max_stack_depth == baseline.max_stack_depth
