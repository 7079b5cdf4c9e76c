"""End-to-end squash correctness on the handcrafted mini program.

These are the invariants the whole system stands on: for every θ,
buffer strategy, restore-stub scheme, and buffer bound, the squashed
program's observable behaviour (output words, exit code) is identical
to the original's, and the data call stack never grows (Section 2.2:
"the call stack of the original and compressed program are exactly the
same size at any point").
"""

import dataclasses

import pytest

from repro.core.costmodel import CostModel
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.pipeline import SquashConfig, squash_program as squash
from tests.conftest import MINI_TIMING_INPUT

THETAS = (0.0, 1.0)
STRATEGIES = tuple(BufferStrategy)
SCHEMES = tuple(RestoreStubScheme)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_equivalence_matrix(
    mini_program, mini_profile, mini_baseline, theta, strategy, scheme
):
    config = SquashConfig(
        theta=theta, strategy=strategy, restore_scheme=scheme
    )
    result = squash(mini_program, mini_profile, config)
    run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run.output == mini_baseline.output
    assert run.exit_code == mini_baseline.exit_code
    assert run.max_stack_depth == mini_baseline.max_stack_depth


@pytest.mark.parametrize("bound", (32, 48, 64, 96, 128, 512))
def test_equivalence_across_buffer_bounds(
    mini_program, mini_profile, mini_baseline, bound
):
    config = SquashConfig(
        theta=1.0, cost=CostModel(buffer_bound_bytes=bound)
    )
    result = squash(mini_program, mini_profile, config)
    run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run.output == mini_baseline.output
    assert run.max_stack_depth == mini_baseline.max_stack_depth


def test_equivalence_without_caching(
    mini_program, mini_profile, mini_baseline
):
    config = dataclasses.replace(
        SquashConfig(theta=1.0, cost=CostModel(buffer_bound_bytes=48)),
        buffer_caching=False,
    )
    result = squash(mini_program, mini_profile, config)
    run, _ = result.run(MINI_TIMING_INPUT, max_steps=20_000_000)
    assert run.output == mini_baseline.output


def test_equivalence_with_mtf_codec(
    mini_program, mini_profile, mini_baseline
):
    from repro.compress.codec import CodecConfig
    from repro.isa.fields import FieldKind

    config = dataclasses.replace(
        SquashConfig(theta=1.0),
        codec=CodecConfig(
            mtf_kinds=frozenset(
                {FieldKind.RA, FieldKind.RB, FieldKind.RC}
            )
        ),
    )
    result = squash(mini_program, mini_profile, config)
    run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    assert run.output == mini_baseline.output


def test_empty_input_still_works(mini_program, mini_profile):
    result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    run, _ = result.run([])
    assert run.exit_code == 0


def test_profile_input_replay(mini_program, mini_profile, mini_layout):
    """Running the squashed binary on the *profiling* input (all hot)
    must also match, with no decompression at θ=0 beyond start-up."""
    from tests.conftest import MINI_PROFILE_INPUT
    from repro.vm.machine import Machine

    baseline = Machine(
        mini_layout.image, input_words=MINI_PROFILE_INPUT
    ).run(max_steps=10_000_000)
    result = squash(mini_program, mini_profile, SquashConfig(theta=0.0))
    run, runtime = result.run(MINI_PROFILE_INPUT, max_steps=10_000_000)
    assert run.output == baseline.output
    assert runtime.stats.decompressions == 0


def test_theta_zero_overhead_is_zero_on_profile_path(
    mini_program, mini_profile, mini_layout
):
    from tests.conftest import MINI_PROFILE_INPUT
    from repro.vm.machine import Machine

    baseline = Machine(
        mini_layout.image, input_words=MINI_PROFILE_INPUT
    ).run(max_steps=10_000_000)
    result = squash(mini_program, mini_profile, SquashConfig(theta=0.0))
    run, _ = result.run(MINI_PROFILE_INPUT, max_steps=10_000_000)
    # identical cycle count modulo layout-inserted jumps
    assert abs(run.cycles - baseline.cycles) <= baseline.cycles * 0.02


def test_save_preserves_dotted_prefix(
    mini_program, mini_profile, tmp_path
):
    """`with_suffix` would mangle `adpcm.theta1e-5` into `adpcm.img`;
    save must append suffixes, never substitute them."""
    from repro.core.pipeline import load_squashed

    result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    prefix = tmp_path / "adpcm.theta1e-5"
    image_path, meta_path = result.save(prefix)
    assert image_path.endswith("adpcm.theta1e-5.img")
    assert meta_path.endswith("adpcm.theta1e-5.json")

    # Two dotted prefixes in one directory must not collide.
    other = squash(mini_program, mini_profile, SquashConfig(theta=0.0))
    other.save(tmp_path / "adpcm.theta0")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "adpcm.theta0.img", "adpcm.theta0.json",
        "adpcm.theta1e-5.img", "adpcm.theta1e-5.json",
    ]

    # The offline integrity checker resolves the same paths.
    from repro.core.verify import verify_squashed

    report = verify_squashed(prefix)
    assert report.ok, report.fault

    loaded = load_squashed(prefix)
    run, _ = result.run(MINI_TIMING_INPUT, max_steps=10_000_000)
    machine, _ = loaded.make_machine(MINI_TIMING_INPUT)
    reloaded = machine.run(max_steps=10_000_000)
    assert reloaded.output == run.output
    assert reloaded.exit_code == run.exit_code


def test_squash_accepts_precomputed_baseline(mini_program, mini_profile):
    """The sweep harness passes the θ-invariant baseline size through;
    the result must be identical to deriving it in-call."""
    derived = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    passed = squash(
        mini_program,
        mini_profile,
        SquashConfig(theta=1.0),
        baseline_words=derived.baseline_words,
    )
    assert passed.baseline_words == derived.baseline_words
    assert passed.footprint == derived.footprint
    assert passed.image.memory == derived.image.memory


def test_stage_report_attached(mini_program, mini_profile):
    result = squash(mini_program, mini_profile, SquashConfig(theta=1.0))
    assert result.stage_report is not None
    assert [t.name for t in result.stage_report.stages] == [
        "cold", "plan", "classify", "layout", "encode", "emit",
    ]
    assert result.stage_report.total_seconds > 0
