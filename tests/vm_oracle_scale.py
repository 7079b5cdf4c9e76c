"""The translated VM against the step interpreter at benchmark scale.

``tests/test_vm_translate.py`` draws programs at scale 0.02-0.03,
where few blocks reach ``TRANSLATE_AFTER`` and no buffer is refilled
thousands of times.  This module runs the three program shapes of the
``squash_run`` benchmark (adpcm, gsm and jpeg_enc at scale 0.15,
re-seeded the way the benchmark re-seeds them at its seeds 1 and 3) at
θ ∈ {0, 0.1, 1} under each buffer strategy, step interpreter only
against default translation.  The translated run is built by
:meth:`SquashResult.make_machine`, so the text blocks its profile found
hot translate on their first entry; the step interpreter's run is
unseeded.  Both runs must agree on the result (steps, cycles, output,
exit code, block counts, max stack depth), the runtime statistics, the
runtime trace stream, registers and memory.  The second seed's runs
count block heads.

Its name keeps it out of tier-1; CI's ``vm-oracle`` job runs it::

    PYTHONPATH=src python -m pytest -q tests/vm_oracle_scale.py
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

import repro.api as api
from repro.core.descriptor import BufferStrategy
from repro.core.runtime import SquashRuntime
from repro.program.layout import layout
from repro.squeeze import squeeze
from repro.vm import machine as machine_mod
from repro.vm.machine import Machine
from repro.vm.profiler import collect_profile
from repro.workloads import build_workload, mediabench_spec
from repro.workloads.inputs import profiling_input, timing_input

from tests.conftest import STEP_ONLY
from tests.test_vm_translate import _observe, _translate_after

SHAPES = ("adpcm", "gsm", "jpeg_enc")
SCALE = 0.15
BENCH_SEEDS = (1, 3)
THETAS = (0.0, 0.1, 1.0)

#: Generous: the largest of these runs takes about 600k steps.
MAX_STEPS = 50_000_000


@functools.lru_cache(maxsize=None)
def _prepared(name: str, bench_seed: int):
    """*name* re-seeded as the benchmark does at *bench_seed*, squeezed
    and profiled, with its timing input."""
    rng = random.Random(bench_seed)
    seed = dict(zip(SHAPES, (rng.getrandbits(31) for _ in SHAPES)))[name]
    workload = build_workload(replace(mediabench_spec(name, SCALE), seed=seed))
    squeezed, _ = squeeze(workload.program)
    image = layout(squeezed).image
    profile = collect_profile(squeezed, image, profiling_input(workload))
    return squeezed, profile, tuple(timing_input(workload))


@pytest.mark.parametrize("strategy", list(BufferStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("bench_seed", BENCH_SEEDS)
@pytest.mark.parametrize("name", SHAPES)
def test_default_translation_matches_the_step_interpreter(
    name, bench_seed, theta, strategy
):
    program, profile, inputs = _prepared(name, bench_seed)
    result = api.squash(
        program, profile, api.SquashConfig(theta=theta, strategy=strategy)
    )
    count_blocks = bench_seed == BENCH_SEEDS[1]
    assert result.hot_heads

    def step_only():
        runtime = SquashRuntime(result.descriptor)
        machine = Machine(
            result.image, input_words=inputs, count_blocks=count_blocks,
            services=runtime.services(),
        )
        return machine, runtime

    with _translate_after(STEP_ONLY):
        oracle = _observe(step_only, MAX_STEPS)
    translated = _observe(
        lambda: result.make_machine(inputs, count_blocks=count_blocks),
        MAX_STEPS,
    )
    assert isinstance(oracle["run"], machine_mod.RunResult), oracle["run"]
    for key in oracle:
        assert translated[key] == oracle[key], key
    assert translated.keys() == oracle.keys()
