"""Byte-equivalence of the staged pipeline against pre-refactor golden
digests.

``tests/golden/squash_golden.json`` was captured from the monolithic
rewriter before it was split into pass-manager stages: for every
benchmark × θ cell it pins the SHA-256 of the emitted image (segments
and memory words), the footprint, the baseline size, the modelled cycle
count of the timing run, and the output digest.  The staged pipeline
must reproduce all of them exactly — refactors of the stage modules
are only mechanical if this suite stays green.  Every cell is checked
twice: squashed from the in-memory squeezed program, and from a stage
bundle put into and read back from a real artifact store, the way a
sweep worker that did not warm the bundle gets it.

``REPRO_CODEC_VARIANT`` reruns the same grid against that variant's
own golden file (``squash_golden_<variant>.json``, e.g. the pinned
``ctx1`` digests), so CI proves both that ``baseline`` is untouched
and that context-conditioned codecs are reproducible.

Regenerate (only after an intentional output change)::

    PYTHONPATH=src python tests/golden/capture_squash_golden.py
    PYTHONPATH=src python tests/golden/capture_squash_golden.py \\
        --variant ctx1
"""

import hashlib
import json
import pathlib

import pytest

from repro import settings
from repro.analysis import stagecache
from repro.analysis.experiments import map_theta, squash_benchmark
from repro.core.metrics import baseline_code_words
from repro.core.pipeline import SquashConfig, squash_program
from repro.store import get_store
from repro.workloads.mediabench import MEDIABENCH, mediabench_program

#: Codec variant under test (the REPRO_CODEC_VARIANT knob); "" and
#: "baseline" both mean the pre-CodecModel pipeline and share the
#: original golden file.
VARIANT = settings.current().codec_variant
_SUFFIX = "" if VARIANT in ("", "baseline") else f"_{VARIANT}"
GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / f"squash_golden{_SUFFIX}.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())
SCALE = GOLDEN["scale"]
THETAS = tuple(GOLDEN["thetas"])


@pytest.fixture(autouse=True, scope="module")
def _tracing_armed():
    """Run the whole golden grid with the trace layer enabled.

    The digests were captured before the observability layer existed,
    so a green grid here proves tracing observes without perturbing:
    byte-identical images and identical modelled cycles, all 11
    benchmarks x 4 thetas.
    """
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    was = tracer.enabled
    tracer.enable()
    yield
    tracer.enabled = was


def image_digest(image) -> str:
    h = hashlib.sha256()
    h.update(image.base.to_bytes(8, "little"))
    h.update(image.entry_pc.to_bytes(8, "little"))
    for seg in image.segments:
        h.update(f"{seg.name}:{seg.start}:{seg.size};".encode())
    for w in image.memory:
        h.update((w & 0xFFFFFFFF).to_bytes(4, "little"))
    return h.hexdigest()


def output_digest(output) -> str:
    return hashlib.sha256(
        b"".join((w & 0xFFFFFFFF).to_bytes(4, "little") for w in output)
    ).hexdigest()


def test_golden_covers_full_grid():
    assert len(GOLDEN["cells"]) == len(MEDIABENCH) * len(THETAS)


@pytest.mark.parametrize("name", MEDIABENCH)
def test_staged_pipeline_matches_golden(name):
    bench = mediabench_program(name, scale=SCALE)
    for theta_paper in THETAS:
        config = SquashConfig(
            theta=map_theta(theta_paper), codec_variant=VARIANT
        )
        result = squash_benchmark(name, SCALE, config)
        want = GOLDEN["cells"][f"{name}@{theta_paper}"]
        cell = f"{name}@{theta_paper}"
        assert image_digest(result.image) == want["image_sha256"], cell
        assert result.footprint.total == want["footprint_total"], cell
        assert result.baseline_words == want["baseline_words"], cell
        run, _ = result.run(bench.timing_input, max_steps=500_000_000)
        assert run.cycles == want["cycles"], cell
        assert output_digest(run.output) == want["output_sha256"], cell
        assert run.exit_code == want["exit_code"], cell


def _loaded_bundle(root, name):
    """*name*'s stage bundle written to a real artifact store at *root*
    and read back with the in-process memo cleared."""
    bench = mediabench_program(name, scale=SCALE)
    written = stagecache.StageBundle(
        name=name,
        scale=SCALE,
        program=bench.squeezed,
        profile=bench.profile,
        baseline_words=baseline_code_words(bench.layout, bench.squeezed),
        timing_input=list(bench.timing_input),
        # squash never reads the baseline run; skipping it keeps the
        # grid cheap.
        base_cycles=0,
        base_output=[],
        base_exit_code=0,
    )
    get_store(root).put(
        "stage",
        stagecache.bundle_digest(name, SCALE),
        stagecache._to_entry(written),
    )
    stagecache.reset_counters()
    loaded = stagecache.load_bundle(root, name, SCALE)
    assert stagecache.STAGE_COUNTERS["loaded"] == 1
    return loaded


@pytest.mark.parametrize("name", MEDIABENCH)
def test_loaded_stage_bundle_matches_golden(name, tmp_path):
    bundle = _loaded_bundle(tmp_path, name)
    try:
        for theta_paper in THETAS:
            config = SquashConfig(
                theta=map_theta(theta_paper), codec_variant=VARIANT
            )
            result = squash_program(
                bundle.program,
                bundle.profile,
                config,
                baseline_words=bundle.baseline_words,
            )
            want = GOLDEN["cells"][f"{name}@{theta_paper}"]
            cell = f"{name}@{theta_paper} (loaded bundle)"
            assert image_digest(result.image) == want["image_sha256"], cell
            assert result.footprint.total == want["footprint_total"], cell
            run, _ = result.run(bundle.timing_input, max_steps=500_000_000)
            assert run.cycles == want["cycles"], cell
    finally:
        stagecache.reset_counters()


def test_tracing_was_live_during_grid():
    """The grid above must actually have exercised the armed tracer —
    otherwise the zero-perturbation claim is vacuous."""
    from repro.obs.trace import get_tracer

    assert get_tracer().events("runtime"), (
        "no runtime trace events were recorded while the golden grid "
        "ran with tracing enabled"
    )
