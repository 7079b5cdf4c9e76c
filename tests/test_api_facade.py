"""The repro.api facade: surface snapshot, behaviour, deprecations."""

import dataclasses
import warnings

import pytest

import repro
import repro.api as api

SCALE = 0.2
THETA = 1e-4


class TestSurface:
    def test_api_all_is_the_pinned_surface(self):
        """The facade surface is a compatibility contract — growing it
        is fine, but every change must be deliberate (update this
        snapshot in the same commit)."""
        assert sorted(api.__all__) == [
            "JobHandle",
            "JobSpec",
            "LoadedSquash",
            "RunOutcome",
            "RunSpec",
            "ServiceClient",
            "SquashConfig",
            "SquashResult",
            "SweepSpec",
            "load_squashed",
            "run",
            "squash",
            "squash_benchmark",
            "store_gc",
            "store_stats",
            "store_verify",
            "sweep",
            "verify",
        ]

    def test_package_root_reexports_snapshot(self):
        assert sorted(repro._EXPORTS) == [
            "ArtifactStore",
            "BufferStrategy",
            "JobEngine",
            "JobExpired",
            "JobHandle",
            "JobSpec",
            "LoadedSquash",
            "MEDIABENCH",
            "Machine",
            "MetricsRegistry",
            "Profile",
            "RunOutcome",
            "RunResult",
            "RunSpec",
            "ServiceClient",
            "ServiceOverloaded",
            "Settings",
            "SpecError",
            "SquashConfig",
            "SquashResult",
            "StageReport",
            "StoreDegraded",
            "SweepSpec",
            "Tracer",
            "collect_profile",
            "current_settings",
            "enable_tracing",
            "get_registry",
            "get_store",
            "get_tracer",
            "load_squashed",
            "mediabench_program",
            "mediabench_spec",
            "run",
            "squash",
            "squash_benchmark",
            "squeeze",
            "store_gc",
            "store_stats",
            "store_verify",
            "sweep",
            "use_settings",
            "verify",
        ]

    def test_root_squash_is_the_facade(self):
        assert repro.squash is api.squash
        assert repro.run is api.run
        assert repro.sweep is api.sweep
        assert repro.verify is api.verify

    def test_every_root_export_resolves(self):
        for name in repro._EXPORTS:
            assert getattr(repro, name) is not None

    def test_unknown_root_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestDeprecations:
    def test_core_package_alias_is_silent(self):
        """repro.core re-exports squash without a deprecation warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import squash as core_squash
        assert core_squash.__name__ == "squash_program"

    def test_client_surface_resolves_lazily(self):
        from repro.service.client import JobHandle, ServiceClient

        assert api.ServiceClient is ServiceClient
        assert api.JobHandle is JobHandle
        assert repro.ServiceClient is ServiceClient


class TestErrorPaths:
    """Malformed specs come back as typed SpecError, not stack spew."""

    def test_unknown_benchmark_name(self):
        from repro.errors import SpecError, SquashError

        with pytest.raises(SpecError, match="unknown benchmark") as exc:
            api.squash_benchmark("quake3")
        assert exc.value.field == "name"
        assert isinstance(exc.value, SquashError)
        assert isinstance(exc.value, ValueError)

    def test_bad_scale(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="scale") as exc:
            api.squash_benchmark("adpcm", scale=-1.0)
        assert exc.value.field == "scale"

    def test_run_rejects_bad_max_steps(self, squashed):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="max_steps"):
            api.run(squashed, api.RunSpec(max_steps=0))
        with pytest.raises(SpecError, match="max_steps"):
            api.run(squashed, api.RunSpec(max_steps="lots"))

    def test_run_rejects_non_integer_inputs(self, squashed):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="input_words") as exc:
            api.run(squashed, api.RunSpec(input_words=(1, "two", 3)))
        assert exc.value.field == "input_words"
        with pytest.raises(SpecError, match="input_words"):
            api.run(squashed, api.RunSpec(input_words=42))

    def test_sweep_rejects_unknown_names(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="unknown benchmark") as exc:
            api.sweep(api.SweepSpec(names=("adpcm", "doom")))
        assert exc.value.field == "names"

    def test_sweep_rejects_bad_thetas(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="thetas"):
            api.sweep(api.SweepSpec(names=("adpcm",), thetas=(-0.5,)))

    def test_sweep_kind_error_is_typed(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError) as exc:
            api.sweep(api.SweepSpec(names=("adpcm",), kind="bogus"))
        assert exc.value.field == "kind"


@pytest.fixture(scope="module")
def squashed():
    from repro.analysis.experiments import map_theta

    return api.squash_benchmark(
        "adpcm", SCALE, api.SquashConfig(theta=map_theta(THETA))
    )


class TestBehaviour:
    def test_run_squash_result(self, squashed):
        from repro.workloads.mediabench import mediabench_program

        bench = mediabench_program("adpcm", scale=SCALE)
        outcome = api.run(
            squashed,
            api.RunSpec(input_words=tuple(bench.timing_input),
                        max_steps=500_000_000),
        )
        assert isinstance(outcome, api.RunOutcome)
        assert outcome.exit_code == 0
        assert outcome.cycles > 0
        assert outcome.output
        assert outcome.runtime_stats["decompressions"] >= 0

    def test_run_from_saved_prefix_matches_in_memory(self, squashed,
                                                     tmp_path):
        from repro.workloads.mediabench import mediabench_program

        bench = mediabench_program("adpcm", scale=SCALE)
        spec = api.RunSpec(input_words=tuple(bench.timing_input),
                           max_steps=500_000_000)
        direct = api.run(squashed, spec)
        squashed.save(tmp_path / "adpcm")
        reloaded = api.run(str(tmp_path / "adpcm"), spec)
        assert reloaded.cycles == direct.cycles
        assert reloaded.output == direct.output

    def test_run_rejects_foreign_target(self):
        with pytest.raises(TypeError, match="SquashResult"):
            api.run(object())

    def test_verify_round_trip(self, squashed, tmp_path):
        squashed.save(tmp_path / "img")
        report = api.verify(tmp_path / "img")
        assert report.ok, report

    def test_sweep_kind_validated(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            api.sweep(api.SweepSpec(names=("adpcm",), kind="bogus"))

    def test_sweep_size_rows(self):
        rows = api.sweep(
            api.SweepSpec(names=("adpcm",), scale=SCALE, thetas=(THETA,))
        )
        (row,) = rows
        assert row.name == "adpcm"
        assert row.theta_paper == THETA
        # At scale 0.2 the stub overhead can outweigh the savings, so
        # only sanity-check the band, not the sign.
        assert -1.0 < row.reduction < 1.0

    def test_sweep_parallel_serial_rows_agree(self, tmp_path):
        """Both sweep paths reproduce the golden grid's reduction."""
        from repro import settings
        from tests.test_squash_golden import GOLDEN

        theta = 5e-5
        want = GOLDEN["cells"][f"adpcm@{theta}"]
        reduction = 1.0 - want["footprint_total"] / want["baseline_words"]
        spec = api.SweepSpec(
            names=("adpcm",), scale=GOLDEN["scale"], thetas=(theta,)
        )
        serial = api.sweep(spec)
        with settings.use_settings(cache_dir=str(tmp_path)):
            fanned = api.sweep(dataclasses.replace(spec, parallel=True))
        assert [(r.name, r.reduction) for r in serial] == [
            ("adpcm", reduction)
        ]
        assert fanned == serial
