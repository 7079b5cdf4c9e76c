"""Incremental sweep reuse of θ-invariant stage artifacts."""

import dataclasses
import json

import pytest

from repro.analysis import experiments, parallel, stagecache
from repro.analysis.experiments import FIG7_THETAS
from repro.program.serialize import program_from_dict, program_to_dict
from tests.test_squash_golden import GOLDEN

NAMES = ("adpcm", "gsm")
SCALE = GOLDEN["scale"]
THETAS = FIG7_THETAS


def _golden(name, theta_paper):
    return GOLDEN["cells"][f"{name}@{theta_paper}"]


def _index_map_items(program):
    """Every index map of *program* as an ordered item list: the packer
    breaks ties in ``call_targets`` order, so order is content here."""
    return [
        (block.label, list(block.call_targets.items()),
         list(block.data_refs.items()))
        for _, block in program.all_blocks()
    ] + [(obj.name, list(obj.relocs.items())) for obj in program.data.values()]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stagecache.reset_counters()
    yield
    stagecache.reset_counters()


class TestBundleRoundTrip:
    def test_program_serialization_is_exact(self):
        from repro.workloads.mediabench import mediabench_program

        squeezed = mediabench_program("adpcm", scale=SCALE).squeezed
        # The artifact store writes JSON with sorted keys.
        payload = json.loads(
            json.dumps(program_to_dict(squeezed), sort_keys=True)
        )
        again = program_from_dict(payload)
        assert program_to_dict(again) == program_to_dict(squeezed)
        assert _index_map_items(again) == _index_map_items(squeezed)

    def test_warm_then_load_round_trips(self, tmp_path):
        bundle = stagecache.warm_bundle(tmp_path, "adpcm", SCALE)
        stagecache.reset_counters()  # also clears the in-process memo
        fresh = stagecache.load_bundle(tmp_path, "adpcm", SCALE)
        assert fresh is not None
        assert stagecache.STAGE_COUNTERS["loaded"] == 1
        again = stagecache.load_bundle(tmp_path, "adpcm", SCALE)
        assert again is fresh
        assert stagecache.STAGE_COUNTERS["memo"] == 1
        assert program_to_dict(fresh.program) == program_to_dict(
            bundle.program
        )
        assert _index_map_items(fresh.program) == _index_map_items(
            bundle.program
        )
        assert fresh.profile.counts == bundle.profile.counts
        assert fresh.profile.tot_instr_ct == bundle.profile.tot_instr_ct
        assert fresh.baseline_words == bundle.baseline_words
        assert fresh.base_cycles == bundle.base_cycles

    def test_corrupt_bundle_is_a_miss(self, tmp_path):
        stagecache.warm_bundle(tmp_path, "adpcm", SCALE)
        path = stagecache.bundle_path(tmp_path, "adpcm", SCALE)
        path.write_text("not a sealed entry")
        stagecache.reset_counters()
        assert stagecache.load_bundle(tmp_path, "adpcm", SCALE) is None
        # The next warm recomputes the bundle and heals the slot: the
        # ref is a hard link to the content object, so the write above
        # damaged the object too, and the put replaces it instead of
        # deduplicating against it.
        stagecache.warm_bundle(tmp_path, "adpcm", SCALE)
        assert stagecache.STAGE_COUNTERS["computed"] == 1
        stagecache.reset_counters()
        assert stagecache.load_bundle(tmp_path, "adpcm", SCALE) is not None
        assert stagecache.STAGE_COUNTERS["loaded"] == 1


class TestSweepReuse:
    def test_size_rows_identical_and_invariant_work_once(self):
        rows = parallel.fig6_rows(
            NAMES, scale=SCALE, thetas=THETAS, parallel=False
        )
        assert [(row.name, row.theta_paper) for row in rows] == [
            (name, theta) for name in NAMES for theta in THETAS
        ]
        for row in rows:
            want = _golden(row.name, row.theta_paper)
            assert row.reduction == (
                1.0 - want["footprint_total"] / want["baseline_words"]
            )
        counters = stagecache.STAGE_COUNTERS
        # Squeeze/profile/baseline ran exactly once per benchmark; every
        # other cell of the θ grid reused the bundle.
        assert counters["computed"] == len(NAMES)
        assert counters["memo"] + counters["loaded"] >= len(NAMES) * (
            len(THETAS) - 1
        )

    def test_time_rows_identical_to_serial(self):
        rows = parallel.fig7_time_rows(
            NAMES, scale=SCALE, thetas=(0.0, 1e-5), parallel=False
        )
        assert len(rows) == len(NAMES) * 2
        for row in rows:
            base = experiments.baseline_run(row.name, SCALE)
            want = _golden(row.name, row.theta_paper)
            assert row.relative_time == want["cycles"] / base.cycles
        assert stagecache.STAGE_COUNTERS["computed"] == len(NAMES)

    def test_serial_cells_match_the_golden_grid(self, tmp_path):
        """The serial path (inline, uncached) reproduces the golden
        grid's sizes and cycles, runs the invariant stages once, and
        writes nothing under the cache root."""
        size = parallel.grid_cells("size", ("adpcm",), SCALE, THETAS)
        time = parallel.grid_cells("time", ("adpcm",), SCALE, THETAS)
        results = parallel.compute_cells(
            size + time, parallel=False, cache=False
        )
        for theta, size_cell, time_cell in zip(THETAS, size, time):
            want = _golden("adpcm", theta)
            assert results[size_cell]["footprint_total"] == (
                want["footprint_total"]
            )
            assert results[size_cell]["baseline_words"] == (
                want["baseline_words"]
            )
            assert results[time_cell]["cycles"] == want["cycles"]
        assert stagecache.STAGE_COUNTERS["computed"] == 1
        assert not any(tmp_path.iterdir())

    def test_second_sweep_loads_persisted_bundles(self):
        def cells(theta):
            return parallel.grid_cells("size", NAMES, SCALE, (theta,))

        parallel.compute_cells(cells(0.0), parallel=False)
        stagecache.reset_counters()
        # New θ: cell cache misses, stage bundles hit from disk.
        results = parallel.compute_cells(cells(1e-4), parallel=False)
        assert len(results) == len(NAMES)
        assert stagecache.STAGE_COUNTERS["computed"] == 0
        assert (
            stagecache.STAGE_COUNTERS["loaded"]
            + stagecache.STAGE_COUNTERS["memo"]
            >= len(NAMES)
        )

    def test_nonstandard_text_base_rederives_baseline(self):
        from repro.analysis.parallel import _compute_cell
        from repro.core.pipeline import SquashConfig

        stagecache.warm_bundle(parallel.cache_dir(), "adpcm", SCALE)
        config = dataclasses.replace(
            SquashConfig(theta=0.0), text_base=0x30000
        )
        cell = _compute_cell("size", "adpcm", SCALE, config)
        result = experiments.squash_benchmark("adpcm", SCALE, config)
        assert cell["baseline_words"] == result.baseline_words
        assert cell["footprint_total"] == result.footprint.total


class TestWarmInPool:
    def test_parallel_sweep_warms_bundles_in_the_pool(self, tmp_path):
        """Each benchmark's bundle is built and persisted by a warm task
        in a pool worker, not in this process, and the cells then run
        on the same leased pool and reproduce the golden grid."""
        from repro.obs.metrics import get_registry

        def reuses():
            counters = get_registry().snapshot()["counters"]
            return counters.get("pool.acquire.reuse", 0)

        before = reuses()
        thetas = (0.0, 1e-5)
        cells = parallel.grid_cells("size", NAMES, SCALE, thetas)
        results = parallel.compute_cells(cells, parallel=True, workers=2)
        assert stagecache.STAGE_COUNTERS["computed"] == 0
        for name in NAMES:
            assert stagecache.bundle_path(tmp_path, name, SCALE).exists()
        for cell, (name, theta) in zip(
            cells, [(name, theta) for name in NAMES for theta in thetas]
        ):
            assert results[cell]["footprint_total"] == (
                _golden(name, theta)["footprint_total"]
            )
        assert reuses() > before

    def test_lost_warm_task_is_not_fatal(self, monkeypatch):
        """A warm task that keeps failing costs its retries, not the
        sweep: the cell computes the bundle itself."""

        def lost(payload):
            raise RuntimeError("warm task lost")

        monkeypatch.setattr(parallel, "_supervised_warm", lost)
        cells = parallel.grid_cells("size", ("adpcm",), SCALE, (0.0,))
        results = parallel.compute_cells(cells, parallel=False)
        assert results[cells[0]]["footprint_total"] == (
            _golden("adpcm", 0.0)["footprint_total"]
        )
        assert stagecache.STAGE_COUNTERS["computed"] == 1
