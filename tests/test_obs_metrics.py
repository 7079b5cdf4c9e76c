"""The unified metrics registry and its component mirrors."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 15.0
        assert h.minimum == 2.0
        assert h.maximum == 8.0
        assert h.mean == 5.0

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0


class TestRegistry:
    def test_instruments_created_on_demand(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 2)
        reg.set_gauge("g", 7.0)
        reg.observe("h", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.b": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_snapshot_is_sorted_plain_data(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        assert list(reg.snapshot()["counters"]) == ["a", "z"]

    def test_render_empty(self):
        assert MetricsRegistry().render() == "<no metrics recorded>"

    def test_render_lists_everything(self):
        reg = MetricsRegistry()
        reg.inc("hits", 3)
        reg.set_gauge("depth", 2.0)
        reg.observe("lat", 0.25)
        text = reg.render()
        assert "hits" in text and "3" in text
        assert "depth" in text
        assert "lat" in text and "n=1" in text

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_concurrent_increments_are_not_lost(self):
        reg = MetricsRegistry()

        def spin():
            for _ in range(500):
                reg.inc("spins")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("spins").value == 8 * 500

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestComponentMirrors:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        get_registry().reset()
        yield
        get_registry().reset()

    def test_stagecache_counters_mirror(self):
        from repro.analysis import stagecache

        stagecache.reset_counters()
        stagecache._count("memo")
        stagecache._count("memo")
        assert stagecache.STAGE_COUNTERS["memo"] == 2
        assert get_registry().counter("stagecache.memo").value == 2
        stagecache.reset_counters()

    def test_cellcache_stats_mirror(self, tmp_path):
        from repro.store.sealed import CacheStats, read_entry, write_entry

        stats = CacheStats()
        path = tmp_path / "ab" / "entry.json"
        assert read_entry(path, ("k",), stats) is None  # miss
        write_entry(path, {"k": 1})
        assert read_entry(path, ("k",), stats) == {"k": 1}  # hit
        path.write_text("garbage\nmore garbage\n")
        assert read_entry(path, ("k",), stats) is None  # torn
        reg = get_registry()
        assert reg.counter("cellcache.misses").value == 2
        assert reg.counter("cellcache.hits").value == 1
        assert reg.counter("cellcache.writes").value == 1
        assert reg.counter("cellcache.rejects.torn").value == 1

    def test_stage_report_mirrors_stage_counters(self):
        from repro.pipeline.manager import StageReport

        report = StageReport()
        with report.stage("s1") as counters:
            counters["widgets"] = 4
        with report.stage("s1") as counters:
            counters["widgets"] = 3
        with pytest.raises(RuntimeError):
            with report.stage("s1") as counters:
                counters["widgets"] = 100
                raise RuntimeError("boom")
        reg = get_registry()
        assert reg.counter("pipeline.stage.s1.executed").value == 2
        assert reg.counter("pipeline.stage.s1.widgets").value == 7
        assert reg.histogram("pipeline.stage.s1.seconds").count == 2
        assert "pipeline.stage.s1.reused" not in reg.snapshot()["counters"]

    def test_supervisor_outcomes_mirror(self):
        from repro.resilience.supervisor import (
            Supervisor,
            SupervisorConfig,
            Task,
        )
        from repro.resilience.policy import RetryPolicy

        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first attempt dies")
            return payload

        config = SupervisorConfig(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        supervisor = Supervisor(flaky, config)
        report = supervisor.run([Task(key="k", payload=42)], parallel=False)
        assert report.results == {"k": 42}
        reg = get_registry()
        assert reg.counter("supervisor.executions").value == 2
        assert reg.counter("supervisor.successes").value == 1
        assert reg.counter("supervisor.failures.error").value == 1

    def test_sweep_rollup_published(self, tmp_path, monkeypatch):
        from repro import settings
        from repro.analysis import parallel as par
        from repro.core.pipeline import SquashConfig

        def fake_cell(kind, name, scale, config):
            return {
                "footprint_total": 1,
                "baseline_words": 2,
                "reduction": 0.5,
            }

        monkeypatch.setattr(par, "_compute_cell", fake_cell)
        monkeypatch.setattr(par, "_warm_stage_bundles", lambda *a, **k: None)
        cells = [
            ("size", "adpcm", 0.2, SquashConfig(theta=0.0)),
            ("size", "gsm", 0.2, SquashConfig(theta=0.0)),
        ]
        with settings.use_settings(cache_dir=str(tmp_path)):
            par.compute_cells(cells, parallel=False)
            rollup = par.last_sweep_rollup()
            assert rollup["cells"] == 2
            assert rollup["computed"] == 2
            assert rollup["benchmarks"]["adpcm"]["computed"] == 1
            # Second pass: everything comes back from the cell cache.
            par.compute_cells(cells, parallel=False)
            assert par.last_sweep_rollup()["cache_hits"] == 2
        reg = get_registry()
        assert reg.counter("sweep.cells.cells").value == 4
        assert reg.counter("sweep.cells.computed").value == 2
        assert reg.counter("sweep.cells.cache_hits").value == 2
        assert reg.counter("sweep.bench.gsm.cells").value == 2
