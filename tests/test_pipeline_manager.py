"""The stage report, the squash stages, and the pipeline's named choices."""

import time

import pytest

from repro.obs.trace import Tracer
from repro.pipeline.manager import StageReport

SQUASH_STAGES = ["cold", "plan", "classify", "layout", "encode", "emit"]


class TestStageReport:
    def test_stages_recorded_in_order_with_counters(self):
        report = StageReport()
        with report.stage("one") as counters:
            counters["things"] = 3
            time.sleep(0.001)
        with report.stage("two"):
            pass
        assert [t.name for t in report.stages] == ["one", "two"]
        assert report.counter("one", "things") == 3
        assert report.timing("two").counters == {}
        assert report.timing("one").seconds >= 0.001
        assert report.total_seconds == sum(
            t.seconds for t in report.stages
        )

    def test_raising_stage_records_nothing(self):
        report = StageReport()
        with report.stage("ok"):
            pass
        with pytest.raises(ValueError):
            with report.stage("bad") as counters:
                counters["half"] = 1
                raise ValueError("boom")
        assert [t.name for t in report.stages] == ["ok"]

    def test_stage_opens_a_pipeline_span(self, monkeypatch):
        from repro.pipeline import manager

        tracer = Tracer(enabled=True)
        monkeypatch.setattr(manager, "get_tracer", lambda: tracer)
        with StageReport().stage("one"):
            pass
        begin, end = tracer.events()
        assert (begin.name, begin.cat, begin.phase) == (
            "stage.one", "pipeline", "B",
        )
        assert (end.name, end.phase) == ("stage.one", "E")

    def test_render_lists_stages_counters_and_total(self):
        report = StageReport()
        with report.stage("one") as counters:
            counters["things"] = 3
        lines = report.render().splitlines()
        assert lines[0].split() == ["stage", "seconds", "counters"]
        assert lines[2].startswith("one") and "things=3" in lines[2]
        assert lines[-1].startswith("total")

    def test_timing_unknown_stage(self):
        with pytest.raises(KeyError):
            StageReport().timing("nope")


class TestSquashStages:
    def test_squash_dag_orders_and_reports(
        self, mini_program, mini_profile
    ):
        from repro.core.pipeline import SquashConfig, squash_program

        result = squash_program(
            mini_program, mini_profile, SquashConfig(theta=1.0)
        )
        report = result.stage_report
        assert [t.name for t in report.stages] == SQUASH_STAGES
        assert result.image.memory
        assert report.counter("plan", "regions") == len(result.info.regions)
        assert {t.name: t.counters for t in report.stages} == {
            "cold": {"cold_blocks": 11},
            "plan": {
                "regions": 2,
                "compressible_blocks": 11,
                "excluded_blocks": 0,
            },
            "classify": {
                "site_plans": 2, "safe_functions": 1, "xcall_sites": 1,
            },
            "layout": {
                "entry_stubs": 2, "text_words": 3, "buffer_words": 20,
            },
            "encode": {
                "codec_contexts": 10,
                "codec_conditioned_streams": 0,
                "compressed_words": 47,
                "original_instrs": 28,
            },
            "emit": {"image_words": 500},
        }

    def test_source_program_not_mutated(self, mini_program, mini_profile):
        from repro.core.pipeline import SquashConfig, squash_program
        from repro.program.serialize import program_to_dict

        before = program_to_dict(mini_program)
        counts = dict(mini_profile.counts)
        squash_program(mini_program, mini_profile, SquashConfig(theta=1.0))
        assert program_to_dict(mini_program) == before
        assert mini_profile.counts == counts


def _traced_stages(monkeypatch):
    """A fresh tracer and metrics registry for the stage report."""
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline import manager

    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    monkeypatch.setattr(manager, "get_tracer", lambda: tracer)
    monkeypatch.setattr(manager, "get_registry", lambda: metrics)
    return tracer, metrics


def _stage_spans(tracer):
    return [e.name for e in tracer.events("pipeline") if e.phase == "B"]


class TestStageObservability:
    def test_squash_stages_emit_spans_and_metrics(
        self, monkeypatch, mini_program, mini_profile
    ):
        from repro.core.pipeline import SquashConfig, squash_program

        tracer, metrics = _traced_stages(monkeypatch)
        result = squash_program(
            mini_program, mini_profile, SquashConfig(theta=1.0)
        )
        assert _stage_spans(tracer) == [
            f"stage.{name}" for name in SQUASH_STAGES
        ]
        counters = metrics.snapshot()["counters"]
        for timing in result.stage_report.stages:
            prefix = f"pipeline.stage.{timing.name}"
            assert counters[f"{prefix}.executed"] == 1
            assert metrics.histogram(f"{prefix}.seconds").count == 1
            for key, value in timing.counters.items():
                assert counters[f"{prefix}.{key}"] == value

    def test_squeeze_times_its_four_passes_in_order(
        self, monkeypatch, mini_program
    ):
        from repro.squeeze import squeeze

        tracer, metrics = _traced_stages(monkeypatch)
        _, stats = squeeze(mini_program)
        passes = ["unreachable", "nops", "dead", "abstraction"]
        assert _stage_spans(tracer) == [f"stage.{name}" for name in passes]
        counters = metrics.snapshot()["counters"]
        assert [
            counters[f"pipeline.stage.{name}.executed"] for name in passes
        ] == [1, 1, 1, 1]
        removed = sum(
            counters[f"pipeline.stage.{name}.words_removed"]
            for name in passes
        )
        assert removed == stats.input_size - stats.output_size


class TestRegisteredPlugins:
    def test_region_strategies_registered(self):
        from repro.core.plan import REGION_STRATEGIES

        assert set(REGION_STRATEGIES) == {"dfs", "whole_function"}

    def test_codec_variants_registered(self):
        from repro.compress.codec import CODEC_VARIANTS, codec_variant

        assert "huffman" in CODEC_VARIANTS
        assert "mtf+huffman" in CODEC_VARIANTS
        assert codec_variant("huffman").coder == "huffman"
        assert codec_variant("dict").coder == "dict"
        assert codec_variant("mtf+huffman").mtf_kinds

    def test_unknown_codec_variant_names_the_known_ones(self):
        from repro.compress.codec import CODEC_VARIANTS, codec_variant

        with pytest.raises(ValueError, match="unknown codec variant") as info:
            codec_variant("bogus")
        for name in CODEC_VARIANTS:
            assert name in str(info.value)
