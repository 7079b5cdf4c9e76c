"""Typed settings resolution: defaults, env overrides, precedence."""

import dataclasses

import pytest

from repro import settings


ALL_KNOB_VARS = [env for env, _ in settings.ENV_KNOBS.values()]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ALL_KNOB_VARS:
        monkeypatch.delenv(name, raising=False)


class TestDefaults:
    def test_clean_environment_resolves_declared_defaults(self):
        resolved = settings.current()
        assert resolved == settings.Settings()

    def test_every_field_has_an_env_spelling_except_invalid(self):
        fields = {f.name for f in dataclasses.fields(settings.Settings)}
        assert set(settings.ENV_KNOBS) == fields - {"invalid"}

    def test_defaults_document_the_historical_behaviour(self):
        resolved = settings.current()
        assert resolved.bench_workers is None
        assert resolved.cell_retries == 3
        assert resolved.cell_deadline is None
        assert resolved.breaker_threshold == 8
        assert resolved.region_cache is True
        assert resolved.decode_backend == "table"
        assert resolved.trace is False


class TestEnvParsing:
    @pytest.mark.parametrize("raw", ["0", "", "no", "off", "No", "OFF"])
    def test_falsy_bool_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_REGION_CACHE", raw)
        assert settings.current().region_cache is False

    @pytest.mark.parametrize("raw", ["1", "yes", "on", "anything"])
    def test_truthy_bool_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert settings.current().trace is True

    def test_numeric_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "6")
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_VM_WATCHDOG", "1000")
        resolved = settings.current()
        assert resolved.bench_workers == 6
        assert resolved.cell_backoff == 0.5
        assert resolved.vm_watchdog == 1000

    def test_historical_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "-3")
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "-1.0")
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        monkeypatch.setenv("REPRO_VM_WATCHDOG", "-5")
        resolved = settings.current()
        assert resolved.cell_retries == 1
        assert resolved.cell_backoff == 0.0
        assert resolved.bench_workers == 1
        assert resolved.vm_watchdog == 0

    def test_nonpositive_deadline_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_DEADLINE", "0")
        assert settings.current().cell_deadline is None
        monkeypatch.setenv("REPRO_CELL_DEADLINE", "2.5")
        assert settings.current().cell_deadline == 2.5

    def test_malformed_value_keeps_default_and_is_flagged(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "lots")
        resolved = settings.current()
        assert resolved.bench_workers is None
        assert resolved.cell_retries == 3
        assert resolved.invalid == frozenset(
            {"REPRO_BENCH_WORKERS", "REPRO_CELL_RETRIES"}
        )

    def test_empty_string_reads_as_unset_for_non_bools(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "")
        resolved = settings.current()
        assert resolved.cache_dir is None
        assert resolved.cell_retries == 3
        assert resolved.invalid == frozenset()

    def test_resolution_rereads_environment(self, monkeypatch):
        assert settings.current().vm_watchdog == 0
        monkeypatch.setenv("REPRO_VM_WATCHDOG", "77")
        assert settings.current().vm_watchdog == 77


class TestPrecedence:
    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "9")
        with settings.use_settings(cell_retries=2) as resolved:
            assert resolved.cell_retries == 2
            assert settings.current().cell_retries == 2
        assert settings.current().cell_retries == 9

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGION_CACHE", "0")
        assert settings.current().region_cache is False

    def test_overrides_nest_latest_wins(self):
        with settings.use_settings(vm_watchdog=10):
            with settings.use_settings(vm_watchdog=20):
                assert settings.current().vm_watchdog == 20
            assert settings.current().vm_watchdog == 10

    def test_partial_override_leaves_other_fields_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.75")
        with settings.use_settings(cell_retries=1):
            resolved = settings.current()
            assert resolved.cell_retries == 1
            assert resolved.bench_scale == 0.75

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError, match="unknown settings field"):
            with settings.use_settings(not_a_knob=1):
                pass

    @pytest.mark.parametrize("raw", [None, "", "0", "1", "7", "0.5", "x"])
    def test_current_value_is_the_field_of_current(self, monkeypatch, raw):
        """Each field resolved alone equals the full snapshot's, for
        unset, empty, numeric and malformed variables, under no
        override, one override and nested ones."""
        for env_name in ALL_KNOB_VARS:
            if raw is not None:
                monkeypatch.setenv(env_name, raw)

        def agree():
            resolved = settings.current()
            for name in settings.ENV_KNOBS:
                assert settings.current_value(name) == getattr(
                    resolved, name
                ), (name, raw)

        agree()
        with settings.use_settings(codec_variant="ctx1", cell_retries=4):
            agree()
            with settings.use_settings(cell_retries=6, region_cache=False):
                agree()


class TestConsumers:
    def test_supervisor_config_resolves_from_settings(self, monkeypatch):
        from repro.resilience.supervisor import SupervisorConfig

        monkeypatch.setenv("REPRO_CELL_DEADLINE", "4.0")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "11")
        cfg = SupervisorConfig.from_settings()
        assert cfg.deadline == 4.0
        assert cfg.retry.max_attempts == 5
        assert cfg.breaker_threshold == 11

    def test_supervisor_config_honours_overrides(self):
        from repro.resilience.supervisor import SupervisorConfig

        with settings.use_settings(cell_retries=1, cell_backoff=0.0):
            cfg = SupervisorConfig.from_settings()
        assert cfg.retry.max_attempts == 1
        assert cfg.retry.backoff_base == 0.0

    def test_cache_dir_resolves_through_settings(self, monkeypatch, tmp_path):
        from repro.analysis.parallel import cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
        assert cache_dir() == tmp_path / "cells"
        with settings.use_settings(cache_dir=str(tmp_path / "other")):
            assert cache_dir() == tmp_path / "other"

    def test_decode_backend_resolves_through_settings(self):
        from repro.compress.codec import resolve_decode_backend

        # The explicit backend argument wins over the settings knob.
        with settings.use_settings(decode_backend="reference"):
            assert resolve_decode_backend(backend="table") == "table"
            # Then the settings knob.
            assert resolve_decode_backend() == "reference"
        # Finally the default.
        assert resolve_decode_backend() == "table"


class TestEffectiveBenchWorkers:
    def test_explicit_setting_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "6")
        assert settings.effective_bench_workers() == 6

    def test_default_is_the_cpu_count_clamped(self, monkeypatch):
        import os

        expected = max(
            1, min(os.cpu_count() or 1, settings.MAX_DEFAULT_WORKERS)
        )
        assert settings.effective_bench_workers() == expected

    def test_invalid_env_falls_back_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        resolved = settings.current()
        assert "REPRO_BENCH_WORKERS" in resolved.invalid
        assert settings.effective_bench_workers(resolved) == max(
            1, min(os.cpu_count() or 1, settings.MAX_DEFAULT_WORKERS)
        )

    def test_harness_workers_warn_on_invalid_env(self, monkeypatch):
        from repro.analysis.parallel import _workers

        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_BENCH_WORKERS"):
            _workers()


class TestNewKnobs:
    def test_decode_backend_default_and_env(self, monkeypatch):
        assert settings.current().decode_backend == "table"
        monkeypatch.setenv("REPRO_DECODE_BACKEND", "REFERENCE")
        assert settings.current().decode_backend == "reference"

    @pytest.mark.parametrize("raw", ["vector", "warp-drive"])
    def test_unknown_decode_backend_keeps_default_and_is_flagged(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_DECODE_BACKEND", raw)
        resolved = settings.current()
        assert resolved.decode_backend == "table"
        assert "REPRO_DECODE_BACKEND" in resolved.invalid


class TestStrictBool:
    """``REPRO_SERVICE_JOURNAL`` is a *strict* boolean: unlike the
    historical knobs (where any unknown spelling reads as truthy), a
    typo is flagged instead of silently flipping behaviour."""

    @pytest.mark.parametrize("raw", ["true", "TRUE", "1", "yes", "on"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVICE_JOURNAL", raw)
        resolved = settings.current()
        assert resolved.service_journal is True
        assert resolved.invalid == frozenset()

    @pytest.mark.parametrize("raw", ["false", "False", "0", "no", "off"])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVICE_JOURNAL", raw)
        resolved = settings.current()
        assert resolved.service_journal is False
        assert resolved.invalid == frozenset()

    @pytest.mark.parametrize("raw", ["maybe", "2", "yep"])
    def test_unknown_spelling_keeps_default_and_is_flagged(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_SERVICE_JOURNAL", raw)
        resolved = settings.current()
        assert resolved.service_journal is True
        assert "REPRO_SERVICE_JOURNAL" in resolved.invalid

    def test_historical_bools_stay_permissive(self, monkeypatch):
        """Pinned: the old knobs keep anything-not-falsy truthy —
        tightening them would change deployed behaviour."""
        monkeypatch.setenv("REPRO_TRACE", "maybe")
        resolved = settings.current()
        assert resolved.trace is True
        assert resolved.invalid == frozenset()


class TestStoreKnobs:
    def test_defaults(self):
        resolved = settings.current()
        assert resolved.store_quota_bytes is None
        assert resolved.store_retries == 2
        assert resolved.store_backoff == 0.05
        assert resolved.store_breaker_threshold == 5

    def test_env_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "65536")
        monkeypatch.setenv("REPRO_STORE_RETRIES", "4")
        monkeypatch.setenv("REPRO_STORE_BACKOFF", "0.2")
        monkeypatch.setenv("REPRO_STORE_BREAKER_THRESHOLD", "9")
        resolved = settings.current()
        assert resolved.store_quota_bytes == 65536
        assert resolved.store_retries == 4
        assert resolved.store_backoff == 0.2
        assert resolved.store_breaker_threshold == 9

    def test_zero_quota_disables_enforcement(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "0")
        resolved = settings.current()
        assert resolved.store_quota_bytes is None
        assert resolved.invalid == frozenset()

    def test_negative_quota_is_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "-5")
        resolved = settings.current()
        assert resolved.store_quota_bytes is None
        assert "REPRO_STORE_QUOTA_BYTES" in resolved.invalid

    def test_malformed_values_keep_defaults_and_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "lots")
        monkeypatch.setenv("REPRO_STORE_RETRIES", "many")
        resolved = settings.current()
        assert resolved.store_quota_bytes is None
        assert resolved.store_retries == 2
        assert resolved.invalid == frozenset(
            {"REPRO_STORE_QUOTA_BYTES", "REPRO_STORE_RETRIES"}
        )

    def test_negative_retries_clamp_to_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_RETRIES", "-2")
        assert settings.current().store_retries == 0

    def test_store_config_warns_on_invalid_store_vars(self, monkeypatch):
        from repro.store.store import StoreConfig

        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "lots")
        monkeypatch.setenv("REPRO_STORE_BACKOFF", "slow")
        with pytest.warns(RuntimeWarning) as caught:
            cfg = StoreConfig.from_settings()
        message = str(caught[0].message)
        assert "REPRO_STORE_QUOTA_BYTES" in message
        assert "REPRO_STORE_BACKOFF" in message
        assert cfg.quota_bytes is None
        assert cfg.backoff == 0.05

    def test_store_config_silent_when_clean(self, monkeypatch):
        import warnings as warnings_module

        from repro.store.store import StoreConfig

        monkeypatch.setenv("REPRO_STORE_QUOTA_BYTES", "4096")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            cfg = StoreConfig.from_settings()
        assert cfg.quota_bytes == 4096

    def test_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_RETRIES", "4")
        with settings.use_settings(store_retries=1):
            assert settings.current().store_retries == 1
        assert settings.current().store_retries == 4
