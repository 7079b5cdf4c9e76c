"""Cell keys are pinned literally, and built once per cell per process.

A change that shifted every key would turn every existing store cold
without failing a test that only compares keys with one another
(``tests/test_variant_keys.py``), so these digests were recorded before
the key memo and are compared byte for byte.
"""

from repro import settings
from repro.analysis import parallel
from repro.core.config import SquashConfig

SCALE = 0.15

BASELINE = "1f6b04a0508d754c61ab8dae9ffd6469e0b8e1496b860ee31fff4dc58a70157e"
CTX1 = "2ebf462fc40b6433e40a637898e54c8aa90a98c859a3a43ad7fd3362c8706264"
TIME = "693ae9549a6c463167898f3545afbca3330e76d34f24e18ab38fd498fb10583c"


def test_pipeline_salt_is_unchanged():
    assert parallel.PIPELINE_SALT == "pgcc-pipeline-v2"


def test_literal_cell_keys(monkeypatch):
    monkeypatch.delenv("REPRO_CODEC_VARIANT", raising=False)
    size = ("size", "adpcm", SCALE)
    assert parallel._cell_digest(*size, SquashConfig(theta=1.0)) == BASELINE
    assert parallel._cell_digest(
        *size, SquashConfig(theta=1.0, codec_variant="ctx1")
    ) == CTX1
    with settings.use_settings(codec_variant="ctx1"):
        assert parallel._cell_digest(*size, SquashConfig(theta=1.0)) == CTX1
    assert parallel._cell_digest(
        "time", "gsm", SCALE, SquashConfig(theta=0.0)
    ) == TIME
    monkeypatch.setenv("REPRO_CODEC_VARIANT", "ctx1")
    assert parallel._cell_digest(*size, SquashConfig(theta=1.0)) == CTX1


def test_warm_lookup_builds_no_canonical_form(monkeypatch):
    calls = []
    real = parallel.canonical

    def counting(value):
        calls.append(value)
        return real(value)

    parallel._cell_key.cache_clear()
    monkeypatch.setattr(parallel, "canonical", counting)
    cell = ("size", "adpcm", SCALE, SquashConfig(theta=1.0))
    assert parallel._cell_digest(*cell) == BASELINE
    built = len(calls)
    assert built > 0
    # An equal cell built afresh, as every sweep builds its grid.
    again = ("size", "adpcm", SCALE, SquashConfig(theta=1.0))
    assert parallel._cell_digest(*again) == BASELINE
    assert len(calls) == built
    assert parallel._cell_key.cache_info().maxsize == (
        parallel.CELL_KEY_CACHE_SIZE
    )
