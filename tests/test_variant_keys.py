"""The squash memo and the sweep's cell cache tell codec variants apart.

``experiments.squash_benchmark`` and ``squashed_run`` are memos keyed on
a :class:`SquashConfig`, and the on-disk cell cache on its canonical
form.  A config whose own ``codec_variant`` is empty squashes under the
``REPRO_CODEC_VARIANT`` setting, so that setting is part of the key:
without it a ``ctx1`` call returned the ``baseline`` result cached
before it, in process and on disk.  Keys made without the setting (and
``PIPELINE_SALT``) are unchanged.
"""

import hashlib
import json

from repro import api, settings
from repro.analysis import parallel
from repro.analysis.experiments import squash_benchmark
from repro.core.config import SquashConfig

SCALE = 0.15


def test_squash_memo_keys_on_the_variant_setting():
    config = SquashConfig(theta=1.0)
    baseline = api.squash_benchmark("adpcm", SCALE, config)
    with settings.use_settings(codec_variant="ctx1"):
        ctx1 = api.squash_benchmark("adpcm", SCALE, config)
        info = squash_benchmark.cache_info()
        assert api.squash_benchmark("adpcm", SCALE, config) is ctx1
        assert squash_benchmark.cache_info().hits == info.hits + 1
    explicit = api.squash_benchmark(
        "adpcm", SCALE, SquashConfig(theta=1.0, codec_variant="ctx1")
    )
    assert ctx1.file_bytes() == explicit.file_bytes()
    assert ctx1.file_bytes() != baseline.file_bytes()
    # The default key is the config itself: the baseline result is
    # still the memo's answer.
    assert api.squash_benchmark("adpcm", SCALE, config) is baseline


def test_cell_digest_keys_on_the_variant_setting():
    config = SquashConfig(theta=1.0)
    cell = ("size", "adpcm", SCALE)
    own = json.dumps(
        {
            "kind": "size",
            "name": "adpcm",
            "scale": SCALE,
            "config": parallel.canonical(config),
            "salt": parallel.PIPELINE_SALT,
        },
        sort_keys=True,
    )
    assert parallel._cell_digest(*cell, config) == (
        hashlib.sha256(own.encode()).hexdigest()
    )
    explicit = SquashConfig(theta=1.0, codec_variant="ctx1")
    with settings.use_settings(codec_variant="ctx1"):
        assert parallel._cell_digest(*cell, config) == (
            parallel._cell_digest(*cell, explicit)
        )
        # The config's own field wins over the setting.
        pinned = SquashConfig(theta=1.0, codec_variant="dict")
        digest = parallel._cell_digest(*cell, pinned)
    assert digest == parallel._cell_digest(*cell, pinned)
    assert parallel._cell_digest(*cell, explicit) != (
        parallel._cell_digest(*cell, config)
    )


def test_cached_sweep_does_not_answer_another_variant(tmp_path):
    spec = api.SweepSpec(
        names=("adpcm",), scale=SCALE, thetas=(1.0,), parallel=True
    )
    with settings.use_settings(cache_dir=str(tmp_path / "shared")):
        baseline = api.sweep(spec)
        with settings.use_settings(codec_variant="ctx1"):
            warmed = api.sweep(spec)
    with settings.use_settings(
        cache_dir=str(tmp_path / "fresh"), codec_variant="ctx1"
    ):
        fresh = api.sweep(spec)
    assert warmed == fresh
    assert warmed != baseline
