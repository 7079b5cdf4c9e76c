"""Cell keys are pinned literally, and built once per cell per process;
a warm sweep hashes each cell once per call.

A change that shifted every key would turn every existing store cold
without failing a test that only compares keys with one another
(``tests/test_variant_keys.py``), so these digests were recorded before
the key memo and are compared byte for byte.
"""

import pickle

from repro import settings
from repro.analysis import parallel
from repro.analysis.experiments import FIG6_THETAS
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


def test_a_warm_sweep_hashes_each_cell_once(monkeypatch, tmp_path):
    """A warm ``compute_cells`` call hashes each cell's configuration
    once, and ``grid_rows`` each distinct cell once (Figure 6's paper
    θ 1e-2 and 1 map to one cell)."""
    monkeypatch.setattr(
        parallel, "_compute_cell",
        lambda kind, name, scale, config: {
            "footprint_total": 1, "baseline_words": 2,
            "reduction": config.theta,
        },
    )
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    names = ("probe", "other")
    parallel.compute_cells(
        parallel.grid_cells("size", names, SCALE, FIG6_THETAS),
        parallel=False,
    )
    cells = parallel.grid_cells("size", names, SCALE, FIG6_THETAS)
    distinct = len(set(cells))
    assert distinct < len(cells)
    hashes = []
    real = SquashConfig.__hash__
    monkeypatch.setattr(
        SquashConfig, "__hash__", lambda self: hashes.append(1) or real(self)
    )
    results = parallel.compute_cells(cells, parallel=False)
    assert len(hashes) == len(cells)
    assert parallel.last_sweep_rollup()["cache_hits"] == distinct
    hashes.clear()
    rows = parallel.grid_rows("size", names, SCALE, FIG6_THETAS, results)
    assert len(hashes) == distinct
    assert [row.reduction for row in rows] == [
        cell[3].theta for cell in cells
    ]


def test_a_hashed_cell_pickles_as_a_plain_tuple():
    cell = ("size", "adpcm", SCALE, SquashConfig(theta=1.0))
    hashed = parallel._Cell(cell)
    assert hashed == cell and hash(hashed) == hash(cell)
    thawed = pickle.loads(pickle.dumps(hashed))
    assert type(thawed) is tuple and thawed == cell
