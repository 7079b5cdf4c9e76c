"""The squash compiler's output over whole configurations, pinned.

The golden grid (``test_squash_golden.py``) pins only default
configurations, and only image words.  ``golden/squash_golden_configs.json``
pins, for adpcm, gsm and jpeg_enc at scale 0.15, every restore scheme ×
buffer strategy × region strategy at θ ∈ {0, 1e-3, 1}, plus rows
without packing and without unswitching: the SHA-256 of both files
:meth:`SquashResult.file_bytes` returns (image and descriptor JSON,
which a ``service`` job's digest covers) and the ``RewriteInfo``
counters.  The compile-time-stub, decompress-once and no-calls paths
run here and nowhere else in the goldens.

Regenerate (only after an intentional output change)::

    PYTHONPATH=src python tests/golden/capture_squash_golden.py --configs
"""

import importlib.util
import json
import pathlib

import pytest

_GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "capture_squash_golden", _GOLDEN_DIR / "capture_squash_golden.py"
)
capture = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(capture)

GOLDEN = json.loads(capture.CONFIG_PATH.read_text())
GRID = list(capture.config_grid())


def test_golden_covers_the_grid():
    assert GOLDEN["scale"] == capture.CONFIG_SCALE
    assert sorted(GOLDEN["cells"]) == sorted(cell for cell, _, _ in GRID)


@pytest.mark.parametrize("program", capture.CONFIG_PROGRAMS)
def test_config_grid_matches_golden(program):
    for cell, name, config in GRID:
        if name == program:
            assert capture.config_cell(name, config) == GOLDEN["cells"][cell], cell
