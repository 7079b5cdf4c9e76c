"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures,
prints it, and writes it under ``benchmarks/results/`` for
EXPERIMENTS.md.  ``REPRO_BENCH_SCALE`` (default 0.5) scales the
programs' static/dynamic size; 1.0 reproduces Table 1's exact
instruction counts at the cost of longer runs.

The figure sweeps run through ``repro.analysis.parallel`` with its
defaults: a supervised process pool and the persistent on-disk cell
cache (``REPRO_CACHE_DIR``), so reruns recompute only changed cells.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import settings as _settings
from repro.workloads.mediabench import MEDIABENCH

#: Program scale used by all benchmarks.
SCALE = _settings.current().bench_scale

#: All eleven benchmarks.
ALL_NAMES = MEDIABENCH
#: A representative subset for the expensive sweeps.
SWEEP_NAMES = ("adpcm", "gsm", "jpeg_dec", "pgp")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it to results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE
