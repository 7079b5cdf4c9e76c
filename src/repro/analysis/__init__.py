"""Statistics, table rendering, and the paper's experiment drivers.

The θ-grid figure sweeps live in :mod:`repro.analysis.parallel`.
"""

from repro.analysis.stats import geometric_mean
from repro.analysis.report import ascii_table, bar_chart
from repro.analysis.profiles import (
    frequency_classes,
    eighty_twenty,
    profile_report,
)
from repro.analysis.dump import dump_image, dump_region
from repro.analysis.experiments import (
    THETA_SCALE,
    map_theta,
    FIG6_THETAS,
    FIG7_THETAS,
    table1_rows,
    fig4_rows,
    restore_stub_stats,
    compression_ratio_stats,
    buffer_safe_stats,
)

__all__ = [
    "geometric_mean",
    "ascii_table",
    "bar_chart",
    "frequency_classes",
    "eighty_twenty",
    "profile_report",
    "dump_image",
    "dump_region",
    "THETA_SCALE",
    "map_theta",
    "FIG6_THETAS",
    "FIG7_THETAS",
    "table1_rows",
    "fig4_rows",
    "restore_stub_stats",
    "compression_ratio_stats",
    "buffer_safe_stats",
]
