"""E2 / Figure 3: effect of the buffer size bound K on code size.

Paper: relative code size vs. K for three cold-code thresholds; the
optimum sits at K = 256/512 bytes -- small bounds fragment the cold
code into many regions (entry stubs + offset-table entries), large
bounds pay for a big runtime buffer.
"""

from benchmarks.conftest import SCALE, SWEEP_NAMES, emit
from repro.analysis import ascii_table
from repro.analysis.experiments import FIG3_BOUNDS, FIG3_THETAS
from repro.analysis.parallel import fig3_rows
from repro.analysis.stats import percent


def test_fig3_buffer_bound(benchmark):
    rows = benchmark.pedantic(
        lambda: fig3_rows(
            names=SWEEP_NAMES,
            scale=SCALE,
            bounds=FIG3_BOUNDS,
            thetas=FIG3_THETAS,
        ),
        rounds=1,
        iterations=1,
    )
    by_theta: dict[float, dict[int, float]] = {}
    for row in rows:
        by_theta.setdefault(row.theta_paper, {})[row.bound_bytes] = (
            row.relative_size
        )

    table = ascii_table(
        ["K (bytes)"] + [f"theta={t}" for t in FIG3_THETAS],
        [
            [bound]
            + [f"{by_theta[t][bound]:.4f}" for t in FIG3_THETAS]
            for bound in FIG3_BOUNDS
        ],
        title=(
            f"Figure 3: geo-mean relative code size vs. buffer bound "
            f"(benchmarks={SWEEP_NAMES}, scale={SCALE})"
        ),
    )
    emit("fig3_buffer_bound", table)

    # Shape: the best bound is an interior point (paper: 256/512).
    for theta in FIG3_THETAS:
        series = by_theta[theta]
        best = min(series, key=series.get)
        assert best in (128, 256, 512, 1024), (
            f"optimum K={best} at theta={theta} is at the sweep edge"
        )
        # the extremes are worse than the optimum
        assert series[FIG3_BOUNDS[0]] >= series[best]
        assert series[FIG3_BOUNDS[-1]] >= series[best]
