"""Statistics helpers, rendering, and the experiment drivers."""

import math

import pytest

from repro.analysis import (
    FIG6_THETAS,
    FIG7_THETAS,
    THETA_SCALE,
    ascii_table,
    bar_chart,
    geometric_mean,
    map_theta,
)
from repro.analysis.experiments import (
    compression_ratio_stats,
    fig4_rows,
    restore_stub_stats,
    table1_rows,
)
from repro.analysis.parallel import fig3_rows, fig6_rows
from repro.analysis.stats import arithmetic_mean, percent

SCALE = 0.2
NAME = ("adpcm",)


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([4, 1]) == pytest.approx(2.0)
        assert geometric_mean([7]) == pytest.approx(7.0)

    def test_geometric_mean_errors(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geometric_vs_arithmetic(self):
        values = [0.5, 2.0, 8.0]
        assert geometric_mean(values) <= arithmetic_mean(values)

    def test_percent(self):
        assert percent(0.137) == "13.7%"
        assert percent(0.5, digits=0) == "50%"


class TestReport:
    def test_ascii_table(self):
        text = ascii_table(
            ["name", "value"], [["a", 1], ["bb", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert lines[-1].startswith("bb")

    def test_bar_chart(self):
        text = bar_chart(["x", "yy"], [1.0, 2.0])
        assert "#" in text
        assert "2.000" in text

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])


class TestThetaMapping:
    def test_fixed_points(self):
        assert map_theta(0.0) == 0.0
        assert map_theta(1.0) == 1.0

    def test_scaling_and_saturation(self):
        assert map_theta(1e-5) == pytest.approx(1e-5 * THETA_SCALE)
        assert map_theta(0.5) == 1.0

    def test_grids_monotone(self):
        for grid in (FIG6_THETAS, FIG7_THETAS):
            assert list(grid) == sorted(grid)
            assert grid[0] == 0.0


class TestDrivers:
    def test_table1(self):
        rows = table1_rows(names=NAME, scale=SCALE)
        row = rows[0]
        assert row.name == "adpcm"
        assert abs(row.input_size - row.paper_input) <= 10
        assert (
            abs(row.squeeze_size - row.paper_squeeze)
            <= row.paper_squeeze * 0.02
        )
        assert 0 < row.reduction < 0.6
        assert row.paper_reduction == pytest.approx(
            1 - 11690 / 18228, rel=1e-2
        )

    def test_fig6_rows_monotone(self):
        rows = fig6_rows(
            names=NAME, scale=SCALE, thetas=(0.0, 1e-2, 1.0), parallel=False
        )
        reductions = [row.reduction for row in rows]
        assert reductions == sorted(reductions)
        assert all(not math.isnan(r) for r in reductions)

    def test_fig4_rows(self):
        rows = fig4_rows(names=NAME, scale=SCALE, thetas=(0.0, 1.0))
        assert rows[0].cold_fraction < rows[1].cold_fraction
        assert rows[1].cold_fraction == pytest.approx(1.0)
        for row in rows:
            assert row.compressible_fraction <= row.cold_fraction + 1e-9

    def test_fig3_rows(self):
        rows = fig3_rows(
            names=NAME, scale=SCALE, bounds=(128, 512), thetas=(0.0,),
            parallel=False,
        )
        assert len(rows) == 2
        for row in rows:
            assert 0.5 < row.relative_size < 1.2

    def test_compression_stats(self):
        rows = compression_ratio_stats(NAME, scale=SCALE)
        row = rows[0]
        assert 0.4 < row.ratio < 0.9
        assert row.stream_ratio < row.ratio  # tables cost extra

    def test_restore_stub_stats(self):
        rows = restore_stub_stats(NAME, scale=SCALE, theta_paper=1e-2)
        row = rows[0]
        assert row.max_live_stubs <= 9
        assert 0 < row.compile_time_fraction < 1.0
        assert row.stubs_created == row.stubs_freed
