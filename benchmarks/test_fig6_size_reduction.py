"""E4 / Figure 6: code-size reduction vs. θ, per benchmark.

Paper: reductions grow from 9.0-22.1% (mean 13.7%) at θ=0 to
21.5-31.8% (mean 26.5%) at θ=1, with most of the benefit already at
low thresholds.
"""

from benchmarks.conftest import ALL_NAMES, SCALE, emit
from repro.analysis import ascii_table, geometric_mean
from repro.analysis.experiments import FIG6_THETAS
from repro.analysis.parallel import fig6_rows
from repro.analysis.stats import percent

#: Paper's mean reductions at the Figure 6 thresholds.
PAPER_MEAN = {0.0: 0.137, 1e-5: 0.168, 1e-4: None, 1e-3: None,
              1e-2: None, 1.0: 0.265}


def test_fig6_size_reduction(benchmark):
    rows = benchmark.pedantic(
        lambda: fig6_rows(names=ALL_NAMES, scale=SCALE, thetas=FIG6_THETAS),
        rounds=1,
        iterations=1,
    )
    by_name: dict[str, dict[float, float]] = {}
    for row in rows:
        by_name.setdefault(row.name, {})[row.theta_paper] = row.reduction

    body = [
        [name] + [percent(by_name[name][t]) for t in FIG6_THETAS]
        for name in ALL_NAMES
    ]
    means = [
        geometric_mean(
            [1 - by_name[name][t] for name in ALL_NAMES]
        )
        for t in FIG6_THETAS
    ]
    body.append(["MEAN"] + [percent(1 - m) for m in means])
    table = ascii_table(
        ["program"] + [f"θp={t}" for t in FIG6_THETAS],
        body,
        title=(
            f"Figure 6: code-size reduction vs. θ (paper-nominal θ, "
            f"evaluated at θ×{100:g}; scale={SCALE})"
        ),
    )
    emit("fig6_size_reduction", table)

    # Shape: per-benchmark monotone growth; everyone wins at θ=1.
    for name in ALL_NAMES:
        series = [by_name[name][t] for t in FIG6_THETAS]
        for lo, hi in zip(series, series[1:]):
            assert hi >= lo - 0.005
        assert series[0] > 0.05, f"{name} should already win at θ=0"
        assert series[-1] > series[0] + 0.02, (
            f"{name} should gain from higher θ"
        )
    # Mean bands around the paper's endpoints.
    mean0 = 1 - means[0]
    mean1 = 1 - means[-1]
    assert 0.08 < mean0 < 0.30, f"θ=0 mean reduction {mean0:.3f}"
    assert mean1 > mean0 + 0.03
