"""E5 / Figure 7(a): code size at the paper's operating thresholds.

Paper: θ ∈ {0, 1e-5, 5e-5} gives mean reductions of 13.7% / 16.8% /
18.8% relative to squeezed code.
"""

from benchmarks.conftest import ALL_NAMES, SCALE, emit
from repro.analysis import ascii_table, geometric_mean
from repro.analysis.experiments import FIG7_THETAS
from repro.analysis.parallel import fig7_size_rows
from repro.analysis.stats import percent

PAPER_MEANS = {0.0: 0.137, 1e-5: 0.168, 5e-5: 0.188}


def test_fig7a_size(benchmark):
    rows = benchmark.pedantic(
        lambda: fig7_size_rows(names=ALL_NAMES, scale=SCALE),
        rounds=1,
        iterations=1,
    )
    by_name: dict[str, dict[float, float]] = {}
    for row in rows:
        by_name.setdefault(row.name, {})[row.theta_paper] = row.reduction

    body = [
        [name] + [percent(by_name[name][t]) for t in FIG7_THETAS]
        for name in ALL_NAMES
    ]
    means = {
        t: 1 - geometric_mean([1 - by_name[n][t] for n in ALL_NAMES])
        for t in FIG7_THETAS
    }
    body.append(["MEAN"] + [percent(means[t]) for t in FIG7_THETAS])
    body.append(
        ["PAPER MEAN"] + [percent(PAPER_MEANS[t]) for t in FIG7_THETAS]
    )
    table = ascii_table(
        ["program"] + [f"θp={t}" for t in FIG7_THETAS],
        body,
        title=(
            f"Figure 7(a): size reduction at the operating thresholds "
            f"(scale={SCALE})"
        ),
    )
    emit("fig7a_size", table)

    assert means[0.0] > 0.08
    assert means[5e-5] >= means[1e-5] >= means[0.0]
