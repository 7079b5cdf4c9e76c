"""E6 / Figure 7(b): execution time relative to squeezed code.

Paper: on the (larger, diverging) timing inputs, mean slowdown is
~1.00x at θ=0, ~1.04x at θ=1e-5, and ~1.24x at θ=5e-5; individual
benchmarks vary widely because decompression cost depends on how often
timing-input paths fall just under the profiling cutoff.
"""

from benchmarks.conftest import ALL_NAMES, SCALE, emit
from repro.analysis import ascii_table, geometric_mean
from repro.analysis.experiments import FIG7_THETAS
from repro.analysis.parallel import fig7_time_rows

PAPER_MEANS = {0.0: 1.00, 1e-5: 1.04, 5e-5: 1.24}


def test_fig7b_time(benchmark):
    rows = benchmark.pedantic(
        lambda: fig7_time_rows(names=ALL_NAMES, scale=SCALE),
        rounds=1,
        iterations=1,
    )
    by_name: dict[str, dict[float, float]] = {}
    for row in rows:
        by_name.setdefault(row.name, {})[row.theta_paper] = (
            row.relative_time
        )

    body = [
        [name] + [f"{by_name[name][t]:.3f}" for t in FIG7_THETAS]
        for name in ALL_NAMES
    ]
    means = {
        t: geometric_mean([by_name[n][t] for n in ALL_NAMES])
        for t in FIG7_THETAS
    }
    body.append(["MEAN"] + [f"{means[t]:.3f}" for t in FIG7_THETAS])
    body.append(
        ["PAPER MEAN"] + [f"{PAPER_MEANS[t]:.2f}" for t in FIG7_THETAS]
    )
    table = ascii_table(
        ["program"] + [f"θp={t}" for t in FIG7_THETAS],
        body,
        title=(
            f"Figure 7(b): execution time relative to squeezed code "
            f"(timing inputs; scale={SCALE})"
        ),
    )
    emit("fig7b_time", table)

    # Shape: near-free at θ=0, growing with θ.
    assert means[0.0] < 1.10
    assert means[1e-5] >= means[0.0] - 0.01
    assert means[5e-5] >= means[1e-5] - 0.01
    assert means[5e-5] > 1.02  # the cost is visible at 5e-5
