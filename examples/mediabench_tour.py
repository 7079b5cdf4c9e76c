#!/usr/bin/env python
"""Tour one MediaBench-like benchmark through the full pipeline.

Generates the program, squeezes it (Table 1), profiles it, then squashes
it across the θ ladder, printing the size/speed tradeoff curve the
paper's Figures 6 and 7 chart.

Run:  python examples/mediabench_tour.py [benchmark] [scale]
"""

import sys

from repro import SquashConfig, mediabench_program, squash
from repro.analysis import ascii_table
from repro.analysis.stats import percent
from repro.vm.machine import Machine

THETAS = (0.0, 1e-3, 5e-3, 1e-2, 0.1, 1.0)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "adpcm"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.35

    bench = mediabench_program(name, scale=scale)
    stats = bench.squeeze_stats
    print(
        f"{name}: generated {bench.input_size} instructions; squeeze "
        f"removed {percent(stats.reduction)} "
        f"(unreachable {stats.unreachable.instrs_removed}, "
        f"nops {stats.nops.nops_removed}, "
        f"dead {stats.dead.stores_removed}, "
        f"abstraction {stats.abstraction.instrs_saved}) "
        f"-> {bench.squeeze_size} instructions"
    )
    print(
        f"profile: {bench.profile.tot_instr_ct} dynamic instructions; "
        f"{list(bench.profile.counts.values()).count(0)} of "
        f"{len(bench.profile.counts)} blocks never executed"
    )

    baseline = Machine(
        bench.layout.image, input_words=bench.timing_input
    ).run()

    rows = []
    for theta in THETAS:
        result = squash(
            bench.squeezed, bench.profile, SquashConfig(theta=theta)
        )
        run, runtime = result.run(bench.timing_input, max_steps=500_000_000)
        assert run.output == baseline.output
        rows.append(
            [
                theta,
                result.footprint.total,
                percent(result.reduction),
                len(result.info.regions),
                runtime.stats.decompressions,
                f"{run.cycles / baseline.cycles:.3f}x",
            ]
        )
    print()
    print(
        ascii_table(
            ["theta", "words", "reduction", "regions",
             "decompressions", "rel. time"],
            rows,
            title=f"{name}: size/speed tradeoff across θ (scale={scale})",
        )
    )


if __name__ == "__main__":
    main()
