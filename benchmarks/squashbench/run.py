"""Run one workload of the squash benchmark.

Usage, from the root of a checkout::

    python3 benchmarks/squashbench/run.py --workload squash_run \
        --seed 1 --seconds 30 --trace 0

See ``README.md`` in this directory for the workloads and metrics.
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.squashbench.bench import main

    sys.exit(main(sys.argv[1:], time.perf_counter() - started, ROOT))
