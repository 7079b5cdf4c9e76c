"""Drive one workload, plain or traced, and print its metrics.

The plain run (``--trace 0``) sets up three times, measures one window
and prints every end-to-end metric.  The traced run (``--trace 1``)
sets up once with the wrappers on, then measures a plain window, a
traced window and a second plain window, each a short one (one pass,
one round or a third of the jobs), and prints every per-layer metric:
the traced window gives the layer times, the two plain windows give
the tracing overhead and its noise floor.  Both print one JSON object
as their last line and exit non-zero when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import shutil
import statistics
import tempfile
import time

from benchmarks.squashbench import spans
from benchmarks.squashbench.hostspeed import HostSpeed
from benchmarks.squashbench.workloads import WORKLOADS, Window, quantile

#: The benchmark's definition: run length, workloads, and each metric's
#: name, unit, direction and bound.
SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: Set-ups per plain run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: Probes that scale the import time.  One probe took from 12 to 55 ms
#: within a run, so the import time, measured once, takes the median of
#: several.
IMPORT_PROBES = 5

#: Spans the benchmark places around its own steps and each sample or
#: job; time they cover but no layer span does is
#: ``bench.unattributed_s``.
CONTAINERS = ("bench.setup", "bench.window", "bench.sample", "service.job")

STAGES = ("cold", "plan", "classify", "layout", "encode", "emit")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py",
        description="Squash benchmark: one workload, plain or traced.",
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def with_units(values: dict, metrics: list) -> dict[str, tuple[float, str]]:
    """Each metric of *metrics* (a ``BENCHMARK.json`` list), in order,
    as (value, unit)."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in metrics}


class Outcome:
    """Operations attempted and failed, plus the metrics to print."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def count(self, window: Window) -> None:
        self.attempted += window.attempted
        self.failed += window.failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def plain(workload, import_s: float) -> Outcome:
    outcome = Outcome()
    clock = workload.clock = HostSpeed()
    for _ in range(IMPORT_PROBES):
        clock.probe()
    now = time.perf_counter()
    import_s = clock.scale(import_s, now, now)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(spans.NULL)
        ended = time.perf_counter()
        clock.probe()
        setups.append(clock.scale(ended - started, started, ended))
    window = workload.window(spans.NULL)
    outcome.count(window)
    checked, failed = workload.finish()
    outcome.attempted += checked
    outcome.failed += failed
    outcome.metrics = with_units({
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": window.rate,
        "op_p50_s": quantile(window.latencies, 0.5),
        "op_p90_s": quantile(window.latencies, 0.9),
        "size_ratio": geomean(window.ratios),
        "peak_rss_mb": peak_rss_mb(),
    }, SPEC["end_to_end"])
    detail = dict(window.detail)
    if window.slowdowns:
        detail["size_ratio"] = (geomean(window.ratios), "ratio")
        detail["slowdown"] = (geomean(window.slowdowns), "ratio")
    outcome.lines.append(clock.summary())
    outcome.lines.append(
        f"set-ups: {' '.join(f'{s:.4f}' for s in setups)} s "
        f"(+ imports {import_s:.4f} s)"
    )
    outcome.lines += [
        f"{name:<14} {value:>14.6g} {unit}"
        for name, (value, unit) in detail.items()
    ]
    return outcome


def add_queue_spans(recorder: spans.Recorder) -> None:
    """Give each service job a ``service.queue`` child span from the
    end of its submit to the start of its execute, when that is later."""
    children: dict[int, dict[str, spans.Span]] = {}
    for span in recorder.spans:
        if span.parent is not None:
            children.setdefault(span.parent, {})[span.name] = span
    jobs = [span for span in recorder.spans if span.name == "service.job"]
    for job in jobs:
        kids = children.get(job.id, {})
        if "service.submit" in kids and "service.execute" in kids:
            submitted = kids["service.submit"].end
            executed = kids["service.execute"].start
            if executed > submitted:
                recorder.add_span("service.queue", submitted, executed, job)


def layer_metrics(recorder: spans.Recorder, window: Window,
                  overhead: float) -> dict[str, float]:
    totals = recorder.totals()
    counts = recorder.counts

    def incl(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    def ratio(num, den, scale=1.0):
        return num / den / scale if den else 0.0

    run_self = own("vm.run")
    decode_s = incl("compress.decode")
    values = {
        "workloads.generate_s": incl("workloads.generate"),
        "squeeze.squeeze_s": incl("squeeze.squeeze"),
        "vm.profile_s": incl("vm.profile"),
        "vm.baseline_run_s": incl("vm.baseline_run"),
        "pipeline.squash_s": incl("pipeline.squash"),
        "pipeline.outside_stages_s": max(
            0.0, incl("pipeline.squash") - counts.get("pipeline.stages_s", 0)
        ),
        "vm.run_self_s": run_self,
        "vm.steps": counts.get("vm.steps", 0),
        "vm.minstr_per_s": ratio(counts.get("vm.steps", 0), run_self, 1e6),
        "vm.slowdown": geomean(window.slowdowns),
        "runtime.trap_s": own("runtime.trap"),
        "runtime.traps": calls("runtime.trap"),
        "runtime.decompressions": counts.get("runtime.decompressions", 0),
        "runtime.stubs_created": counts.get("runtime.stubs_created", 0),
        "runtime.instrs_materialised":
            counts.get("runtime.instrs_materialised", 0),
        "runtime.decode_cache_hit_ratio": ratio(
            counts.get("runtime.cache_hits", 0),
            counts.get("runtime.cache_lookups", 0),
        ),
        "compress.decode_s": decode_s,
        "compress.decode_msym_per_s": ratio(
            counts.get("compress.symbols", 0), decode_s, 1e6
        ),
        "stagecache.warm_s": own("stagecache.warm"),
        "resilience.supervise_s": own("resilience.supervise"),
        "resilience.pool_fresh": counts.get("pool.acquire.fresh", 0),
        "resilience.pool_reuse": counts.get("pool.acquire.reuse", 0),
        "analysis.cells_computed": counts.get("analysis.cells_computed", 0),
        "analysis.cache_hits": counts.get("analysis.cache_hits", 0),
        "store.put_s": incl("store.put"),
        "store.puts": calls("store.put"),
        "store.usage_bytes": counts.get("store.usage_bytes", 0),
        "store.get_s": incl("store.get"),
        "store.gets": calls("store.get"),
        "store.hit_ratio": ratio(counts.get("store.get_hits", 0),
                                 calls("store.get")),
        "service.submit_s": incl("service.submit"),
        "service.execute_s": incl("service.execute"),
        "service.journal_s": incl("service.journal"),
        "service.queue_s": incl("service.queue"),
        "service.shed": counts.get("service.shed", 0),
        "service.client_retries": counts.get("service.client_retries", 0),
        "program.image_save_s": incl("program.image_save"),
        "bench.unattributed_s": sum(own(name) for name in CONTAINERS),
        "bench.trace_overhead": overhead,
    }
    for stage in STAGES:
        values[f"pipeline.{stage}_s"] = counts.get(f"pipeline.{stage}_s", 0)
    return values


def traced(workload, spans_path: pathlib.Path) -> Outcome:
    outcome = Outcome()
    recorder = spans.Recorder()
    targets = workload.targets(recorder)
    with spans.instrument(recorder, targets):
        with recorder.span("bench.setup"):
            workload.setup(recorder)
    windows = []
    for mode in ("plain", "traced", "plain"):
        if windows:
            workload.reset()
        if mode == "plain":
            windows.append(workload.window(spans.NULL, short=True))
            continue
        with spans.instrument(recorder, targets):
            with recorder.span("bench.window"):
                windows.append(workload.window(recorder, short=True))
    add_queue_spans(recorder)
    for window in windows:
        outcome.count(window)
    checked, failed = workload.finish()
    outcome.attempted += checked
    outcome.failed += failed

    plain_rates = [windows[0].rate, windows[2].rate]
    mean_rate = sum(plain_rates) / 2
    noise = abs(plain_rates[0] - plain_rates[1]) / mean_rate if mean_rate else 0
    delta = mean_rate / windows[1].rate - 1 if windows[1].rate else 0.0
    overhead = delta if delta > noise else 0.0
    if overhead:
        verdict = f"{delta:+.2%}"
    elif delta < 0:
        verdict = (f"no change (the traced window was {-delta:.2%} faster; "
                   f"the plain windows' spread is {noise:.2%})")
    else:
        verdict = (f"no change (traced-minus-plain {delta:+.2%} is inside "
                   f"the plain windows' spread {noise:.2%})")
    outcome.lines.append(
        "windows (ops/s): plain {:.4f}, traced {:.4f}, plain {:.4f}; "
        "bench.trace_overhead: {}".format(
            plain_rates[0], windows[1].rate, plain_rates[1], verdict)
    )
    outcome.lines += _breakdown(recorder)
    recorder.write(spans_path)
    outcome.lines.append(f"spans: {len(recorder.spans)} written to "
                         f"{spans_path}")
    values = layer_metrics(recorder, windows[1], overhead)
    outcome.metrics = with_units(values, SPEC["per_layer"])
    return outcome


def _breakdown(recorder: spans.Recorder) -> list[str]:
    """Self time per span name; set-up plus window sums to the traced
    wall time when the workload runs on one thread."""
    totals = recorder.totals()
    wall = sum(totals.get(name, (0.0,))[0]
               for name in ("bench.setup", "bench.window"))
    lines = [f"{'span':<26} {'calls':>7} {'incl_s':>10} {'self_s':>10}"]
    for name, (incl, own, calls) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        lines.append(f"{name:<26} {calls:>7} {incl:>10.4f} {own:>10.4f}")
    lines.append(f"{'traced set-up + window':<26} {'':>7} {wall:>10.4f}")
    return lines


def main(argv, import_s: float, root: pathlib.Path) -> int:
    args = parse_args(argv)
    scratch_root = root / ".squashbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    )
    # The package's own temporary files (job image digests) stay in the
    # checkout too.
    tempfile.tempdir = str(scratch)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    print(f"squashbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    print(workload.describe(), flush=True)
    try:
        if args.trace:
            outcome = traced(
                workload,
                scratch_root / f"{args.workload}-seed{args.seed}.spans.jsonl",
            )
        else:
            outcome = plain(workload, import_s)
    finally:
        workload.close()
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    for line in outcome.lines:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit}")
    print(f"attempted {outcome.attempted} failed {outcome.failed} "
          f"correct {outcome.correct}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1
