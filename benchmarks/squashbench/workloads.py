"""The three workloads: set-up, timed window and output checks.

Every input comes from the workload seed, and the package sees only
the generated inputs.  Each workload exposes the same steps, driven by
:mod:`benchmarks.squashbench.bench`:

* ``setup(rec)`` -- everything before the timed window; repeatable;
* ``window(rec, short)`` -- the timed work, returning a :class:`Window`;
  a short window, for the traced run, does a part of it;
* ``reset()`` -- make the next window do the same cold work again;
* ``finish()`` -- output checks that run after the window;
* ``targets()`` -- the internal calls the traced run wraps;
* ``close()`` -- stop every thread, server and pool it started.

*rec* is :data:`~benchmarks.squashbench.spans.NULL` in the plain run
and a :class:`~benchmarks.squashbench.spans.Recorder` in the traced
one; the code path is otherwise the same.  Size knobs are dataclass
fields so the smoke test can run every workload tiny.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import random
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace

import repro.api as api
from repro.analysis import experiments, parallel, stagecache
from repro.analysis.experiments import FIG6_THETAS, map_theta
from repro.compress.codec import ProgramCodec
from repro.core.runtime import (
    SquashRuntime,
    clear_region_decode_cache,
    region_decode_cache_info,
)
from repro.errors import ServiceOverloaded
from repro.obs.metrics import get_registry
from repro.pipeline.manager import StageReport
from repro.program.layout import layout
from repro.resilience import Supervisor
from repro.resilience.workerpool import get_pool_manager
from repro.service.engine import JobEngine, ServiceConfig
from repro.service.http import serve_http
from repro.service.jobs import JobSpec, execute_job
from repro.service.journal import JobJournal
from repro.settings import use_settings
from repro.squeeze import squeeze
from repro.store import get_store
from repro.store.store import ArtifactStore
from repro.vm.machine import Machine
from repro.vm.profiler import collect_profile
from repro.workloads import build_workload, mediabench, mediabench_spec
from repro.workloads.inputs import profiling_input, timing_input

from benchmarks.squashbench.hostspeed import RawClock

#: MediaBench shapes grouped by squeezed size (Table 1).  The sweep
#: draws one shape per stratum; within a stratum sizes differ by at most
#: 15%, so every seed gives a subset of about the same total size and
#: the figures stay comparable across seeds.  pgp and rasta, twice the
#: size of any other, are left out: with two workers one of them alone
#: set the cold sweep's length.
SMALL = ("adpcm", "g721_dec", "g721_enc")
MID = ("gsm", "epic")
LARGE = ("mpeg2enc", "jpeg_dec")

#: A small, a mid-size and a large shape.  squash_run re-seeds their
#: contents and the service draws its job stream over them; the shapes
#: stay fixed because run time grows with program size, and a seeded
#: choice of shapes moved every time metric by about 25% between seeds.
SHAPES = ("adpcm", "gsm", "jpeg_enc")

#: Distinct θ of the Figure 6 grid after ``map_theta``: paper 1e-2 and
#: 1 both map to 1.0, and a second run of that image would find its
#: regions in the process-wide decode cache.
FIG6_DISTINCT = tuple(sorted({map_theta(theta) for theta in FIG6_THETAS}))

#: Worker threads, pool workers and client threads: min(2, CPUs).
WORKERS = min(2, len(os.sched_getaffinity(0)))

_METRICS = get_registry()


@dataclass
class Window:
    """What one timed window measured."""

    #: Operations behind ``ops_per_s`` and the seconds they took.
    ops: int = 0
    ops_seconds: float = 0.0
    #: Per-operation latencies behind ``op_p50_s`` / ``op_p90_s``.
    latencies: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Named per-workload quantities for the report: name -> (value, unit).
    detail: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.ops / self.ops_seconds if self.ops_seconds else 0.0


def _fail(what: str) -> None:
    """Report one failed operation: a FAILED line, then the traceback on
    stderr."""
    print(f"FAILED {what}", flush=True)
    traceback.print_exc()


def record_stages(rec, report: StageReport | None) -> None:
    """Add a squash's stage seconds to the per-layer counts."""
    if report is None:
        return
    for stage in report.stages:
        rec.add(f"pipeline.{stage.name}_s", stage.seconds)
    rec.add("pipeline.stages_s", report.total_seconds)


def reset_process_caches() -> None:
    """Forget every per-process memo a cold window must not reuse."""
    mediabench.mediabench_program.cache_clear()
    experiments.squash_benchmark.cache_clear()
    experiments.baseline_run.cache_clear()
    experiments.squashed_run.cache_clear()
    stagecache.reset_counters()
    clear_region_decode_cache()


def _stage_recorder(rec):
    """``experiments.squash`` returns a SquashResult; keep its stages."""

    def on_result(result):
        record_stages(rec, result.stage_report)

    return on_result


def _generation_targets():
    """The generation calls ``mediabench_program`` makes."""
    return [
        (mediabench, "build_workload", "workloads.generate", None, None),
        (mediabench, "profiling_input", "workloads.generate", None, None),
        (mediabench, "timing_input", "workloads.generate", None, None),
        (mediabench, "squeeze", "squeeze.squeeze", None, None),
        (mediabench, "collect_profile", "vm.profile", None, None),
    ]


def _store_targets(rec):
    def on_get(entry):
        rec.add("store.get_hits", entry is not None)

    return [
        (ArtifactStore, "get", "store.get", None, on_get),
        (ArtifactStore, "put", "store.put", None, None),
    ]


def _new_dir(scratch: pathlib.Path, prefix: str) -> pathlib.Path:
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


# -- squash_run ---------------------------------------------------------------


#: Times the plain window squashes and runs the whole sample set; each
#: sample's times are the medians over them.
PASSES = 3


@dataclass(frozen=True)
class SquashRunSize:
    scale: float = 0.15
    programs: tuple = SHAPES
    thetas: tuple = FIG6_DISTINCT


@dataclass
class Prepared:
    """One re-seeded program, squeezed and profiled, with its reference
    run: the squeezed image on the timing input."""

    name: str
    seed: int
    squeezed: object
    profile: object
    timing_input: tuple
    base: object

    def fingerprint(self) -> tuple:
        return (self.name, self.squeezed.code_size, self.base.cycles,
                tuple(self.base.output), self.base.exit_code)


class SquashRun:
    name = "squash_run"

    def __init__(self, seed: int, seconds: float, scratch: pathlib.Path,
                 size: SquashRunSize = SquashRunSize(), tamper=False):
        rng = random.Random(seed)
        self.size = size
        self.tamper = tamper
        self.names = list(size.programs)
        self.seeds = [rng.getrandbits(31) for _ in self.names]
        self.programs: list[Prepared] = []
        self.setup_failed = 0
        self.clock = RawClock()

    def describe(self) -> str:
        shapes = " ".join(
            f"{name}(seed {seed})" for name, seed in zip(self.names, self.seeds)
        )
        return (f"scale={self.size.scale} thetas={list(self.size.thetas)} "
                f"programs: {shapes}")

    def targets(self, rec):
        """The codec's region decode, which the trap handlers call."""

        def on_decode(decoded):
            items, _bits = decoded
            # One opcode symbol per item and the sentinel, one per field.
            rec.add("compress.symbols",
                    1 + sum(1 + len(item.fields) for item in items))

        return [(ProgramCodec, "decode_region", "compress.decode", None,
                 on_decode)]

    def _prepare(self, rec, name: str, seed: int) -> Prepared:
        spec = replace(mediabench_spec(name, self.size.scale), seed=seed)
        with rec.span("workloads.generate", f"setup:{name}"):
            workload = build_workload(spec)
            profile_in = profiling_input(workload)
            timing_in = timing_input(workload)
        with rec.span("squeeze.squeeze"):
            squeezed, _ = squeeze(workload.program)
        laid = layout(squeezed)
        with rec.span("vm.profile"):
            profile = collect_profile(squeezed, laid.image, profile_in)
        with rec.span("vm.baseline_run"):
            base = Machine(laid.image, input_words=timing_in).run()
        return Prepared(name, seed, squeezed, profile, tuple(timing_in), base)

    def setup(self, rec) -> None:
        programs = [
            self._prepare(rec, name, seed)
            for name, seed in zip(self.names, self.seeds)
        ]
        if self.programs and [p.fingerprint() for p in programs] != [
            p.fingerprint() for p in self.programs
        ]:
            print("FAILED set-up is not deterministic", flush=True)
            self.setup_failed += 1
        self.programs = programs

    def reset(self) -> None:
        clear_region_decode_cache()

    def _machine(self, rec, result, inputs):
        if not rec.enabled:
            return result.make_machine(inputs)
        runtime = SquashRuntime(result.descriptor)
        services = {
            addr: rec.wrap(handler, "runtime.trap")
            for addr, handler in runtime.services().items()
        }
        machine = Machine(result.image, input_words=inputs, services=services)
        return machine, runtime

    def window(self, rec, short: bool = False) -> Window:
        """Squash and run every sample :data:`PASSES` times, once when
        *short*; each sample's times are its medians."""
        window = Window()
        #: group -> (start, squashed, finished) per pass
        timings: dict[str, list] = {}
        for pass_index in range(1 if short else PASSES):
            for index, prog in enumerate(self.programs):
                expected = (list(prog.base.output), prog.base.exit_code)
                if self.tamper and index == 0:
                    expected = (expected[0] + [1], expected[1])
                for theta in self.size.thetas:
                    group = f"{prog.name}@{theta:g}"
                    window.attempted += 1
                    clear_region_decode_cache()
                    self.clock.probe()
                    started = time.perf_counter()
                    try:
                        with rec.span("bench.sample", group):
                            with rec.span("pipeline.squash"):
                                result = api.squash(
                                    prog.squeezed, prog.profile,
                                    api.SquashConfig(theta=theta),
                                )
                            compiled = time.perf_counter()
                            machine, runtime = self._machine(
                                rec, result, prog.timing_input
                            )
                            with rec.span("vm.run"):
                                run = machine.run()
                    except Exception:
                        # One sample's failure is counted, not fatal.
                        _fail(f"squash_run sample {group}")
                        window.failed += 1
                        continue
                    finished = time.perf_counter()
                    timings.setdefault(group, []).append(
                        (started, compiled, finished)
                    )
                    if (list(run.output), run.exit_code) != expected:
                        print(f"FAILED squash_run {group}: output or exit "
                              "code differs from the squeezed program's",
                              flush=True)
                        window.failed += 1
                    if pass_index == 0:
                        window.ratios.append(
                            result.footprint.total / result.baseline_words
                        )
                        window.slowdowns.append(run.cycles / prog.base.cycles)
                    if rec.enabled:
                        self._count(rec, result, run, runtime)
        self.clock.probe()
        scale = self.clock.scale
        compile_s = run_s = 0.0
        for passes in timings.values():
            compiles = [scale(mid - start, start, mid)
                        for start, mid, _ in passes]
            runs = [scale(end - mid, mid, end) for _, mid, end in passes]
            window.latencies.append(statistics.median(
                c + r for c, r in zip(compiles, runs)
            ))
            compile_s += statistics.median(compiles)
            run_s += statistics.median(runs)
        window.ops = len(timings)
        window.ops_seconds = compile_s + run_s
        window.detail = {"compile_s": (compile_s, "s"), "run_s": (run_s, "s"),
                         "samples": (window.ops, "count")}
        return window

    def _count(self, rec, result, run, runtime) -> None:
        record_stages(rec, result.stage_report)
        stats = runtime.stats
        info = region_decode_cache_info()
        rec.add("vm.steps", run.steps)
        rec.add("runtime.decompressions", stats.decompressions)
        rec.add("runtime.stubs_created", stats.stubs_created)
        rec.add("runtime.instrs_materialised", stats.instrs_materialised)
        rec.add("runtime.cache_hits", info["hits"])
        rec.add("runtime.cache_lookups", info["hits"] + info["misses"])

    def finish(self) -> tuple[int, int]:
        return 0, self.setup_failed

    def close(self) -> None:
        self.programs = []


# -- fig7_sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSize:
    scale: float = 0.15
    strata: tuple = (SMALL, MID, LARGE)
    rounds: int = 5
    warm_batches: int = 20


#: Warm reruns in one timed warm operation.  One rerun takes a few ms,
#: about a fifth of a host-speed probe; a batch of ten is long enough to
#: take a probe before each without the probes dominating the window.
WARM_BATCH = 10


class Fig7Sweep:
    name = "fig7_sweep"

    def __init__(self, seed: int, seconds: float, scratch: pathlib.Path,
                 size: SweepSize = SweepSize(), tamper=False):
        self.size = size
        self.scratch = scratch
        self.tamper = tamper
        rng = random.Random(seed)
        self.names = tuple(rng.choice(stratum) for stratum in size.strata)
        self.store_dir: pathlib.Path | None = None
        self.clock = RawClock()

    def describe(self) -> str:
        return (f"scale={self.size.scale} workers={WORKERS} "
                f"programs: {' '.join(self.names)}")

    def targets(self, rec):
        return _generation_targets() + _store_targets(rec) + [
            (experiments, "baseline_run", "vm.baseline_run", None, None),
            (stagecache, "warm_bundle", "stagecache.warm", None, None),
            (Supervisor, "run", "resilience.supervise", None, None),
            (parallel, "compute_cells", "analysis.compute_cells", None, None),
        ]

    def setup(self, rec) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir = _new_dir(self.scratch, "store-")
        get_store(self.store_dir)

    def reset(self) -> None:
        """A fresh store, cold process caches and no parked pool."""
        get_pool_manager().shutdown_all()
        reset_process_caches()
        self.setup(None)

    def _sweep(self, rec, window: Window, parts: list | None = None):
        """One pass of the Figure 7 (a)+(b) sweep; None on failure.

        With *parts*, each of the two calls appends its (start, end)
        and is followed by a host-speed probe."""
        rows = []
        for rows_fn in (parallel.fig7_size_rows, parallel.fig7_time_rows):
            started = time.perf_counter()
            try:
                rows.append(rows_fn(self.names, scale=self.size.scale))
            except Exception:
                # CellFailure and anything else: counted, not fatal.
                _fail(f"fig7_sweep {rows_fn.__name__}")
                rows = None
            if parts is not None:
                parts.append((started, time.perf_counter()))
                self.clock.probe()
            rollup = parallel.last_sweep_rollup() or {}
            window.attempted += rollup.get("cells", 0)
            window.failed += rollup.get("failed", 0)
            rec.add("analysis.cells_computed", rollup.get("computed", 0))
            rec.add("analysis.cache_hits", rollup.get("cache_hits", 0))
            if rows is None:
                return None
        return rows

    def window(self, rec, short: bool = False) -> Window:
        """``size.rounds`` rounds, one when *short*, of a cold sweep
        against a fresh store followed by ``size.warm_batches`` batches
        of warm reruns; the cold time is the median over rounds, and
        each batch gives one latency per rerun."""
        window = Window()
        registry = _METRICS.snapshot()["counters"]
        colds: list[float] = []
        #: (start, end) of every warm batch
        batches: list = []
        expected = None
        for round_index in range(1 if short else self.size.rounds):
            if round_index:
                self.reset()
            self.clock.probe()
            with use_settings(cache_dir=str(self.store_dir),
                              bench_workers=WORKERS):
                parts: list = []
                cold = self._sweep(rec, window, parts)
                colds.append(sum(self.clock.scale(end - start, start, end)
                                 for start, end in parts))
                if cold is None:
                    break
                if expected is None:
                    expected = cold
                    window.ratios = [1.0 - row.reduction for row in cold[0]]
                    window.slowdowns = [row.relative_time for row in cold[1]]
                    if self.tamper:
                        expected = [cold[0][:-1], cold[1]]
                for _ in range(self.size.warm_batches):
                    # Within a second the host's speed moved by up to 2x,
                    # so each batch gets a probe next to it.
                    self.clock.probe()
                    begun = time.perf_counter()
                    same = all(self._sweep(rec, window) == expected
                               for _ in range(WARM_BATCH))
                    batches.append((begun, time.perf_counter()))
                    if not same:
                        print("FAILED fig7_sweep: warm rows differ from cold "
                              "rows", flush=True)
                        window.failed += 1
                        break
                self.clock.probe()
        window.latencies = [
            self.clock.scale((end - begun) / WARM_BATCH, begun, end)
            for begun, end in batches
        ]
        if rec.enabled:
            after = _METRICS.snapshot()["counters"]
            for key in ("pool.acquire.fresh", "pool.acquire.reuse"):
                rec.add(key, after.get(key, 0) - registry.get(key, 0))
            rec.add("store.usage_bytes",
                    get_store(self.store_dir).stats()["usage_bytes"])
        if expected is None:
            window.failed = max(window.failed, 1)
            return window
        window.ops = len(window.ratios) + len(window.slowdowns)
        window.ops_seconds = statistics.median(colds)
        window.detail = {
            "sweep_cold_s": (window.ops_seconds, "s"),
            "sweep_warm_s": (statistics.median(window.latencies), "s"),
            "warm_reruns": (len(window.latencies) * WARM_BATCH, "count"),
            "cells": (window.ops, "count"),
        }
        return window

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        get_pool_manager().shutdown_all()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


# -- service ------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSize:
    scale: float = 0.15
    programs: tuple = SHAPES
    #: Fewest jobs in a window: ``op_p90_s`` needs ten beyond it.
    min_jobs: int = 100


#: Jobs a window submits per second of ``--seconds``: about the
#: service's throughput on the machine the benchmark was sized on.  The
#: window runs this fixed number of jobs, the first specs of the stream,
#: not as many as fit in the time: then a faster host or commit does the
#: same work, and the job mix, ``size_ratio`` and the memory the
#: package's per-spec caches hold do not move with throughput.
JOB_RATE = 5.0

#: θ of the warm-up jobs; the stream's θ are log-uniform in [1e-4, 1]
#: and so never equal it.
WARMUP_THETA = 0.0

#: Completed specs squashed again directly after the window.
RECHECKS = 3

#: Seconds a client waits for one job's result.
JOB_TIMEOUT = 120.0


def spec_key(payload: dict) -> str:
    return f"{payload['name']}@{payload['theta']!r}"


def image_digest(result, scratch: pathlib.Path) -> str:
    """SHA-256 over a squash result's saved image and descriptor, the
    witness a squash job returns."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        digest = hashlib.sha256()
        for path in result.save(pathlib.Path(tmp) / "image"):
            digest.update(pathlib.Path(path).read_bytes())
    return digest.hexdigest()


class Service:
    name = "service"

    def __init__(self, seed: int, seconds: float, scratch: pathlib.Path,
                 size: ServiceSize = ServiceSize(), tamper=False):
        self.size = size
        self.jobs = max(size.min_jobs, round(seconds * JOB_RATE))
        self.scratch = scratch
        self.tamper = tamper
        self.seed = seed
        self.programs = list(size.programs)
        self._stream_seed = random.Random(seed).getrandbits(32)
        self.rec = None
        self.engine = None
        self.server = None
        self.store_dir: pathlib.Path | None = None
        #: (stream position, payload, result) of every completed job.
        self.done: list = []
        self.clock = RawClock()

    def describe(self) -> str:
        return (f"scale={self.size.scale} clients={WORKERS} "
                f"engine_workers={WORKERS} jobs={self.jobs} "
                f"programs: {' '.join(self.programs)}")

    def targets(self, rec):
        return _generation_targets() + _store_targets(rec) + [
            (experiments, "squash", "pipeline.squash", None,
             _stage_recorder(rec)),
            (api.SquashResult, "save", "program.image_save", None, None),
            (JobJournal, "record", "service.journal",
             lambda args: spec_key(args[1].spec.payload), None),
        ]

    def _payload(self, name: str, theta: float) -> dict:
        return {"name": name, "theta": theta, "scale": self.size.scale}

    def _stream(self):
        """The seeded stream of distinct (program, θ) squash payloads:
        each round visits every program once in a seeded order, with θ
        log-uniform in [1e-4, 1]."""
        rng = random.Random(self._stream_seed)
        seen = set()
        while True:
            for name in rng.sample(self.programs, len(self.programs)):
                payload = self._payload(name, 10.0 ** rng.uniform(-4.0, 0.0))
                if spec_key(payload) not in seen:
                    seen.add(spec_key(payload))
                    yield payload

    def _execute(self, spec: JobSpec) -> dict:
        with self.rec.span("service.execute", spec_key(spec.payload)):
            return execute_job(spec)

    def _stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.engine is not None:
            self.engine.stop()
            self.engine = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def setup(self, rec) -> None:
        self._stop()
        reset_process_caches()
        self.rec = rec
        self.store_dir = _new_dir(self.scratch, "store-")
        with use_settings(cache_dir=str(self.store_dir)):
            config = replace(ServiceConfig.from_settings(), workers=WORKERS)
            self.engine = JobEngine(config, execute_fn=self._execute).start()
        self.server = serve_http(self.engine, host="127.0.0.1", port=0)
        parent = rec.current() if rec.enabled else None
        with api.ServiceClient(self.server.url) as client:
            for name in self.programs:
                payload = self._payload(name, WARMUP_THETA)
                rec.bind(spec_key(payload), parent)
                client.submit(kind="squash", payload=payload,
                              tenant="warmup").result(
                    timeout=JOB_TIMEOUT)

    def reset(self) -> None:
        experiments.squash_benchmark.cache_clear()

    def _client(self, index: int, state: dict, window: Window) -> None:
        rec = self.rec
        with api.ServiceClient(self.server.url) as client:
            while True:
                with state["lock"]:
                    if window.attempted >= state["jobs"]:
                        return
                    position = window.attempted
                    payload = next(state["stream"])
                    window.attempted += 1
                key = spec_key(payload)
                with rec.span("service.job", key,
                              parent=state["parent"]) as span_id:
                    rec.bind(key, span_id)
                    started = time.perf_counter()
                    try:
                        with rec.span("service.submit"):
                            handle = client.submit(
                                kind="squash", payload=payload,
                                tenant=f"client{index}",
                            )
                        result = handle.result(timeout=JOB_TIMEOUT)
                    except ServiceOverloaded:
                        _fail(f"service job {key} shed")
                        with state["lock"]:
                            window.failed += 1
                            state["shed"] += 1
                        continue
                    except Exception:
                        # Typed errors, expiries and transport failures:
                        # counted, and the client keeps going.
                        _fail(f"service job {key}")
                        with state["lock"]:
                            window.failed += 1
                        continue
                    latency = time.perf_counter() - started
                with state["lock"]:
                    window.latencies.append(latency)
                    self.done.append((position, payload, result))

    def window(self, rec, short: bool = False) -> Window:
        """Closed loop over the first ``jobs`` specs of the stream, or
        the first third of them when *short*: the traced run's three
        short windows together do about one plain window's work."""
        window = Window()
        self.rec = rec
        self.done = []
        retries = _METRICS.counter("service.client.retries").value
        state = {
            "lock": threading.Lock(),
            "stream": self._stream(),
            "shed": 0,
            "parent": rec.current() if rec.enabled else None,
            "jobs": max(1, self.jobs // 3) if short else self.jobs,
        }
        # The clients and the engine leave no gap between jobs to probe
        # in, so the host is probed from another process meanwhile.
        with self.clock.alongside():
            started = time.perf_counter()
            threads = [
                threading.Thread(target=self._client,
                                 args=(index, state, window),
                                 name=f"bench-client{index}")
                for index in range(WORKERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ended = time.perf_counter()
        elapsed = ended - started
        window.latencies = [self.clock.scale(latency, started, ended)
                            for latency in window.latencies]
        jobs = len(self.done)
        window.ops = jobs
        window.ops_seconds = self.clock.scale(elapsed, started, ended)
        window.ratios = [r["total_words"] / r["baseline_words"]
                         for _, r in self._in_stream_order()]
        rec.add("service.shed", state["shed"])
        rec.add("service.client_retries",
                _METRICS.counter("service.client.retries").value - retries)
        if rec.enabled:
            rec.add("store.usage_bytes",
                    get_store(self.store_dir).stats()["usage_bytes"])
        window.detail = {
            "job_p50_s": (quantile(window.latencies, 0.5), "s"),
            "job_p90_s": (quantile(window.latencies, 0.9), "s"),
            "jobs_per_s": (window.rate, "1/s"),
            "jobs": (jobs, "count"),
            "window_s": (elapsed, "s"),
        }
        return window

    def _in_stream_order(self) -> list:
        """(payload, result) of every completed job, in stream order,
        which does not depend on which client finished first."""
        return [(payload, result)
                for _, payload, result in sorted(self.done,
                                                 key=lambda job: job[0])]

    def finish(self) -> tuple[int, int]:
        """Squash a seeded sample of the completed specs again, directly
        through the facade, and require the same image digest."""
        done = self._in_stream_order()
        rng = random.Random(self.seed ^ 0x5EED)
        sample = rng.sample(done, min(RECHECKS, len(done)))
        experiments.squash_benchmark.cache_clear()
        failed = 0
        for index, (payload, result) in enumerate(sample):
            expected = result["image_digest"]
            if self.tamper and index == 0:
                expected = "0" * len(expected)
            direct = api.squash_benchmark(
                payload["name"], payload["scale"],
                api.SquashConfig(theta=payload["theta"]),
            )
            if image_digest(direct, self.scratch) != expected:
                print(f"FAILED service {spec_key(payload)}: job image differs "
                      "from a direct squash", flush=True)
                failed += 1
        return len(sample), failed

    def close(self) -> None:
        self._stop()


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


WORKLOADS = {cls.name: cls for cls in (SquashRun, Fig7Sweep, Service)}
