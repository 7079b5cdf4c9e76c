"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table1
    python -m repro fig6 --scale 0.5
    python -m repro fig7b --names adpcm gsm
    python -m repro squash gsm --theta 0.01 --run
    python -m repro squash gsm --save /tmp/gsm
    python -m repro squash gsm --explain
    python -m repro stages --names adpcm gsm
    python -m repro verify /tmp/gsm
    python -m repro trace /tmp/gsm --out /tmp/gsm.trace.json
    python -m repro trace gsm --theta 0.01
    python -m repro metrics gsm
    python -m repro faultsweep --names adpcm --faults 500 --seed 1
    python -m repro chaossweep --names adpcm --faults 60 --seed 1
    python -m repro store stats
    python -m repro store gc
    python -m repro store verify
    python -m repro storechaos --names adpcm --scale 0.2 --seed 1
    python -m repro serve --http 8737 --idle-exit 5
    python -m repro submit squash --names gsm --theta 0.01 --wait 60
    python -m repro jobs
    python -m repro servechaos --scale 0.2 --seed 1
    python -m repro all

Every command goes through the stable facade (:mod:`repro.api`); the
figure sweeps that the facade models (`fig6`, `fig7a`, `fig7b`) call
:func:`repro.api.sweep` and `fig3` calls the same serial sweep driver
(:mod:`repro.analysis.parallel`), `squash`/`stages`/`trace`/`metrics` call
:func:`repro.api.squash_benchmark`, and `verify` calls
:func:`repro.api.verify`.  The serving trio (`serve`, `submit`,
`jobs`) runs the async job layer of :mod:`repro.service` behind its
HTTP front end; `servechaos` storms it.
"""

from __future__ import annotations

import argparse
import sys

from repro import api
from repro.analysis import ascii_table
from repro.analysis.experiments import (
    FIG3_BOUNDS,
    FIG3_THETAS,
    FIG6_THETAS,
    FIG7_THETAS,
    baseline_run,
    buffer_safe_stats,
    compression_ratio_stats,
    fig4_rows,
    restore_stub_stats,
    squashed_run,
)
from repro.analysis.stats import percent
from repro.api import SquashConfig, SweepSpec, squash_benchmark
from repro.workloads.mediabench import MEDIABENCH


def _cmd_table1(args) -> None:
    from repro.analysis.experiments import table1_rows

    rows = table1_rows(names=args.names, scale=args.scale)
    print(
        ascii_table(
            ["program", "input", "squeeze", "reduction", "paper input",
             "paper squeeze"],
            [
                [r.name, r.input_size, r.squeeze_size,
                 percent(r.reduction), r.paper_input, r.paper_squeeze]
                for r in rows
            ],
            title=f"Table 1 (scale={args.scale})",
        )
    )


def _cmd_fig3(args) -> None:
    from repro.analysis.parallel import fig3_rows

    rows = fig3_rows(
        names=args.names, scale=args.scale,
        bounds=FIG3_BOUNDS, thetas=FIG3_THETAS, parallel=False,
    )
    print(
        ascii_table(
            ["K (bytes)", "theta (paper)", "relative size"],
            [
                [r.bound_bytes, r.theta_paper, f"{r.relative_size:.4f}"]
                for r in rows
            ],
            title=f"Figure 3 (scale={args.scale})",
        )
    )


def _cmd_fig4(args) -> None:
    rows = fig4_rows(names=args.names, scale=args.scale)
    print(
        ascii_table(
            ["theta (paper)", "theta (ours)", "cold", "compressible"],
            [
                [r.theta_paper, r.theta_ours,
                 percent(r.cold_fraction), percent(r.compressible_fraction)]
                for r in rows
            ],
            title=f"Figure 4 (geo-mean over {len(args.names)} programs)",
        )
    )


def _cmd_fig6(args) -> None:
    rows = api.sweep(
        SweepSpec(names=args.names, scale=args.scale, kind="size")
    )
    print(
        ascii_table(
            ["program", "theta (paper)", "theta (ours)", "reduction"],
            [
                [r.name, r.theta_paper, r.theta_ours, percent(r.reduction)]
                for r in rows
            ],
            title=f"Figure 6 (scale={args.scale})",
        )
    )


def _cmd_fig7a(args) -> None:
    rows = api.sweep(
        SweepSpec(
            names=args.names, scale=args.scale,
            thetas=FIG7_THETAS, kind="size",
        )
    )
    print(
        ascii_table(
            ["program", "theta (paper)", "reduction"],
            [[r.name, r.theta_paper, percent(r.reduction)] for r in rows],
            title=f"Figure 7(a) (scale={args.scale})",
        )
    )


def _cmd_fig7b(args) -> None:
    rows = api.sweep(
        SweepSpec(names=args.names, scale=args.scale, kind="time")
    )
    print(
        ascii_table(
            ["program", "theta (paper)", "relative time"],
            [
                [r.name, r.theta_paper, f"{r.relative_time:.3f}x"]
                for r in rows
            ],
            title=f"Figure 7(b) (scale={args.scale})",
        )
    )


def _cmd_stubs(args) -> None:
    rows = restore_stub_stats(args.names, scale=args.scale, theta_paper=1e-4)
    print(
        ascii_table(
            ["program", "compile-time fraction", "max live", "created"],
            [
                [r.name, percent(r.compile_time_fraction),
                 r.max_live_stubs, r.stubs_created]
                for r in rows
            ],
            title="Restore stubs (Section 2.2)",
        )
    )


def _cmd_ratio(args) -> None:
    rows = compression_ratio_stats(args.names, scale=args.scale)
    print(
        ascii_table(
            ["program", "compressed/original", "stream only"],
            [
                [r.name, percent(r.ratio), percent(r.stream_ratio)]
                for r in rows
            ],
            title="Compression factor at θ=1 (Section 3)",
        )
    )


def _cmd_safe(args) -> None:
    rows = buffer_safe_stats(args.names, scale=args.scale)
    print(
        ascii_table(
            ["program", "safe functions", "safe call sites"],
            [
                [r.name, percent(r.safe_function_fraction),
                 percent(r.safe_call_fraction)]
                for r in rows
            ],
            title="Buffer-safe analysis (Section 6.1)",
        )
    )


def _squash_config(args) -> SquashConfig:
    return SquashConfig(
        theta=args.theta, codec_variant=args.variant
    ).with_buffer_bound(args.bound)


def _selected_names(args) -> tuple[str, ...] | None:
    """The positional benchmark, else the ``--names`` entries; None
    (after saying why) when the positional name is no benchmark."""
    if args.prefix is None:
        return args.names
    if args.prefix not in MEDIABENCH:
        print(f"{args.command}: unknown benchmark {args.prefix!r}")
        return None
    return (args.prefix,)


def _cmd_squash(args) -> int:
    """Squash the positional benchmark, or each ``--names`` entry in
    turn."""
    names = _selected_names(args)
    if names is None:
        return 2
    if args.save and len(names) != 1:
        print("squash: --save takes exactly one benchmark")
        return 2
    for name in names:
        _squash_one(name, args)
    return 0


def _squash_one(name: str, args) -> None:
    config = _squash_config(args)
    result = squash_benchmark(name, args.scale, config)
    fp = result.footprint
    print(f"{name} at theta={args.theta}, K={args.bound} bytes:")
    print(f"  baseline {result.baseline_words} -> {fp.total} words "
          f"({percent(result.reduction)} reduction)")
    print(f"  regions {len(result.info.regions)}, "
          f"entry stubs {result.info.entry_stub_count}, "
          f"xcall sites {result.info.xcall_sites}, "
          f"gamma {result.info.gamma_measured:.2f}")
    if args.save:
        image_path, meta_path = result.save(args.save)
        print(f"  saved {image_path} + {meta_path}")
    if args.run:
        base = baseline_run(name, args.scale)
        run = squashed_run(name, args.scale, config)
        ok = run.output == base.output
        print(f"  timing run: {run.cycles / base.cycles:.3f}x relative "
              f"time, outputs {'match' if ok else 'DIVERGE'}")
    if args.explain and result.stage_report is not None:
        print()
        print(result.stage_report.render())
    if args.explain:
        _print_codec_contexts(result)


def _print_codec_contexts(result) -> None:
    """Per-context table stats of a squashed image (``--explain``)."""
    from repro.isa.fields import FieldKind

    integrity = result.descriptor.integrity
    contexts = integrity.contexts if integrity is not None else []
    if not contexts:
        return
    print()
    rows = []
    for record in contexts:
        try:
            kind_name = FieldKind(record.kind).name
        except ValueError:
            kind_name = str(record.kind)
        rows.append([
            kind_name, record.ctx,
            record.end_bit - record.start_bit,
            f"{record.crc & 0xFFFFFFFF:#010x}",
        ])
    print(
        ascii_table(
            ["stream", "context", "table bits", "seal"],
            rows,
            title=f"codec context tables ({len(rows)})",
        )
    )


def _print_choices() -> None:
    """Every named choice of the pipeline."""
    from repro.compress.codec import CODEC_VARIANTS, DECODE_BACKENDS
    from repro.core.descriptor import BufferStrategy, RestoreStubScheme
    from repro.core.plan import REGION_STRATEGIES

    print("choices:")
    for label, names in (
        ("region strategies", REGION_STRATEGIES),
        ("buffer strategies", [member.value for member in BufferStrategy]),
        ("restore schemes", [member.value for member in RestoreStubScheme]),
        ("codec variants", CODEC_VARIANTS),
        ("decode backends", DECODE_BACKENDS),
    ):
        print(f"  {label}: {', '.join(sorted(names))}")


def _cmd_stages(args) -> int:
    """The pipeline's named choices, then per-stage wall time and
    counters for the positional benchmark, or each ``--names`` entry."""
    names = _selected_names(args)
    if names is None:
        return 2
    _print_choices()
    print()
    for name in names:
        config = _squash_config(args)
        result = squash_benchmark(name, args.scale, config)
        print(f"{name} (theta={args.theta}, scale={args.scale}):")
        if result.stage_report is not None:
            print(result.stage_report.render())
        print()
    return 0


def _cmd_verify(args) -> int:
    if not args.prefix:
        print("verify: missing image prefix (repro verify <prefix>)")
        return 2
    report = api.verify(args.prefix)
    print(report.render())
    return 0 if report.ok else 1


def _traced_outcome(args):
    """Run the trace target — a saved-image prefix or a benchmark
    name — and return the :class:`repro.api.RunOutcome`."""
    from repro.workloads.mediabench import mediabench_program

    target = args.prefix
    if target in MEDIABENCH:
        config = _squash_config(args)
        result = squash_benchmark(target, args.scale, config)
        bench = mediabench_program(target, scale=args.scale)
        return api.run(
            result,
            api.RunSpec(
                input_words=tuple(bench.timing_input),
                max_steps=500_000_000,
            ),
        )
    return api.run(target)


def _cmd_trace(args) -> int:
    """Execute a squashed image with tracing armed and export the
    deterministic runtime event stream."""
    import json

    from repro.obs.trace import (
        chrome_trace,
        enable_tracing,
        write_chrome_trace,
        write_jsonl,
    )

    if not args.prefix:
        print("trace: missing target (repro trace <prefix-or-benchmark>)")
        return 2
    tracer = enable_tracing()
    tracer.clear()
    outcome = _traced_outcome(args)
    # Runtime events are stamped with modelled cycles and replay
    # byte-identically; host-side spans (wall-clock) only appear with
    # --full, keeping the default export deterministic.
    events = tracer.events() if args.full else tracer.events("runtime")
    if args.jsonl:
        write_jsonl(args.jsonl, events)
        print(f"trace: {len(events)} events -> {args.jsonl}")
    if args.out:
        write_chrome_trace(args.out, events)
        print(f"trace: {len(events)} events -> {args.out}")
    elif not args.jsonl:
        print(json.dumps(chrome_trace(events)))
    if tracer.dropped:
        print(f"trace: ring buffer dropped {tracer.dropped} events "
              f"(raise REPRO_TRACE_BUFFER)", file=sys.stderr)
    print(
        f"trace: {len(events)} events, {outcome.cycles} cycles, "
        f"exit {outcome.exit_code}",
        file=sys.stderr,
    )
    return 0


def _cmd_metrics(args) -> int:
    """Render the unified metrics registry (optionally populating it
    by squashing and running one benchmark first)."""
    import json

    from repro.obs.metrics import get_registry

    if args.prefix:
        if args.prefix not in MEDIABENCH:
            print(f"metrics: unknown benchmark {args.prefix!r}")
            return 2
        _traced_outcome(args)
    registry = get_registry()
    if args.json:
        print(json.dumps(registry.snapshot(), sort_keys=True))
    else:
        print(registry.render())
        from repro.analysis.parallel import last_sweep_rollup

        rollup = last_sweep_rollup()
        if rollup:
            print()
            print(
                f"last sweep: {rollup['cells']} cells "
                f"({rollup['cache_hits']} cached, "
                f"{rollup['computed']} computed, "
                f"{rollup['failed']} failed)"
            )
    return 0


def _cmd_faultsweep(args) -> int:
    from repro.faultinject import sweep_program

    code = 0
    for name in args.names:
        report = sweep_program(
            name, args.scale, faults=args.faults, seed=args.seed,
            theta=args.theta, bound=args.bound,
            codec_variant=args.variant,
        )
        print(f"{name}:")
        print(report.render())
        if not report.ok:
            code = 1
    return code


def _cmd_chaossweep(args) -> int:
    from repro.faultinject import run_chaos_sweep

    code = 0
    for name in args.names:
        report = run_chaos_sweep(
            name,
            scale=args.scale,
            faults=args.faults,
            seed=args.seed,
            workers=args.workers,
            deadline=args.deadline,
        )
        print(report.render())
        if not report.ok:
            code = 1
    return code


def _cmd_store(args) -> int:
    """Inspect or maintain the unified artifact store
    (``repro store stats|gc|verify``)."""
    import json

    action = args.prefix or "stats"
    if action == "stats":
        stats = api.store_stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True))
            return 0
        print(f"artifact store at {stats['root']}:")
        print(f"  refs: {stats['refs']}  "
              + "  ".join(f"{ns} {n}" for ns, n in
                          stats["per_namespace"].items()))
        quota = stats["quota_bytes"]
        print(f"  usage: {stats['usage_bytes']}B"
              + (f" / {quota}B quota" if quota else " (no quota)"))
        print(f"  breaker: {'OPEN' if stats['breaker_open'] else 'closed'}")
        return 0
    if action == "gc":
        report = api.store_gc()
        print("store gc: "
              f"{report['stale_temps']} stale temps, "
              f"{report['corrupt_refs']} corrupt refs removed, "
              f"{report['evicted']}B evicted to quota")
        return 0
    if action == "verify":
        report = api.store_verify()
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            corrupt = sum(report["corrupt"].values())
            print(f"store verify: {report['ok']}/{report['refs']} refs ok"
                  + (f", corrupt by reason {report['corrupt']}"
                     if corrupt else "")
                  + f"; usage {report['usage_bytes']}B")
        return 1 if sum(report["corrupt"].values()) else 0
    print(f"store: unknown action {action!r} (stats|gc|verify)")
    return 2


def _cmd_storechaos(args) -> int:
    from repro.faultinject import run_store_chaos

    code = 0
    for name in args.names:
        report = run_store_chaos(
            name, scale=args.scale, seed=args.seed,
            quota_bytes=args.quota,
        )
        print(report.render())
        if not report.ok:
            code = 1
    return code


def _parse_http_endpoint(raw: str) -> tuple[str | None, int]:
    """``[HOST:]PORT`` -> (host or None, port)."""
    host, _, port = raw.rpartition(":")
    try:
        return (host or None), int(port)
    except ValueError:
        raise SystemExit(
            f"serve: --http takes [HOST:]PORT, not {raw!r}"
        ) from None


def _cmd_serve(args) -> int:
    """Run the job service behind its JSON front end on ``--http
    [HOST:]PORT`` (default: ``REPRO_SERVICE_HTTP_HOST`` and
    ``REPRO_SERVICE_HTTP_PORT``) until signalled (SIGTERM/SIGINT
    drain gracefully), *--max-jobs* terminal jobs, or *--idle-exit*
    seconds of quiet."""
    import signal
    import threading

    from repro.service import (
        HttpServiceServer,
        JobEngine,
        ServiceConfig,
        serve_forever,
    )

    host = port = None
    if args.http is not None:
        host, port = _parse_http_endpoint(args.http)
    engine = JobEngine(ServiceConfig.from_settings())
    # Bind first: a taken port fails before any journaled job resumes.
    http_server = HttpServiceServer(engine, host=host, port=port)
    engine.start(recover=True)
    http_server.start()
    stop_flag = threading.Event()

    def _request_stop(signum, frame):
        stop_flag.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    print(
        f"serve: up (workers {engine.config.workers}, "
        f"queue depth {engine.config.queue_depth}, "
        f"tenant cap {engine.config.tenant_cap}, "
        f"http {http_server.url})",
        file=sys.stderr,
    )
    try:
        terminal = serve_forever(
            engine,
            max_jobs=args.max_jobs,
            idle_exit=args.idle_exit,
            should_stop=stop_flag.is_set,
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        # Drain before closing the socket: requests still in flight
        # get their typed answers (results, or draining sheds).
        engine.stop()
        http_server.stop()
    print(f"serve: drained after {terminal} terminal jobs",
          file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    """Submit one job to a running ``repro serve`` process.

    The positional argument picks the job kind (default ``squash``);
    the request goes through the typed :class:`ServiceClient` over
    HTTP to ``--url`` (default: ``REPRO_SERVICE_HTTP_HOST`` and
    ``REPRO_SERVICE_HTTP_PORT``).  ``--wait SECONDS`` blocks for the
    result.
    """
    import json

    from repro import settings
    from repro.errors import SquashError
    from repro.service import JobSpec, ServiceClient

    kind = args.prefix or "squash"
    if kind == "squash":
        payload = {
            "name": args.names[0], "theta": args.theta,
            "scale": args.scale, "bound": args.bound,
        }
    elif kind == "sweep":
        payload = {"names": list(args.names), "scale": args.scale,
                   "sweep_kind": "size"}
    elif kind == "verify":
        if not args.save:
            print("submit: verify jobs need --save PREFIX")
            return 2
        payload = {"prefix": args.save}
    else:
        print(f"submit: unknown job kind {kind!r} (squash|sweep|verify)")
        return 2
    spec = JobSpec(
        kind=kind, payload=payload, tenant=args.tenant,
        priority=args.priority, deadline=args.deadline_s,
    )
    url = args.url
    if url is None:
        resolved = settings.current()
        url = (f"http://{resolved.service_http_host}:"
               f"{resolved.service_http_port}")
    with ServiceClient(url) as client:
        handle = client.submit(spec)
        print(f"submitted {handle.id} ({kind}, tenant={args.tenant}, "
              f"priority={args.priority}, url={url})")
        if args.wait is None:
            return 0
        try:
            result = handle.result(timeout=args.wait)
        except SquashError as exc:
            print(f"{handle.id}: {type(exc).__name__}: {exc}")
            return 1
        except TimeoutError as exc:
            print(f"{handle.id}: timeout: {exc}")
            return 1
    print(f"{handle.id}: done")
    print(json.dumps(result or {}, sort_keys=True))
    return 0


def _cmd_jobs(args) -> int:
    """List every journaled job (the crash-safe service history)."""
    from repro.service import JobJournal

    records = JobJournal().load_all()
    if not records:
        print("jobs: journal is empty")
        return 0
    rows = []
    for record in sorted(
        records.values(), key=lambda r: (r.get("wall_time") or 0.0)
    ):
        spec = record.get("spec") or {}
        rows.append([
            record.get("id", "?")[:12],
            record.get("state", "?"),
            spec.get("kind", "?"),
            spec.get("tenant", "?"),
            spec.get("priority", "?"),
            "yes" if record.get("recovered") else "",
        ])
    print(
        ascii_table(
            ["job", "state", "kind", "tenant", "priority", "recovered"],
            rows,
            title=f"service journal ({len(rows)} jobs)",
        )
    )
    return 0


def _cmd_servechaos(args) -> int:
    from repro.faultinject import run_serve_chaos

    report = run_serve_chaos(
        scale=args.scale, seed=args.seed, scenarios=args.scenarios,
    )
    print(report.render())
    return 0 if report.ok else 1


_COMMANDS = {
    "table1": _cmd_table1,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig6": _cmd_fig6,
    "fig7a": _cmd_fig7a,
    "fig7b": _cmd_fig7b,
    "stubs": _cmd_stubs,
    "ratio": _cmd_ratio,
    "safe": _cmd_safe,
    "squash": _cmd_squash,
    "stages": _cmd_stages,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "faultsweep": _cmd_faultsweep,
    "chaossweep": _cmd_chaossweep,
    "store": _cmd_store,
    "storechaos": _cmd_storechaos,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "servechaos": _cmd_servechaos,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Profile-Guided Code "
        "Compression' (PLDI 2002).",
    )
    parser.add_argument(
        "command",
        choices=[*_COMMANDS, "all"],
        help="experiment to regenerate",
    )
    parser.add_argument(
        "prefix", nargs="?", default=None,
        help="saved-image prefix or benchmark name "
        "(verify/trace/metrics commands; benchmark name for squash)",
    )
    parser.add_argument(
        "--names", nargs="*", default=list(MEDIABENCH),
        help="benchmark subset (default: all eleven)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="program scale relative to Table 1 (default 0.5)",
    )
    parser.add_argument(
        "--theta", type=float, default=0.0,
        help="cold-code threshold for the squash command",
    )
    parser.add_argument(
        "--bound", type=int, default=512,
        help="buffer bound in bytes for the squash command",
    )
    parser.add_argument(
        "--variant", default="",
        help="codec variant, one of those `stages` lists (squash/stages/"
        "faultsweep commands; default: the config's own codec, or "
        "REPRO_CODEC_VARIANT)",
    )
    parser.add_argument(
        "--run", action="store_true",
        help="also execute the squashed image (squash command)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the per-stage pipeline report (squash command)",
    )
    parser.add_argument(
        "--save", default=None, metavar="PREFIX",
        help="save the squashed image to PREFIX.img/.json "
        "(squash command)",
    )
    parser.add_argument(
        "--faults", type=int, default=100,
        help="faults to inject per benchmark "
        "(faultsweep/chaossweep commands)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (faultsweep/chaossweep commands)",
    )
    parser.add_argument(
        "--deadline", type=float, default=15.0,
        help="per-cell supervisor deadline in seconds "
        "(chaossweep command)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size (chaossweep command; default: CPU count)",
    )
    parser.add_argument(
        "--quota", type=int, default=32 * 1024,
        help="store quota in bytes for the storechaos command "
        "(default 32768)",
    )
    parser.add_argument(
        "--tenant", default="default",
        help="tenant namespace for the submitted job (submit command)",
    )
    parser.add_argument(
        "--priority", default="batch",
        choices=("interactive", "batch"),
        help="priority class for the submitted job (submit command)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="job deadline in seconds from submission (submit command)",
    )
    parser.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to SECONDS for the job's result (submit command)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after this many terminal jobs (serve command)",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after SECONDS with nothing queued or running "
        "(serve command)",
    )
    parser.add_argument(
        "--http", default=None, metavar="[HOST:]PORT",
        help="bind the JSON HTTP front end on [HOST:]PORT (serve "
        "command; defaults REPRO_SERVICE_HTTP_HOST and "
        "REPRO_SERVICE_HTTP_PORT)",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a running 'repro serve' (submit command; "
        "default built from REPRO_SERVICE_HTTP_HOST and "
        "REPRO_SERVICE_HTTP_PORT)",
    )
    parser.add_argument(
        "--scenarios", nargs="*", default=None,
        help="serve-chaos scenario subset (servechaos command; "
        "default: all)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the Chrome trace-event JSON to PATH "
        "(trace command; default: stdout)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the trace as JSON Lines to PATH (trace command)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the metrics snapshot as JSON (metrics command)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="include wall-clock host spans in the trace export "
        "(trace command; the default exports only the deterministic "
        "runtime events)",
    )
    args = parser.parse_args(argv)
    args.names = tuple(args.names)

    code = 0
    try:
        if args.command == "all":
            for name, command in _COMMANDS.items():
                # Sub-commands needing extra arguments don't batch.
                if name in (
                    "squash", "stages", "verify", "trace", "metrics",
                    "faultsweep", "chaossweep", "store", "storechaos",
                    "serve", "submit", "jobs", "servechaos",
                ):
                    continue
                command(args)
                print()
        else:
            code = _COMMANDS[args.command](args) or 0
    except BrokenPipeError:  # e.g. `repro fig6 | head`
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
