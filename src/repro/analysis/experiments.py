"""Drivers for every table and figure in the paper's evaluation.

θ mapping.  The paper's thresholds are fractions of the *total dynamic
instruction count*; its profiling runs execute 10^8-10^9 instructions,
ours execute ~10^6 (a pure-Python VM).  A frequency class of
once-executed code that is x% of a program's static size therefore has
a relative dynamic weight ~100x larger here, so the θ axis is shifted:
we evaluate each paper threshold θ_p at θ_ours = min(1, 100 · θ_p),
and report both values.  θ = 0 and θ = 1 are fixed points of the
mapping.  EXPERIMENTS.md discusses the effect.

The θ-grid sweeps of Figures 3, 6 and 7 are driven by
:mod:`repro.analysis.parallel` from the row types and grids declared
here; the drivers below compute the remaining tables, Figure 4 and the
in-text statistics directly, memoising per process (``lru_cache``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, wraps

from repro import settings as _settings
from repro.analysis.stats import geometric_mean
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.coldcode import cold_code_stats
from repro.core.metrics import baseline_code_words
from repro.core.pipeline import SquashConfig, SquashResult
from repro.core.pipeline import squash_program as squash
from repro.vm.machine import Machine, RunResult
from repro.workloads.mediabench import MEDIABENCH, mediabench_program

#: Ratio between the paper's profiling-run length and ours.
THETA_SCALE = 100.0

#: Paper-nominal θ grids of Figure 6 and Figure 7.
FIG6_THETAS = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1.0)
FIG7_THETAS = (0.0, 1e-5, 5e-5)
#: Buffer bounds (bytes) swept in Figure 3, and its three thresholds.
FIG3_BOUNDS = (64, 128, 256, 512, 1024, 2048)
FIG3_THETAS = (0.0, 1e-5, 1e-4)


def map_theta(theta_paper: float) -> float:
    """Our θ equivalent of a paper-nominal threshold."""
    if theta_paper <= 0.0:
        return 0.0
    return min(1.0, theta_paper * THETA_SCALE)


#: Results :func:`squash_benchmark` keeps.  The in-process drivers
#: touch at most six configurations per benchmark -- the five distinct
#: θ of the Figure 6 grid after :func:`map_theta`, plus the compile-time
#: restore scheme of ``stubs`` -- so ``repro all`` over every benchmark
#: still hits every pair it reuses, while a long-running service keeps
#: only its most recent results instead of every job's.
SQUASH_CACHE_SIZE = 6 * len(MEDIABENCH)


def _keyed_on_variant(cached):
    """*cached*, a memo of ``(name, scale, config)``, called with the
    ``REPRO_CODEC_VARIANT`` setting written into *config*
    (:meth:`SquashConfig.with_default_variant`): results squashed under
    one variant never answer a call made under another.
    ``cache_clear`` and ``cache_info`` are the memo's own."""

    @wraps(cached)
    def keyed(name: str, scale: float, config: SquashConfig):
        variant = _settings.current().codec_variant
        return cached(name, scale, config.with_default_variant(variant))

    keyed.cache_clear = cached.cache_clear
    keyed.cache_info = cached.cache_info
    return keyed


@_keyed_on_variant
@lru_cache(maxsize=SQUASH_CACHE_SIZE)
def squash_benchmark(
    name: str, scale: float, config: SquashConfig
) -> SquashResult:
    """Squash one benchmark at one configuration (cached, LRU, per
    codec variant in effect).

    The baseline size comes from the layout the benchmark already
    holds, so the squeezed program is not validated again."""
    bench = mediabench_program(name, scale=scale)
    return squash(
        bench.squeezed, bench.profile, config,
        baseline_words=baseline_code_words(bench.layout, bench.squeezed),
    )


@lru_cache(maxsize=None)
def baseline_run(name: str, scale: float) -> RunResult:
    """Run the squeezed (uncompressed) benchmark on its timing input."""
    bench = mediabench_program(name, scale=scale)
    machine = Machine(bench.layout.image, input_words=bench.timing_input)
    return machine.run()


@_keyed_on_variant
@lru_cache(maxsize=None)
def squashed_run(
    name: str, scale: float, config: SquashConfig
) -> RunResult:
    """Run the squashed benchmark on its timing input."""
    bench = mediabench_program(name, scale=scale)
    result = squash_benchmark(name, scale, config)
    run, _ = result.run(bench.timing_input, max_steps=500_000_000)
    return run


# -- Table 1 -----------------------------------------------------------------

#: Paper values: name -> (input instrs, squeezed instrs).
TABLE1_PAPER = {
    "adpcm": (18228, 11690),
    "epic": (33880, 24769),
    "g721_dec": (15089, 12008),
    "g721_enc": (15065, 11771),
    "gsm": (29789, 21597),
    "jpeg_dec": (44094, 37042),
    "jpeg_enc": (38701, 32168),
    "mpeg2dec": (37833, 27942),
    "mpeg2enc": (47152, 36062),
    "pgp": (83726, 60003),
    "rasta": (91359, 65273),
}


@dataclass(frozen=True)
class Table1Row:
    name: str
    input_size: int
    squeeze_size: int
    paper_input: int
    paper_squeeze: int

    @property
    def reduction(self) -> float:
        return 1.0 - self.squeeze_size / self.input_size

    @property
    def paper_reduction(self) -> float:
        return 1.0 - self.paper_squeeze / self.paper_input


def table1_rows(
    names: tuple[str, ...] = MEDIABENCH, scale: float = 1.0
) -> list[Table1Row]:
    rows = []
    for name in names:
        bench = mediabench_program(name, scale=scale)
        paper_input, paper_squeeze = TABLE1_PAPER[name]
        rows.append(
            Table1Row(
                name=name,
                input_size=bench.input_size,
                squeeze_size=bench.squeeze_size,
                paper_input=int(paper_input * scale),
                paper_squeeze=int(paper_squeeze * scale),
            )
        )
    return rows


# -- Figure 3: buffer bound sweep ---------------------------------------------


@dataclass(frozen=True)
class Fig3Row:
    bound_bytes: int
    theta_paper: float
    #: Geometric mean of squashed size / squeezed size.
    relative_size: float


# -- Figure 4: cold and compressible code -------------------------------------


@dataclass(frozen=True)
class Fig4Row:
    theta_paper: float
    theta_ours: float
    cold_fraction: float
    compressible_fraction: float


def fig4_rows(
    names: tuple[str, ...] = MEDIABENCH,
    scale: float = 1.0,
    thetas: tuple[float, ...] = FIG6_THETAS,
) -> list[Fig4Row]:
    rows = []
    for theta_paper in thetas:
        theta = map_theta(theta_paper)
        config = SquashConfig(theta=theta)
        cold_fracs = []
        comp_fracs = []
        for name in names:
            bench = mediabench_program(name, scale=scale)
            result = squash_benchmark(name, scale, config)
            stats = cold_code_stats(
                bench.profile, theta, result.info.compressed_blocks
            )
            # Avoid zero fractions in the geometric mean.
            cold_fracs.append(max(stats.cold_fraction, 1e-6))
            comp_fracs.append(max(stats.compressible_fraction, 1e-6))
        rows.append(
            Fig4Row(
                theta_paper=theta_paper,
                theta_ours=theta,
                cold_fraction=geometric_mean(cold_fracs),
                compressible_fraction=geometric_mean(comp_fracs),
            )
        )
    return rows


# -- Figures 6 / 7(a): code-size reduction --------------------------------------


@dataclass(frozen=True)
class SizeRow:
    name: str
    theta_paper: float
    theta_ours: float
    reduction: float


# -- Figure 7(b): execution time -------------------------------------------------


@dataclass(frozen=True)
class TimeRow:
    name: str
    theta_paper: float
    theta_ours: float
    #: Squashed cycles / squeezed cycles on the timing input.
    relative_time: float


# -- In-text experiments ----------------------------------------------------------


@dataclass(frozen=True)
class RestoreStubRow:
    name: str
    #: Compile-time scheme: stub words as a fraction of the
    #: never-compressed code (paper: 13% avg / 20% max at θ=0; 27% avg
    #: at θ=0.01).
    compile_time_fraction: float
    #: Runtime scheme: maximum concurrently-live stubs on the timing
    #: run (paper: at most 9).
    max_live_stubs: int
    stubs_created: int
    stubs_freed: int


def restore_stub_stats(
    names: tuple[str, ...],
    scale: float = 1.0,
    theta_paper: float = 0.0,
) -> list[RestoreStubRow]:
    theta = map_theta(theta_paper)
    rows = []
    for name in names:
        bench = mediabench_program(name, scale=scale)
        ct_config = SquashConfig(
            theta=theta, restore_scheme=RestoreStubScheme.COMPILE_TIME
        )
        ct = squash_benchmark(name, scale, ct_config)
        never = max(1, ct.footprint.never_compressed)
        fraction = ct.footprint.stub_area / never

        rt_config = SquashConfig(theta=theta)
        result = squash_benchmark(name, scale, rt_config)
        _, runtime = result.run(
            bench.timing_input, max_steps=500_000_000
        )
        rows.append(
            RestoreStubRow(
                name=name,
                compile_time_fraction=fraction,
                max_live_stubs=runtime.stats.max_live_stubs,
                stubs_created=runtime.stats.stubs_created,
                stubs_freed=runtime.stats.stubs_freed,
            )
        )
    return rows


@dataclass(frozen=True)
class CompressionRow:
    name: str
    #: Total compressed size (tables + stream) over original words.
    ratio: float
    #: Stream-only ratio (excludes the per-program tables).
    stream_ratio: float


def compression_ratio_stats(
    names: tuple[str, ...],
    scale: float = 1.0,
    config: SquashConfig | None = None,
) -> list[CompressionRow]:
    """Measured compression factor with everything compressed (θ=1).

    The paper reports "approximately 66% of its original size"."""
    config = config or SquashConfig(theta=1.0)
    config = replace(config, theta=1.0)
    rows = []
    for name in names:
        result = squash_benchmark(name, scale, config)
        blob = result.info.blob
        original = max(1, result.info.compressed_original_instrs)
        rows.append(
            CompressionRow(
                name=name,
                ratio=result.info.gamma_measured,
                stream_ratio=(blob.stream_bits / 32.0) / original
                if blob
                else 1.0,
            )
        )
    return rows


@dataclass(frozen=True)
class BufferSafeRow:
    name: str
    #: Buffer-safe functions / all functions.
    safe_function_fraction: float
    #: Calls from compressed code whose callee is buffer-safe.
    safe_call_fraction: float


def buffer_safe_stats(
    names: tuple[str, ...],
    scale: float = 1.0,
    theta_paper: float = 0.0,
) -> list[BufferSafeRow]:
    theta = map_theta(theta_paper)
    rows = []
    for name in names:
        result = squash_benchmark(name, scale, SquashConfig(theta=theta))
        info = result.info
        bench = mediabench_program(name, scale=scale)
        n_functions = max(1, len(bench.squeezed.functions))
        calls = (
            info.safe_calls
            + info.intra_region_calls
            + info.xcall_sites
        )
        rows.append(
            BufferSafeRow(
                name=name,
                safe_function_fraction=len(info.safe_functions) / n_functions,
                safe_call_fraction=info.safe_calls / calls if calls else 0.0,
            )
        )
    return rows
