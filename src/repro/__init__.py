"""Reproduction of *Profile-Guided Code Compression* (Debray & Evans, PLDI 2002).

The package implements the paper's system, ``squash``, on top of a
synthetic Alpha-like RISC substrate built from scratch:

* :mod:`repro.isa` -- the instruction set (typed fields, encoding,
  assembler/disassembler).
* :mod:`repro.program` -- basic blocks, functions, control-flow graphs,
  whole-program IR and image layout.
* :mod:`repro.vm` -- an interpreter with syscalls, basic-block
  profiling, and cycle accounting.
* :mod:`repro.squeeze` -- the `squeeze`-like code compactor the paper
  uses as its baseline (unreachable-code elimination, no-op removal,
  dead-store elimination, procedural abstraction).
* :mod:`repro.compress` -- splitting-streams compression with canonical
  Huffman codes (Section 3 of the paper).
* :mod:`repro.core` -- the paper's contribution: cold-code
  identification, compressible-region formation, buffer-safe analysis,
  unswitching, stubs, the binary rewriter's six stages, and the
  runtime decompressor.
* :mod:`repro.pipeline` -- per-stage wall time and counters
  (:class:`~repro.pipeline.manager.StageReport`).
* :mod:`repro.workloads` -- seeded synthetic MediaBench-like programs.
* :mod:`repro.analysis` -- statistics and table/figure rendering for
  the paper's experiments.

The stable public surface lives in :mod:`repro.api` (typed ``squash``
/ ``run`` / ``sweep`` / ``verify`` plus their dataclass configs),
settings in :mod:`repro.settings`, observability in :mod:`repro.obs`;
the most common entry points are re-exported lazily here::

    from repro import squash, SquashConfig, mediabench_program, Machine
    from repro import run, sweep, verify, RunSpec, SweepSpec
"""

__version__ = "1.0.0"

_EXPORTS = {
    "squash": ("repro.api", "squash"),
    "run": ("repro.api", "run"),
    "sweep": ("repro.api", "sweep"),
    "verify": ("repro.api", "verify"),
    "squash_benchmark": ("repro.api", "squash_benchmark"),
    "load_squashed": ("repro.api", "load_squashed"),
    "RunSpec": ("repro.api", "RunSpec"),
    "RunOutcome": ("repro.api", "RunOutcome"),
    "SweepSpec": ("repro.api", "SweepSpec"),
    "LoadedSquash": ("repro.api", "LoadedSquash"),
    "SquashConfig": ("repro.api", "SquashConfig"),
    "SquashResult": ("repro.api", "SquashResult"),
    "Settings": ("repro.settings", "Settings"),
    "use_settings": ("repro.settings", "use_settings"),
    "current_settings": ("repro.settings", "current"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "get_registry": ("repro.obs.metrics", "get_registry"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "get_tracer": ("repro.obs.trace", "get_tracer"),
    "enable_tracing": ("repro.obs.trace", "enable_tracing"),
    "BufferStrategy": ("repro.core.runtime", "BufferStrategy"),
    "squeeze": ("repro.squeeze.pipeline", "squeeze"),
    "StageReport": ("repro.pipeline.manager", "StageReport"),
    "Machine": ("repro.vm.machine", "Machine"),
    "RunResult": ("repro.vm.machine", "RunResult"),
    "collect_profile": ("repro.vm.profiler", "collect_profile"),
    "Profile": ("repro.vm.profiler", "Profile"),
    "ArtifactStore": ("repro.store", "ArtifactStore"),
    "get_store": ("repro.store", "get_store"),
    "StoreDegraded": ("repro.errors", "StoreDegraded"),
    "store_stats": ("repro.api", "store_stats"),
    "store_gc": ("repro.api", "store_gc"),
    "store_verify": ("repro.api", "store_verify"),
    "JobSpec": ("repro.service.jobs", "JobSpec"),
    "JobEngine": ("repro.service.engine", "JobEngine"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "JobHandle": ("repro.service.client", "JobHandle"),
    "ServiceOverloaded": ("repro.errors", "ServiceOverloaded"),
    "JobExpired": ("repro.errors", "JobExpired"),
    "SpecError": ("repro.errors", "SpecError"),
    "MEDIABENCH": ("repro.workloads.mediabench", "MEDIABENCH"),
    "mediabench_program": ("repro.workloads.mediabench", "mediabench_program"),
    "mediabench_spec": ("repro.workloads.mediabench", "mediabench_spec"),
}

__all__ = ["__version__", *list(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
