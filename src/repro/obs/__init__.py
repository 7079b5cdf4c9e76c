"""Observability: unified metrics and structured tracing.

The subsystem has two halves, both process-wide singletons with
zero modelled-cycle cost (they observe the simulation, never charge
it):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges, and histograms.  The ad-hoc counters that grew
  inside the stage cache, the cell cache, the supervisor, and the pass
  manager all mirror into it, so ``repro metrics`` can report one
  coherent snapshot for a sweep.
* :mod:`repro.obs.trace` — a :class:`Tracer` recording spans (pipeline
  stages, sweep cells, worker lifecycles) and runtime events (region
  decompression, decode-cache hits, buffer evictions, restore-stub
  traffic) into an in-memory ring buffer, with Chrome trace-event JSON
  and JSONL exporters.  Runtime events are stamped with modelled guest
  cycles and per-category sequence numbers, so the same seed replays
  to an identical trace.

Tracing is off by default and every emit site is guarded by a single
``enabled`` check, keeping the overhead with tracing disabled at a few
attribute loads per *runtime service call* (never per instruction).
``REPRO_TRACE=1`` — or :func:`repro.obs.enable_tracing` — turns it on;
the golden suite runs with tracing armed and pins cycle/image
identity.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    chrome_trace,
    enable_tracing,
    get_tracer,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
