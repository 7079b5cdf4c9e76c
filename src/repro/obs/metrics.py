"""The unified metrics registry.

One process-wide :class:`MetricsRegistry` holds every named counter,
gauge, and histogram the harness produces.  Components that grew their
own counter dicts (the stage cache's ``STAGE_COUNTERS``, the cell
cache's :class:`~repro.store.sealed.CacheStats`, the supervisor's
report tallies, the per-stage counters of
:class:`~repro.pipeline.manager.StageReport`) keep their
local structures for backwards compatibility but *mirror* every
increment here, so a sweep leaves one coherent, queryable snapshot —
``repro metrics`` renders it.

Instruments are created on first use — ``registry.inc("a.b")`` never
raises on an unknown name — and all mutation is lock-protected, so
spans and counters can be recorded from result-delivery callbacks
without coordination.  Names are dotted paths
(``component.object.event``); keep cardinality bounded (benchmark
names are fine, per-cell digests are not).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Streaming summary of an observed distribution."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments, created on demand, snapshot-able as a dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    # -- convenience mutators ------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every instrument's current state as plain data."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value
                    for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "mean": h.mean,
                        "min": h.minimum if h.count else 0.0,
                        "max": h.maximum if h.count else 0.0,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def render(self) -> str:
        """Aligned, human-readable dump of the whole registry."""
        snap = self.snapshot()
        lines: list[str] = []
        names = list(snap["counters"]) + list(snap["gauges"])
        width = max((len(n) for n in names), default=0)
        for name, value in snap["counters"].items():
            lines.append(f"{name.ljust(width)}  {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name.ljust(width)}  {value:g}")
        for name, h in snap["histograms"].items():
            lines.append(
                f"{name}  n={h['count']} mean={h['mean']:.6g} "
                f"min={h['min']:.6g} max={h['max']:.6g}"
            )
        return "\n".join(lines) if lines else "<no metrics recorded>"

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every component mirrors into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The default (process-wide) metrics registry."""
    return _REGISTRY
