"""Host-speed probe: scale measured seconds to a reference host speed.

On a shared machine the speed of the host moves by up to 3x and stays
fast or slow for minutes, alike for every kind of pure-Python work, so
run-to-run spread of wall time is mostly the host, not the code.  The
benchmark therefore times a fixed loop of its own (:func:`probe`)
next to the operations it times.  :meth:`HostSpeed.scale` multiplies an
operation's wall seconds by ``REFERENCE_S / median(probe)`` over the
probes taken within :data:`MARGIN_S` of it: the operation's time on a
host where the probe takes :data:`REFERENCE_S`.  The loop is the
benchmark's own code, so a change to the package cannot move it.

Single-threaded work is probed in the measuring thread, between
operations and never while they run, so the probe does not slow them.
On one sample of 99 squash-and-run operations on a 2-vCPU machine, the
interquartile range of per-operation wall time was 43% of the median;
scaled, it was 10%.

Multi-threaded work leaves no gap between operations, and a probe in
the same process would wait for the GIL, so :meth:`HostSpeed.alongside`
probes from a separate process while the work runs: one probe, then a
pause of :data:`PAUSE_S`, which keeps it to a small share of one CPU.
Those probes also see the work's own load on the machine, which is
alike between two versions of the code as long as both keep to one
core.  On six service windows taken while the host slowed by up to
3x, probed every 0.2 s, the spread of throughput was 44% of the median
unscaled and 9% scaled.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext

#: Probe time on the reference host (seconds).
REFERENCE_S = 0.015

#: Probes this far outside an operation still count for it (seconds).
MARGIN_S = 0.3

#: Pause between two probes of :meth:`HostSpeed.alongside` (seconds).
PAUSE_S = 0.25


def probe() -> float:
    """Seconds one fixed loop of dict and integer work takes."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        table[i & 1023] = acc
        acc += table.get((i * 7) & 1023, 0) ^ i
    return time.perf_counter() - started


class HostSpeed:
    """Probes taken on request; scales seconds measured near them."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._probes: list[float] = []

    def probe(self) -> None:
        """Take one probe now, in the calling thread."""
        started = time.perf_counter()
        seconds = probe()
        self._add(started + seconds / 2, seconds)

    def _add(self, at: float, seconds: float) -> None:
        index = bisect.bisect(self._times, at)
        self._times.insert(index, at)
        self._probes.insert(index, seconds)

    @contextmanager
    def alongside(self):
        """Probe from a separate process while the block runs."""
        with tempfile.TemporaryFile("w+") as log:
            process = subprocess.Popen(
                [sys.executable, __file__, str(os.getpid())], stdout=log
            )
            try:
                yield
            finally:
                process.kill()
                process.wait()
            log.seek(0)
            output = log.read()
        for line in output.splitlines():
            fields = line.split()
            # The kill can cut the last line short.
            if len(fields) == 2:
                self._add(float(fields[0]), float(fields[1]))

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` / median probe around ``[start, end]``; the
        nearest probe when none is that close."""
        low = bisect.bisect_left(self._times, start - MARGIN_S)
        high = bisect.bisect_right(self._times, end + MARGIN_S)
        window = self._probes[low:high]
        if not window:
            nearest = min(range(len(self._times)),
                          key=lambda i: abs(self._times[i] - start))
            window = [self._probes[nearest]]
        return REFERENCE_S / statistics.median(window)

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)

    def summary(self) -> str:
        return (f"times are scaled to a host where the probe takes "
                f"{REFERENCE_S * 1e3:.1f} ms; {len(self._probes)} probes, "
                f"median {statistics.median(self._probes) * 1e3:.2f} ms, "
                f"min {min(self._probes) * 1e3:.2f}, "
                f"max {max(self._probes) * 1e3:.2f}")


class RawClock:
    """No probes: seconds as measured (the traced run and tests)."""

    def probe(self) -> None:
        pass

    def alongside(self):
        return nullcontext()

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds

    def summary(self) -> str:
        return "times are wall seconds as measured"


if __name__ == "__main__":
    # The probing process of HostSpeed.alongside; runs until killed, or
    # until its parent is gone.  time.perf_counter is the system-wide
    # monotonic clock on Linux, so the parent can place these probes
    # next to its own times.
    parent = int(sys.argv[1])
    while os.getppid() == parent:
        begun = time.perf_counter()
        taken = probe()
        print(f"{begun + taken / 2!r} {taken!r}", flush=True)
        time.sleep(PAUSE_S)
